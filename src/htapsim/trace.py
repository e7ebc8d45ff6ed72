"""Trace event kinds, and the rendering of a run's trace log.

Each kind of trace event is declared once here, as a `Kind`: its name, the
template of its details, and its arity, the number of arguments an event of
that kind carries.  A template is a `str.format` template with one field per
argument or, where the details need more than formatting, a function of the
arguments that returns them.

`sim.Cluster._trace` appends an event to one flat log as the fields
(tick, site, kind, *args), where `kind` is the `Kind` itself, so logging looks
nothing up; `render` turns the log into `tick|site|kind|details` lines.  The
arguments must be values that no later step changes (ints, strings, tuples,
frozensets, lock tags, frozen records).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .gdd import ReductionStep

COORD = -1  # the coordinator's site id; segments are 0 .. n-1


class Kind(NamedTuple):
    name: str
    template: str | Callable[..., str]
    arity: int


def render(log: list) -> list[str]:
    """The `tick|site|kind|details` lines of a trace log."""
    lines = []
    i, end = 0, len(log)
    while i < end:
        tick, site, kind = log[i : i + 3]
        j = i + 3 + kind.arity
        args = log[i + 3 : j]
        i = j
        if type(site) is not str:
            site = "coord" if site == COORD else f"seg{site}"
        template = kind.template
        details = template.format(*args) if type(template) is str else template(*args)
        lines.append(f"{tick}|{site}|{kind.name}|{details}")
    return lines


def _begin_details(sid: str, dxid: int, in_progress: tuple, max_committed: int) -> str:
    return (
        f"session={sid} dxid={dxid} in_progress={list(in_progress)} "
        f"max_committed={max_committed}"
    )


def _commit_start_details(sid: str, dxid: int, protocol: str, write_segments: tuple) -> str:
    return (
        f"session={sid} dxid={dxid} protocol={protocol} "
        f"write_segments={list(write_segments)}"
    )


def _lock_wait_details(dxid: int, tag, mode: str, blockers: frozenset) -> str:
    return f"dxid={dxid} tag={tag} mode={mode} blockers={sorted(blockers)}"


def _verdict_details(outcome: str, residual: tuple, victims: tuple) -> str:
    return (
        f"outcome={outcome} residual={[str(e) for e in residual]} "
        f"victims={list(victims)}"
    )


# driver: issue order
ISSUE = Kind("issue", "seq={} session={} sql={}", 3)
STEP_SKIPPED = Kind("step_skipped", "seq={} session={}", 2)
# coordinator: transaction begin and statements
ADMISSION_QUEUE = Kind("admission_queue", "session={}", 1)
BEGIN = Kind("begin", _begin_details, 4)
MEM_CANCEL = Kind("mem_cancel", "session={} bytes={}", 2)
STMT_DONE = Kind("stmt_done", "session={} seq={} count={}", 3)
# any site: locks
LOCK_WAIT = Kind("lock_wait", _lock_wait_details, 4)
LOCK_GRANT = Kind("lock_grant", "dxid={} tag={} mode={}", 3)
# segments: statement parts
ASSIGN_LOCAL_XID = Kind("assign_local_xid", "dxid={} local={}", 2)
INSERT = Kind("insert", "dxid={} rows={}", 2)
RELATION_LOCKED = Kind("relation_locked", "dxid={} {}", 2)
STAMP = Kind("stamp", "dxid={} {}:{}", 3)
STMT_CONFLICT = Kind("stmt_conflict", "dxid={} reason={}", 2)
# transaction end
COMMIT_START = Kind("commit_start", _commit_start_details, 4)
ABORT_START = Kind("abort_start", "session={} dxid={} reason={}", 3)
PREPARED = Kind("prepared", "dxid={}", 1)
PREPARE_FAIL = Kind("prepare_fail", "dxid={}", 1)
PREPARE_FAILED = Kind("prepare_failed", "dxid={} seg={}", 2)
FSYNC = Kind("fsync", "dxid={} kind={}", 2)
COMMIT_LOCAL = Kind("commit_local", "dxid={} onephase={}", 2)
ABORT_LOCAL = Kind("abort_local", "dxid={}", 1)
END_LOCAL = Kind("end_local", "dxid={}", 1)
TXN_END = Kind("txn_end", "session={} dxid={} outcome={}", 3)
# the deadlock detector
REDUCE = Kind("reduce", ReductionStep.describe, 1)
VERDICT = Kind("verdict", _verdict_details, 3)
VALIDATE = Kind("validate", "frozen check: residual transactions all live", 0)
DISCARD = Kind("discard", "stale graph: a residual transaction finished", 0)

KINDS = tuple(v for v in tuple(globals().values()) if type(v) is Kind)
