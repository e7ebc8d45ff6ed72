"""Trace event kinds, and the rendering of a run's trace log.

Each kind of trace event is declared once here, as a `Kind`: its name, the
template of its details, and its arity, the number of arguments an event of
that kind carries.  A template is a `str.format` template with one field per
argument or, where the details need more than formatting, a function of the
arguments that returns them.

A call site records an event with `Cluster._log((site, kind, *args))`, which
extends one flat log in place, where `kind` is the `Kind` itself, so logging
looks nothing up; with tracing off `_log` discards it.  Events carry no tick:
`Cluster.run` logs a tick mark, `TICK` and the tick, each time the clock
moves, and `render` turns the log into `tick|site|kind|details` lines,
carrying the tick from mark to mark.  The arguments must be values that no
later step changes (ints, strings, tuples, lock tags, frozen records,
Enum members); Enum members are named at render time.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .dtm import Protocol
from .gdd import Outcome, ReductionStep
from .locks import LockMode

COORD = -1  # the coordinator's site id; segments are 0 .. n-1


class Kind(NamedTuple):
    name: str
    template: str | Callable[..., str]
    arity: int


TICK = object()  # in a site's place in the log: the next field is the tick from here on


def render(log: list, tick: int = 0) -> tuple[list[str], int]:
    """The `tick|site|kind|details` lines of a trace log whose first events
    happen at `tick`, and the tick in force at its end."""
    lines = []
    i, end = 0, len(log)
    while i < end:
        site = log[i]
        if site is TICK:
            tick = log[i + 1]
            i += 2
            continue
        kind = log[i + 1]
        j = i + 2 + kind.arity
        args = log[i + 2 : j]
        i = j
        if type(site) is not str:
            site = "coord" if site == COORD else f"seg{site}"
        template = kind.template
        details = template.format(*args) if type(template) is str else template(*args)
        lines.append(f"{tick}|{site}|{kind.name}|{details}")
    return lines, tick


def _begin_details(sid: str, dxid: int, in_progress: tuple, max_committed: int) -> str:
    return (
        f"session={sid} dxid={dxid} in_progress={list(in_progress)} "
        f"max_committed={max_committed}"
    )


def _commit_start_details(sid: str, dxid: int, protocol: Protocol, write_segments: tuple) -> str:
    return (
        f"session={sid} dxid={dxid} protocol={protocol.value} "
        f"write_segments={list(write_segments)}"
    )


def _lock_wait_details(dxid: int, tag, mode: LockMode, blockers: tuple) -> str:
    # a transaction with two conflicting requests on the tag is listed once
    return f"dxid={dxid} tag={tag} mode={mode.name} blockers={sorted(set(blockers))}"


def _verdict_details(outcome: Outcome, residual: tuple, victims: tuple) -> str:
    return (
        f"outcome={outcome.value} residual={[str(e) for e in residual]} "
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
LOCK_GRANT = Kind("lock_grant", "dxid={} tag={} mode={.name}", 3)
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
