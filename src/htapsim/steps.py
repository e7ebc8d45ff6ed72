"""Session steps and the statement grammar that makes them.

A `Step` is one statement a session runs, whether a scenario file lists it or
a bench client generates it; `parse_sql` turns one statement's text into a
`Step` under this micro-grammar:

    begin | commit | abort | lock <table> | detect
    insert <table> values (a, b)[, (c, d)...]
    update <table> set c2=<int> [where <conjunction>]
    select <table> [where <conjunction>]

where a conjunction is column equalities joined by `and` (columns c1/c2 only).
The grammar lives here rather than in `scenario.py` so that `sim` and `bench`
can use it without loading the scenario-file reader: a workload never reads a
scenario, and `bench` keeps `parse_sql` bound because perfbench's tracer
looks it up there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .store import Predicate


class ScenarioError(Exception):
    """Malformed scenario; message carries the offending line when known."""


@dataclass(slots=True)
class Step:
    seq: int
    kind: str
    raw: str
    table: str | None = None
    pred: Predicate | None = None
    set_c2: int | None = None
    rows: list[tuple[int, int]] | None = None
    mem: float | None = None
    cpu: int | None = None


_SQL_PATTERNS = {
    "begin": re.compile(r"^begin$"),
    "commit": re.compile(r"^commit$"),
    "abort": re.compile(r"^abort$"),
    "detect": re.compile(r"^detect$"),
    "lock": re.compile(r"^lock\s+(\w+)$"),
    "insert": re.compile(r"^insert\s+(\w+)\s+values\s+(.+)$"),
    "update": re.compile(r"^update\s+(\w+)\s+set\s+(\w+)\s*=\s*(-?\d+)(?:\s+where\s+(.+))?$"),
    "select": re.compile(r"^select\s+(\w+)(?:\s+where\s+(.+))?$"),
}

_COND = re.compile(r"^(c1|c2)\s*=\s*(-?\d+)$")
_VALUES = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_VALUES_LIST = re.compile(rf"^{_VALUES.pattern}(?:\s*,\s*{_VALUES.pattern})*$")


def parse_predicate(text: str | None, line: int = 0) -> Predicate:
    if text is None or not text.strip():
        return Predicate()
    eqs: dict[str, int] = {}
    for part in re.split(r"\s+and\s+", text.strip()):
        m = _COND.match(part.strip())
        if not m:
            raise ScenarioError(f"line {line}: bad condition {part.strip()!r}")
        if eqs.setdefault(m.group(1), int(m.group(2))) != int(m.group(2)):
            raise ScenarioError(f"line {line}: conflicting conditions on {m.group(1)}")
    return Predicate(eqs)


def parse_sql(sql: str, seq: int, line: int = 0, dist_keys=None) -> Step:
    """Parse one statement.  `dist_keys` maps each known table to its
    distribution key; without it any table is known and distributed by c1."""
    text = " ".join(sql.strip().split())
    for kind, pat in _SQL_PATTERNS.items():
        m = pat.match(text)
        if not m:
            continue
        step = Step(seq=seq, kind=kind, raw=text)
        if m.groups():  # lock, insert, update and select name a table first
            step.table = m.group(1)
            if dist_keys is not None and step.table not in dist_keys:
                raise ScenarioError(f"line {line}: unknown table {step.table!r}")
        if kind == "insert":
            rows = [(int(a), int(b)) for a, b in _VALUES.findall(m.group(2))]
            if not rows:
                raise ScenarioError(f"line {line}: insert without value tuples")
            if not _VALUES_LIST.match(m.group(2)):
                raise ScenarioError(f"line {line}: bad insert values {m.group(2)!r}")
            step.rows = rows
        elif kind == "update":
            column = m.group(2)
            if column not in ("c1", "c2"):
                raise ScenarioError(f"line {line}: unknown column {column!r}")
            key = "c1" if dist_keys is None else dist_keys[step.table]
            if column == key:
                raise ScenarioError(
                    f"line {line}: updating the distribution key is not supported"
                    f" ({step.table} is distributed by {key})"
                )
            if column == "c1":
                raise ScenarioError(f"line {line}: only c2 can be set, not c1")
            step.set_c2 = int(m.group(3))
            step.pred = parse_predicate(m.group(4), line)
        elif kind == "select":
            step.pred = parse_predicate(m.group(2), line)
        return step
    raise ScenarioError(f"line {line}: cannot parse statement {text!r}")
