"""Scenario files: tables, resource groups, numbered session steps, expectations.

YAML documents whose statements follow the micro-grammar of `steps.py`,
which defines `Step`, `parse_sql` and `ScenarioError`; this module imports
them from there, so `htapsim.scenario` exports them too.
Every step carries a sequence number, unique in the file, and belongs to the
session that lists it; each `SessionDef` keeps its steps in `seq` order, the
order its session runs them in.  The simulator has two issue orders.  Strict
order (the default) issues the lowest `seq` among all the sessions' next steps
and waits while that step's session is busy; a step that blocks counts as
issued, so other sessions' later steps may go.  Eager order
(`SimConfig.eager`) issues each session's next step as soon as that session is
free.  One abort-skip rule holds in both: once a transaction aborts for any
reason but its own `abort` step, its remaining steps are dropped up to the
session's next `begin`, which strict order traces as `step_skipped`.  `detect`
forces one detector run and belongs to no session's transaction; strict order
runs it in its turn even inside a dropped remainder, eager order drops it.
`build_cluster` is the one place that turns a scenario into a `sim.Cluster`,
through the cluster's public `create_table` and `add_session`;
`run_scenario` runs that cluster to fixpoint and returns its `ScenarioResult`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass, field

from .resgroup import ConfigError, ResourceGroupConfig, group_set_fault
from .sim import Cluster, SimConfig
from .steps import ScenarioError, Step, parse_predicate, parse_sql  # noqa: F401  (re-exported)
from .store import StoreError, TableDef


@dataclass
class TableSpec:
    table: TableDef
    rows: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class SessionDef:
    """A session and the steps it runs, kept in `seq` order: `parse_scenario`
    sorts them, and a scenario built in code must list them so."""

    sid: str
    group: str | None = None
    steps: list[Step] = field(default_factory=list)


@dataclass
class Expectation:
    verdict: str | None = None  # "deadlock" | "clean"
    victims: list[str] = field(default_factory=list)
    outcomes: dict[str, str] = field(default_factory=dict)


@dataclass
class Scenario:
    tables: list[TableSpec] = field(default_factory=list)
    groups: list[ResourceGroupConfig] = field(default_factory=list)
    sessions: list[SessionDef] = field(default_factory=list)
    expect: Expectation | None = None


@functools.cache
def _line_loader():
    """A SafeLoader that stamps every mapping with its source line.  Built on
    the first scenario read, so that importing htapsim does not import PyYAML."""
    import yaml

    class LineLoader(yaml.SafeLoader):
        pass

    def mapping_with_line(loader, node, deep=False):
        mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
        mapping["__line__"] = node.start_mark.line + 1
        return mapping

    LineLoader.add_constructor(
        yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, mapping_with_line
    )
    return LineLoader


def _line(rec: dict) -> int:
    return rec.get("__line__", 0)


def _records(value, what: str, line: int) -> list[dict]:
    """A list of mappings, or [] for a missing section; `line` is the
    enclosing record's, for a bad value that has no line of its own."""
    if value is None:
        return []
    if not isinstance(value, list):
        line = _line(value) if isinstance(value, dict) else line
        raise ScenarioError(f"line {line}: {what} must be a list")
    for rec in value:
        if not isinstance(rec, dict):
            raise ScenarioError(f"line {line}: each of {what} must be a mapping, not {rec!r}")
    return value


def _check_keys(rec: dict, known: set, what: str) -> None:
    for key in rec:
        if key != "__line__" and key not in known:
            raise ScenarioError(f"line {_line(rec)}: unknown {what} {key!r}")


def _number(convert, value, what: str, line: int):
    """`convert(value)`; a boolean is an error rather than read as 0/1, and
    so, for `int`, is a fraction rather than truncated, while an integral
    float such as 2.0 is accepted.  For `float`, NaN and the infinities are
    errors too."""
    if isinstance(value, bool) or (
        convert is int and isinstance(value, float) and not value.is_integer()
    ):
        kind = "an integer" if convert is int else "a number"
        raise ScenarioError(f"line {line}: {what} must be {kind}, not {value!r}")
    try:
        number = convert(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"line {line}: {what} must be a number, not {value!r}") from None
    if convert is float and not math.isfinite(number):
        raise ScenarioError(f"line {line}: {what} must be finite, not {value!r}")
    return number


def _non_negative(convert, value, what: str, line: int):
    number = _number(convert, value, what, line)
    if number < 0:
        raise ScenarioError(f"line {line}: {what} must not be negative, not {value!r}")
    return number


_CPUSET_CHUNK = re.compile(r"(\d+)(?:-(\d+))?")


def parse_cpuset(text: str) -> frozenset[int]:
    """Parse cpuset syntax like "0-3" or "0-3,8,10-11"; a chunk that is
    neither a core nor a range of cores, and a range whose low end is above
    its high end, is a `ValueError` that names CPUSET and the chunk."""
    cores: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _CPUSET_CHUNK.fullmatch(chunk)
        if not m:
            raise ValueError(f"CPUSET: {chunk!r} is neither a core nor a range such as 0-3")
        lo, hi = int(m[1]), int(m[2] or m[1])
        if lo > hi:
            raise ValueError(f"CPUSET: reversed cpuset range {chunk!r}")
        cores.update(range(lo, hi + 1))
    return frozenset(cores)


def _parse_group(rec: dict) -> ResourceGroupConfig:
    line = _line(rec)
    _check_keys(
        rec,
        {"name", "CONCURRENCY", "MEMORY_LIMIT", "MEMORY_SHARED_QUOTA", "CPU_RATE_LIMIT", "CPUSET"},
        "group parameter",
    )
    try:
        name = rec["name"]
        if not isinstance(name, str):
            raise ScenarioError(f"line {line}: group name must be a string, not {name!r}")
        cpuset = rec.get("CPUSET")
        if isinstance(cpuset, list):
            raise ScenarioError(
                f'line {line}: CPUSET must be a string such as "0-3,8", not the list {cpuset!r}'
            )
        if cpuset is not None and not isinstance(cpuset, str):
            cpuset = str(_number(int, cpuset, "CPUSET", line))
        return ResourceGroupConfig(
            name=name,
            concurrency=_number(int, rec["CONCURRENCY"], "CONCURRENCY", line),
            memory_limit=_number(float, rec["MEMORY_LIMIT"], "MEMORY_LIMIT", line),
            memory_shared_quota=_number(
                float, rec.get("MEMORY_SHARED_QUOTA", 20), "MEMORY_SHARED_QUOTA", line
            ),
            cpu_rate_limit=(
                _number(int, rec["CPU_RATE_LIMIT"], "CPU_RATE_LIMIT", line)
                if "CPU_RATE_LIMIT" in rec
                else None
            ),
            cpuset=parse_cpuset(cpuset) if cpuset is not None else None,
        )
    except KeyError as exc:
        raise ScenarioError(f"line {line}: group missing parameter {exc}") from None
    except (ConfigError, TypeError, ValueError) as exc:
        raise ScenarioError(f"line {line}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    import yaml  # here, not at the top: see _line_loader

    try:
        doc = yaml.load(text, Loader=_line_loader())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else 0
        raise ScenarioError(f"line {line}: invalid YAML: {exc}") from None
    if doc is None:
        return Scenario()
    if not isinstance(doc, dict):
        raise ScenarioError("line 1: scenario must be a mapping")

    scenario = Scenario()
    doc_line = _line(doc)
    _check_keys(doc, {"tables", "groups", "sessions", "expect"}, "section")
    for rec in _records(doc.get("tables"), "tables", doc_line):
        line = _line(rec)
        _check_keys(rec, {"name", "distributed_by", "rows"}, "table key")
        try:
            table = TableDef(
                name=rec["name"],
                dist_key=rec.get("distributed_by", "c1"),
            )
        except KeyError as exc:
            raise ScenarioError(f"line {line}: table missing {exc}") from None
        except StoreError as exc:
            raise ScenarioError(f"line {line}: {exc}") from None
        if not isinstance(table.name, str):
            raise ScenarioError(f"line {line}: table name must be a string, not {table.name!r}")
        if any(spec.table.name == table.name for spec in scenario.tables):
            raise ScenarioError(f"line {line}: duplicate table {table.name!r}")
        rows = rec.get("rows", []) or []
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 2 for row in rows
        ):
            raise ScenarioError(f"line {line}: rows must be (c1, c2) pairs")
        rows = [tuple(_number(int, v, "a row value", line) for v in row) for row in rows]
        scenario.tables.append(TableSpec(table, rows))

    group_recs = _records(doc.get("groups"), "groups", doc_line)
    for rec in group_recs:
        scenario.groups.append(_parse_group(rec))
    fault = group_set_fault(scenario.groups)
    if fault is not None:
        index, message = fault
        raise ScenarioError(f"line {_line(group_recs[index])}: {message}")
    group_names = {g.name for g in scenario.groups}

    dist_keys = {spec.table.name: spec.table.dist_key for spec in scenario.tables}
    seen_seq: dict[int, int] = {}
    for rec in _records(doc.get("sessions"), "sessions", doc_line):
        line = _line(rec)
        _check_keys(rec, {"id", "group", "steps"}, "session key")
        sid = rec.get("id", "")
        if not isinstance(sid, str):
            raise ScenarioError(f"line {line}: session id must be a string, not {sid!r}")
        if not sid:
            raise ScenarioError(f"line {line}: session without id")
        if any(s.sid == sid for s in scenario.sessions):
            raise ScenarioError(f"line {line}: duplicate session id {sid!r}")
        group = rec.get("group")
        if group is not None and group not in group_names:
            raise ScenarioError(f"line {line}: unknown resource group {group!r}")
        sdef = SessionDef(sid, group)
        scenario.sessions.append(sdef)
        for step_rec in _records(rec.get("steps"), "steps", line):
            sline = _line(step_rec)
            _check_keys(step_rec, {"seq", "sql", "mem", "cpu"}, "step key")
            if "seq" not in step_rec or "sql" not in step_rec:
                raise ScenarioError(f"line {sline}: step needs seq and sql")
            seq = _number(int, step_rec["seq"], "seq", sline)
            if seq in seen_seq:
                raise ScenarioError(
                    f"line {sline}: duplicate seq {seq} (first at line {seen_seq[seq]})"
                )
            seen_seq[seq] = sline
            step = parse_sql(str(step_rec["sql"]), seq, sline, dist_keys)
            if "mem" in step_rec:
                step.mem = _non_negative(float, step_rec["mem"], "mem", sline)
            if "cpu" in step_rec:
                step.cpu = _non_negative(int, step_rec["cpu"], "cpu", sline)
            if group is None and ("cpu" in step_rec or "mem" in step_rec):
                raise ScenarioError(
                    f"line {sline}: session {sid} has no resource group for cpu or mem"
                )
            sdef.steps.append(step)
        sdef.steps.sort(key=lambda s: s.seq)

    if "expect" in doc and doc["expect"]:
        rec = doc["expect"]
        if not isinstance(rec, dict):
            raise ScenarioError(f"line {doc_line}: expect must be a mapping")
        _check_keys(rec, {"verdict", "victims", "outcomes"}, "expect key")
        victims = rec.get("victims") or []
        outcomes = rec.get("outcomes") or {}
        if not isinstance(victims, list) or not isinstance(outcomes, dict):
            raise ScenarioError(
                f"line {_line(rec)}: expect needs a list of victims and a mapping of outcomes"
            )
        scenario.expect = Expectation(
            verdict=rec.get("verdict"),
            victims=[str(v) for v in victims],
            outcomes={str(k): str(v) for k, v in outcomes.items() if k != "__line__"},
        )
        if scenario.expect.verdict not in (None, "clean", "deadlock"):
            raise ScenarioError(
                f"line {_line(rec)}: verdict must be clean or deadlock"
            )

    for sdef in scenario.sessions:
        in_txn = False  # the session's last begin is not yet closed
        for step in sdef.steps:
            if step.kind == "begin":
                if in_txn:
                    raise ScenarioError(
                        f"line {seen_seq[step.seq]}: begin inside an open transaction"
                        f" of session {sdef.sid} (seq {step.seq})"
                    )
                in_txn = True
            elif step.kind != "detect" and not in_txn:
                raise ScenarioError(
                    f"line {seen_seq[step.seq]}: {step.raw!r} outside a transaction"
                    f" of session {sdef.sid} (seq {step.seq})"
                )
            elif step.kind in ("commit", "abort"):
                in_txn = False
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(
            f"line {line}: not UTF-8: cannot decode byte 0x{data[exc.start]:02x}: {exc.reason}"
        ) from None
    return parse_scenario(text)


@dataclass
class ScenarioResult:
    outcomes: dict[str, str]
    verdict: str
    victims: list[str]
    trace: list[str]
    metrics_csv: str
    stalled: list[str]
    scans: dict[str, list]

    def expectations_met(self, expect) -> tuple[bool, list[str]]:
        problems = []
        if expect is None:
            return True, problems
        if expect.verdict is not None and expect.verdict != self.verdict:
            problems.append(f"verdict {self.verdict}, expected {expect.verdict}")
        if expect.victims and sorted(set(expect.victims)) != sorted(set(self.victims)):
            problems.append(f"victims {self.victims}, expected {expect.victims}")
        for sid, want in sorted(expect.outcomes.items()):
            got = self.outcomes.get(sid, "missing")
            matched = got == want if ":" in want else got.split(":")[0] == want
            if not matched:
                problems.append(f"session {sid}: outcome {got}, expected {want}")
        return not problems, problems


def build_cluster(scenario: Scenario, config: SimConfig | None = None) -> Cluster:
    """A cluster for `scenario` under `config`: the scenario's resource
    groups after the config's, its tables, then its sessions, each with its
    own steps.  A group name in both sets is a `ConfigError`."""
    config = config or SimConfig()
    groups = [*config.resource_groups, *scenario.groups]
    cluster = Cluster(dataclasses.replace(config, resource_groups=groups))
    for spec in scenario.tables:
        cluster.create_table(spec.table, spec.rows)
    for sdef in scenario.sessions:
        cluster.add_session(sdef.sid, sdef.group, step_iter=iter(sdef.steps))
    return cluster


def run_scenario(scenario: Scenario, config: SimConfig | None = None) -> ScenarioResult:
    cluster = build_cluster(scenario, config)
    cluster.run()
    victims = []
    for dxid in cluster.victims:
        sid = cluster.dtm.transactions[dxid].sid
        if sid not in victims:
            victims.append(sid)
    outcomes = {sid: cluster.session_outcome(sid) for sid in sorted(cluster.sessions)}
    return ScenarioResult(
        outcomes=outcomes,
        verdict=cluster.final_verdict(),
        victims=victims,
        trace=cluster.trace,
        metrics_csv=cluster.metrics_csv(),
        stalled=[sid for sid, o in sorted(outcomes.items()) if o == "stalled"],
        scans={
            sid: list(cluster.sessions[sid].scan_results)
            for sid in sorted(cluster.sessions)
        },
    )
