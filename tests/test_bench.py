"""Bench clients and the trace of bench runs.

The clients build typed steps directly; each step must say what its SQL text
says.  Trace events are recorded as tuples and rendered when `Cluster.trace`
is read, so a run read window by window must give the same text as a run
read once at the end: an event argument that changed after it was recorded
would render differently.  No module of `htapsim` may grow past the parser's
token step, which every run pays for in memory at import, and no segment's
xid mapping may grow with run length.
"""

import dataclasses
import itertools
import random

import pytest

import htapsim.bench as bench_mod
from htapsim.bench import (
    bench,
    build,
    default_htap_groups,
    insert_only_client,
    olap_client,
    oltp_client,
    tpcb_like_client,
    update_only_client,
)
from htapsim.scenario import parse_sql
from htapsim.sim import Cluster, SimConfig
from retained_state import PACKAGE, parser_tokens

PARSER_TOKEN_STEP = 8192  # CPython 3.11 doubles its token array at this count
MAPPING_BOUND = 256  # xid mapping entries per segment: 8 per client at 32 clients

CLIENTS = {
    "update-only": (lambda: update_only_client("c001", 1, 32, random.Random(5), 256), {}),
    "insert-only": (lambda: insert_only_client("c002", 2, random.Random(5), 3), {}),
    "tpcb-like": (
        lambda: tpcb_like_client("c003", 3, 32, random.Random(5), (900, 10, 5)),
        {},
    ),
    "mixed-htap olap": (lambda: olap_client("olap001", random.Random(5), 40), {"select": 40}),
    "mixed-htap oltp": (
        lambda: oltp_client("oltp002", 2, 16, random.Random(1005), 128),
        {"update": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_typed_steps_equal_their_parsed_text(name):
    make, cpu_by_kind = CLIENTS[name]
    steps = list(itertools.islice(make(), 300))
    assert {s.kind for s in steps} >= {"begin", "commit"}
    for step in steps:
        want = parse_sql(step.raw, 0)
        want = dataclasses.replace(want, cpu=cpu_by_kind.get(want.kind))
        assert step == want


def run_in_windows(workload, clients, ticks, config=None, seed=0):
    """Run `build`'s cluster in windows of 37 ticks, copying the trace after
    each; returns the cluster and the copies."""
    cluster = build(workload, clients, config, seed)
    readings = []
    for end in range(37, ticks, 37):
        cluster.run(until_tick=end)
        readings.append(list(cluster.trace))
    cluster.run(until_tick=ticks)
    return cluster, readings


@pytest.mark.parametrize("workload, ticks", [("tpcb-like", 500), ("mixed-htap", 600)])
def test_trace_read_in_windows_equals_trace_read_once(workload, ticks):
    once = bench(workload, 32, ticks, seed=3).trace
    cluster, readings = run_in_windows(workload, 32, ticks, seed=3)
    assert len(readings) >= 10
    for earlier in readings:
        assert once[: len(earlier)] == earlier
    assert len(readings[0]) < len(once)
    assert cluster.trace == once


def test_no_event_recorded_with_tracing_off():
    traced, _ = run_in_windows("tpcb-like", 8, 100)
    assert traced._events  # recorded, not yet rendered
    assert traced.trace
    untraced, _ = run_in_windows("tpcb-like", 8, 100, SimConfig(trace_enabled=False))
    assert untraced._events == []
    assert untraced.trace == []
    assert untraced.committed_txns > 0


def test_bench_leaves_the_callers_config_unchanged():
    config = SimConfig()
    bench_mod.bench("mixed-htap", 4, 50, config, seed=1)
    assert config == SimConfig()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: build("read-only", 4), "unknown workload 'read-only'", id="workload"),
        pytest.param(
            lambda: build("update-only", 0), "clients must be >= 1, not 0", id="no-clients"
        ),
        pytest.param(
            lambda: bench("update-only", 2.5, 10),
            "clients must be an integer, not 2.5",
            id="fractional-clients",
        ),
        pytest.param(
            lambda: bench("update-only", True, 10),
            "clients must be an integer, not True",
            id="boolean-clients",
        ),
        pytest.param(
            lambda: bench("update-only", 2, 0), "duration_ticks must be >= 1, not 0", id="no-ticks"
        ),
        pytest.param(
            lambda: bench("update-only", 2, -5),
            "duration_ticks must be >= 1, not -5",
            id="negative-ticks",
        ),
        pytest.param(
            lambda: Cluster(SimConfig(resource_groups=default_htap_groups())).add_session(
                "s1", "etl_group"
            ),
            "session s1: unknown resource group 'etl_group'",
            id="resource-group",
        ),
        pytest.param(
            lambda: Cluster(SimConfig()).add_session("s1", "oltp_group"),
            "session s1: unknown resource group 'oltp_group'",
            id="resource-group-without-groups",
        ),
    ],
)
def test_bad_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_mixed_htap_summary_has_a_line_per_group():
    lines = bench("mixed-htap", 4, 60).summary().splitlines()
    groups = [line.split()[0] for line in lines if line.startswith("group=")]
    assert groups == ["group=olap_group", "group=oltp_group"]


def test_every_module_stays_below_the_parser_token_step():
    """A module of more tokens compiles, at every import that writes no
    bytecode cache, with a higher peak; crossing the step added about
    0.45 MB to each benchmark run's peak RSS."""
    tokens = {path.name: parser_tokens(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "sim.py" in tokens
    assert {name: n for name, n in tokens.items() if n >= PARSER_TOKEN_STEP} == {}


@pytest.mark.parametrize("workload", ["update-only", "tpcb-like"])
def test_xid_mapping_stays_bounded(workload):
    """A segment truncates its local-to-distributed xid mapping at the
    snapshot horizon whenever it hands out a local xid, so the mapping holds
    about the transactions in flight, not every one the run has begun."""
    cluster = build(workload, 32, SimConfig(trace_enabled=False))
    cluster.run(until_tick=2000)
    handed_out = [seg.next_local_xid for seg in cluster.segments]
    sizes = [len(seg.mapping.entries) for seg in cluster.segments]
    assert min(handed_out) > 4 * MAPPING_BOUND, handed_out
    assert max(sizes) <= MAPPING_BOUND, sizes
