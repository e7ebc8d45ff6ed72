"""Bench clients and the trace of bench runs.

The clients build typed steps directly; each step must say what its SQL text
says.  Trace events are recorded as tuples and rendered when `Cluster.trace`
is read, so a run read window by window must give the same text as a run
read once at the end: an event argument that changed after it was recorded
would render differently.
"""

import dataclasses
import itertools
import random

import pytest

import htapsim.bench as bench_mod
from htapsim.bench import (
    bench,
    insert_only_client,
    olap_client,
    oltp_client,
    tpcb_like_client,
    update_only_client,
)
from htapsim.scenario import parse_sql
from htapsim.sim import Cluster, SimConfig

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
        want = parse_sql(step.raw, 0, step.session)
        want = dataclasses.replace(want, cpu=cpu_by_kind.get(want.kind))
        assert step == want


class WindowedCluster(Cluster):
    """Runs in windows of 37 ticks and copies the trace after each one."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.readings: list[list[str]] = []
        self.recorded = None
        WindowedCluster.made.append(self)

    def run(self, until_tick=None, stop_when=None):
        for end in range(37, until_tick, 37):
            super().run(until_tick=end)
            self.readings.append(list(self.trace))
        super().run(until_tick=until_tick)
        self.recorded = len(self._events)  # before bench() reads the trace


def windowed_runs(monkeypatch) -> list:
    WindowedCluster.made = []
    monkeypatch.setattr(bench_mod, "Cluster", WindowedCluster)
    return WindowedCluster.made


@pytest.mark.parametrize("workload, ticks", [("tpcb-like", 500), ("mixed-htap", 600)])
def test_trace_read_in_windows_equals_trace_read_once(workload, ticks, monkeypatch):
    once = bench(workload, 32, ticks, seed=3).trace
    made = windowed_runs(monkeypatch)
    result = bench(workload, 32, ticks, seed=3)
    readings = made[-1].readings
    assert len(readings) >= 10
    for earlier in readings:
        assert result.trace[: len(earlier)] == earlier
    assert len(readings[0]) < len(once)
    assert result.trace == once


def test_no_event_recorded_with_tracing_off(monkeypatch):
    windowed = windowed_runs(monkeypatch)
    assert bench("tpcb-like", 8, 100).trace
    assert windowed[-1].recorded > 0
    result = bench("tpcb-like", 8, 100, SimConfig(trace_enabled=False))
    assert windowed[-1].recorded == 0
    assert result.trace == []
    assert result.committed > 0


def test_bench_leaves_the_callers_config_unchanged():
    config = SimConfig()
    bench_mod.bench("mixed-htap", 4, 50, config, seed=1)
    assert config == SimConfig()
