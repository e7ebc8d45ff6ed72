"""Costs counted, not timed: how the simulator's work per transaction grows.

A host timing drifts with the host; a count of calls does not.  Each test
wraps a method test-side, as `perfbench/tracer.py` does, runs a workload at
two run lengths and asserts how the count per finished transaction may
grow between them.  Nothing in `src` counts anything.
"""

import functools

import pytest

from htapsim.bench import WORKLOADS, build
from htapsim.sim import Cluster, SimConfig

CLIENTS = 8
SHORT, LONG = 200, 800  # ticks
# A run cut at its tick budget leaves transactions in flight whose events it
# has already counted, which lifts the short run's ratio by about 1-2%.  A
# cost per transaction that grew with run length would lift the long run's
# ratio by up to 4x.
FLAT = 0.05


def events_per_finished_txn(monkeypatch, workload: str, ticks: int) -> float:
    """`Cluster.schedule` calls, the events perfbench counts as `sim.events`,
    per transaction committed or aborted in a `ticks`-long run."""
    calls = 0
    schedule = Cluster.schedule

    @functools.wraps(schedule)
    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return schedule(*args, **kwargs)

    monkeypatch.setattr(Cluster, "schedule", counted)
    cluster = build(workload, CLIENTS, SimConfig(trace_enabled=False))
    cluster.run(until_tick=ticks)
    monkeypatch.setattr(Cluster, "schedule", schedule)
    finished = cluster.committed_txns + cluster.aborted_txns
    assert finished > 0
    return calls / finished


@pytest.mark.parametrize("workload", WORKLOADS)
def test_events_per_finished_transaction_are_flat_in_run_length(monkeypatch, workload):
    short = events_per_finished_txn(monkeypatch, workload, SHORT)
    long = events_per_finished_txn(monkeypatch, workload, LONG)
    assert abs(long / short - 1) <= FLAT, (
        f"{workload}: {short:.3f} events per transaction at {SHORT} ticks,"
        f" {long:.3f} at {LONG}"
    )
