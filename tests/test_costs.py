"""Costs counted, not timed: how the simulator's work per transaction grows.

A host timing drifts with the host; a count of calls does not.  Each test
wraps a method test-side, as `perfbench/tracer.py` does, runs a workload at
two run lengths and asserts how the count per finished transaction may
grow between them.  Nothing in `src` counts anything.
"""

import functools

import pytest

from htapsim.bench import WORKLOADS, build
from htapsim.locks import LockTable
from htapsim.sim import Cluster, SimConfig

CLIENTS = 8
SHORT, LONG = 200, 800  # ticks
# A run cut at its tick budget leaves transactions in flight whose events it
# has already counted, which lifts the short run's ratio by about 1-2%.  A
# cost per transaction that grew with run length would lift the long run's
# ratio by up to 4x.
FLAT = 0.05

# (owner, name) of every method these tests wrap; `tests/test_tooling.py`
# checks that each is still defined on its owner
SCHEDULE, ACQUIRE = WRAPPED = ((Cluster, "schedule"), (LockTable, "acquire"))


def calls_per_finished_txn(monkeypatch, owner, name: str, workload: str, ticks: int) -> float:
    """Calls of `owner.name` per transaction committed or aborted in a
    `ticks`-long run.  After the run, no segment keeps a reserved own-xid
    lock (`Segment.xid_locks`) of a transaction that has finished."""
    calls = 0
    method = getattr(owner, name)

    @functools.wraps(method)
    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    cluster = build(workload, CLIENTS, SimConfig(trace_enabled=False))
    cluster.run(until_tick=ticks)
    monkeypatch.setattr(owner, name, method)
    for seg in cluster.segments:
        outlived = [local for local in seg.xid_locks if seg.states[local] != "in_progress"]
        assert not outlived, (workload, ticks, seg.id, outlived)
    finished = cluster.committed_txns + cluster.aborted_txns
    assert finished > 0
    return calls / finished


def events_per_finished_txn(monkeypatch, workload: str, ticks: int) -> float:
    """`Cluster.schedule` calls, the events perfbench counts as `sim.events`,
    per transaction committed or aborted in a `ticks`-long run."""
    return calls_per_finished_txn(monkeypatch, *SCHEDULE, workload, ticks)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_events_per_finished_transaction_are_flat_in_run_length(monkeypatch, workload):
    short = events_per_finished_txn(monkeypatch, workload, SHORT)
    long = events_per_finished_txn(monkeypatch, workload, LONG)
    assert abs(long / short - 1) <= FLAT, (
        f"{workload}: {short:.3f} events per transaction at {SHORT} ticks,"
        f" {long:.3f} at {LONG}"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_lock_acquires_per_finished_transaction_are_flat_in_run_length(monkeypatch, workload):
    """`LockTable.acquire` calls, which perfbench counts as
    `locks.acquire.calls`, per finished transaction."""
    short = calls_per_finished_txn(monkeypatch, *ACQUIRE, workload, SHORT)
    long = calls_per_finished_txn(monkeypatch, *ACQUIRE, workload, LONG)
    assert abs(long / short - 1) <= FLAT, (
        f"{workload}: {short:.3f} lock acquires per transaction at {SHORT} ticks,"
        f" {long:.3f} at {LONG}"
    )
