"""Costs counted, not timed: how the simulator's work per transaction grows.

A host timing drifts with the host; a count of calls does not.  Each test
counts test-side, wrapping a method as `perfbench/tracer.py` does or reading
what a run leaves, at two sizes, and asserts how the count may grow between
them: calls per finished transaction and xid mapping entries over two run
lengths, detector edge removals over graphs of two sizes.  Nothing in `src`
counts anything.
"""

import functools

import pytest

from htapsim import gdd
from htapsim.bench import WORKLOADS, build
from htapsim.locks import LockTable
from htapsim.sim import Cluster, SimConfig
from htapsim.waitgraph import EdgeKind, GlobalWaitForGraph, WaitEdge
from test_bench import MAPPING_BOUND
from test_oracle import random_scenario, run_to_fixpoint

CLIENTS = 8
SHORT, LONG = 200, 800  # ticks
# A run cut at its tick budget leaves transactions in flight whose events it
# has already counted, which lifts the short run's ratio by about 1-2%.  A
# cost per transaction that grew with run length would lift the long run's
# ratio by up to 4x.
FLAT = 0.05

# (owner, name) of every method these tests wrap; `tests/test_tooling.py`
# checks that each is still defined on its owner
SCHEDULE, ACQUIRE, REDUCE = WRAPPED = (
    (Cluster, "schedule"),
    (LockTable, "acquire"),
    (gdd, "reduce"),
)


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_xid_mapping_entries_per_segment_are_bounded_in_run_length(workload):
    """A segment truncates its local-to-distributed xid mapping at the
    snapshot horizon whenever it hands out a local xid, so the mapping holds
    about the transactions in flight, not every one the run has begun.  The
    bound is `MAPPING_BOUND`'s 8 entries per client at this file's clients:
    every workload hands out more local xids than that by the long run."""
    bound = MAPPING_BOUND * CLIENTS // 32
    for ticks in (SHORT, LONG):
        cluster = build(workload, CLIENTS, SimConfig(trace_enabled=False))
        cluster.run(until_tick=ticks)
        sizes = [len(seg.mapping.entries) for seg in cluster.segments]
        assert max(sizes) <= bound, (workload, ticks, sizes)
    assert min(seg.next_local_xid for seg in cluster.segments) > bound


def removed_edges(graph: GlobalWaitForGraph, steps) -> list[WaitEdge]:
    """The edges `gdd.reduce`'s `steps` removed from `graph`: each one an
    edge of the graph, none removed twice, so at most E for E edges."""
    removed = [e for step in steps for e in step.removed]
    assert len(set(removed)) == len(removed), "an edge removed twice"
    assert set(removed) <= set(graph.edges())
    return removed


def test_detector_removes_each_edge_at_most_once_on_the_oracles_graphs(monkeypatch):
    """Every graph the detector daemon reduces over 100 of the oracle's
    random scenarios, with its period and link delays."""
    graphs = 0
    removed = 0
    method = getattr(*REDUCE)

    @functools.wraps(method)
    def checked(graph):
        nonlocal graphs, removed
        residual, steps = method(graph)
        graphs += 1
        removed += len(removed_edges(graph, steps))
        return residual, steps

    monkeypatch.setattr(*REDUCE, checked)
    for seed in range(5000, 5100):
        run_to_fixpoint(random_scenario(seed), seed, gdd_period=17)
    monkeypatch.setattr(*REDUCE, method)
    assert graphs > 100 and removed > 100, (graphs, removed)


@pytest.mark.parametrize("size", [10, 1000])
def test_detector_removes_a_chain_once_and_a_cycle_not_at_all(size):
    """A chain of `size` waits, solid and dotted edges in turn across the
    segments, reduces to nothing with each edge removed once; a cycle of
    `size` solid waits keeps every edge."""
    kinds = (EdgeKind.SOLID, EdgeKind.DOTTED)
    chain = [WaitEdge(v % 3, v, v + 1, kinds[v % 2]) for v in range(1, size + 1)]
    cycle = [WaitEdge(v % 3, v, v % size + 1, EdgeKind.SOLID) for v in range(1, size + 1)]
    for edges, left in ((chain, 0), (cycle, size)):
        graph = GlobalWaitForGraph(edges)
        residual, steps = gdd.reduce(graph)
        assert len(removed_edges(graph, steps)) == size - left
        assert len(residual.edges()) == left
