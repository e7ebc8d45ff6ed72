"""Distributed-snapshot micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_snapshot.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Each case has N live transactions: 2N dxids are begun and every odd one
committed, so the even dxids 2..2N are in progress, 2 is the xmin, and the
odd ones are committed between them.  Snapshots are built only through
`DistributedTxnManager`, so the file times any snapshot layout.  `begin`
takes one snapshot and ends its transaction again.  The membership cases
check five dxids: one below xmin, one in progress, the committed one just
below it, the largest committed and one above it.
"""

import pytest

from htapsim.dtm import DistributedTxnManager, XidMapping, visible
from htapsim.store import TupleVersion

LIVE = (1, 32, 256)


def manager_with_live(n: int) -> DistributedTxnManager:
    mgr = DistributedTxnManager()
    for tick in range(2 * n):
        txn = mgr.begin(tick)
        if txn.dxid % 2:
            mgr.mark_committed(txn.dxid)
    return mgr


def probes(n: int) -> list[int]:
    """Below xmin, in progress, committed just below it, the largest
    committed, above it; visible to a snapshot taken now: T F T T F."""
    mid = 2 * ((n + 1) // 2)
    return [1, mid, mid - 1, 2 * n - 1, 2 * n + 1]


EXPECTED = [True, False, True, True, False]


@pytest.mark.parametrize("live", LIVE)
def test_begin(benchmark, live):
    """One snapshot over N live transactions, then the transaction ends."""
    mgr = manager_with_live(live)

    def one_round():
        txn = mgr.begin(0)
        mgr.mark_aborted(txn.dxid)
        del mgr.transactions[txn.dxid]  # keep the history from growing
        return len(txn.snapshot.in_progress)

    assert benchmark(one_round) == live + 1


@pytest.mark.parametrize("live", LIVE)
def test_dxid_visible(benchmark, live):
    """The five probes as committed dxids under one snapshot."""
    snap = manager_with_live(live).current_snapshot()
    dxids = probes(live)

    def one_round():
        return [snap.dxid_visible(d, True) for d in dxids]

    assert benchmark(one_round) == EXPECTED


@pytest.mark.parametrize("live", LIVE)
def test_visible(benchmark, live):
    """`visible()` of one version per probe, each written by that dxid's
    local xid on a segment whose commit log agrees with the coordinator."""
    snap = manager_with_live(live).current_snapshot()
    mapping = XidMapping(0)
    states = {}
    versions = []
    for local, dxid in enumerate(probes(live), start=1):
        mapping.record(local, dxid)
        states[local] = "committed" if dxid % 2 and dxid < 2 * live else "in_progress"
        versions.append(TupleVersion((1, 1), local, 0))

    def one_round():
        return [visible(v, snap, mapping, None, states) for v in versions]

    assert benchmark(one_round) == EXPECTED
