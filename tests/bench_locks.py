"""Lock-table micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_locks.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Each case times one round on a tag that already has N compatible
ROW_EXCLUSIVE holders, the queue shape concurrent updaters make on a
relation.  With the cost of a grant and a release bound to the requesting
transaction's own requests, the time per round stays flat in N.  One more
case times the lock every writer takes on its own local xid.
"""

import itertools

import pytest

from htapsim.locks import AcquireResult, LockMode, LockTable, LockTag, TagKind

HOLDERS = (1, 32, 256)
REL = LockTag(TagKind.RELATION, 0, "accounts")
TUPLE = LockTag(TagKind.TUPLE, 0, ("accounts", 7))


def table_with_holders(n: int) -> LockTable:
    table = LockTable(0)
    for txn in range(1, n + 1):
        table.register_txn(txn)
        table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 0)
    return table


@pytest.mark.parametrize("holders", HOLDERS)
def test_acquire_release_compatible(benchmark, holders):
    """One more updater takes ROW_EXCLUSIVE and releases it; nobody waits."""
    table = table_with_holders(holders)
    txn = holders + 1

    def one_round():
        table.register_txn(txn)
        result, _ = table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 1)
        table.release_all(txn, 2)
        return result

    assert benchmark(one_round) is AcquireResult.GRANTED


@pytest.mark.parametrize("holders", HOLDERS)
def test_blocked_then_promoted(benchmark, holders):
    """Beside the N relation holders, one updater's tuple lock blocks a
    second; releasing the first promotes the second, which then releases."""
    table = table_with_holders(holders)
    first, second = holders + 1, holders + 2

    def one_round():
        for txn in (first, second):
            table.register_txn(txn)
            table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(first, TUPLE, LockMode.EXCLUSIVE, 1)
        blocked, _ = table.acquire(second, TUPLE, LockMode.EXCLUSIVE, 1)
        promoted = table.release_all(first, 2)
        table.release_all(second, 3)
        return blocked, [r.txn for r in promoted]

    assert benchmark(one_round) == (AcquireResult.BLOCKED, [second])


def test_own_xid_lock(benchmark):
    """A writer takes the transaction lock on its own new local xid, a tag
    nobody has used, and then ends: the queue is made and dropped again
    with nobody waiting."""
    table = LockTable(0)
    xids = itertools.count(1)

    def one_round():
        xid = next(xids)
        table.register_txn(xid)
        tag = LockTag(TagKind.TRANSACTION, 0, xid)
        result, _ = table.acquire(xid, tag, LockMode.EXCLUSIVE, 1)
        table.release_all(xid, 2)
        return result

    assert benchmark(one_round) is AcquireResult.GRANTED
