"""Lock-table micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_locks.py -p no:cacheprovider

Each case times one round on a tag that already has N compatible
ROW_EXCLUSIVE holders, the queue shape concurrent updaters make on a
relation.  With the cost of a grant and a release bound to the requesting
transaction's own requests, the time per round stays flat in N.
"""

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
