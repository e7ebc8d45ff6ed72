"""Lock-table micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_locks.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Each case times one round on a tag that already has N compatible
ROW_EXCLUSIVE holders, the shape concurrent updaters make on a relation.
No strong lock is counted on the tag, so a weak request is granted without
walking the holders, and a release touches only the releasing
transaction's own requests: the time per round stays flat in N.  One case
times a strong request meeting the N holders, which the blocking rule
decides by walking them, in O(N).  Two cases time a writer's lock on its
own local xid: what every writer pays while nobody waits on it, and the
first waiter's transfer of it into the table.

The last case times one release in front of N EXCLUSIVE waiters on one
tag, for N = 16, 64, 256 and 1,024: the release promotes the first waiter,
and re-evaluating the queue decides every waiter by the blocking rule's
walk over the whole queue, so it costs O(N^2) (ROADMAP item 16).
"""

import itertools

import pytest

from htapsim.locks import AcquireResult, LockMode, LockTable, LockTag, TagKind

HOLDERS = (1, 32, 256)
WAITERS = (16, 64, 256, 1024)
REL = LockTag(TagKind.RELATION, 0, "accounts")
TUPLE = LockTag(TagKind.TUPLE, 0, ("accounts", 7))


def table_with_holders(n: int) -> LockTable:
    table = LockTable(0)
    for txn in range(1, n + 1):
        table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 0)
    return table


@pytest.mark.parametrize("holders", HOLDERS)
def test_acquire_release_compatible(benchmark, holders):
    """One more updater takes ROW_EXCLUSIVE and releases it; nobody waits."""
    table = table_with_holders(holders)
    txn = holders + 1

    def one_round():
        result, _ = table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 1)
        table.release_all(txn)
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
            table.acquire(txn, REL, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(first, TUPLE, LockMode.EXCLUSIVE, 1)
        blocked, _ = table.acquire(second, TUPLE, LockMode.EXCLUSIVE, 1)
        promoted = table.release_all(first)
        table.release_all(second)
        return blocked, [r.txn for r in promoted]

    assert benchmark(one_round) == (AcquireResult.BLOCKED, [second])


@pytest.mark.parametrize("holders", HOLDERS)
def test_strong_request_meets_weak_holders(benchmark, holders):
    """An ACCESS_EXCLUSIVE request meets the N ROW_EXCLUSIVE holders and
    waits on every one of them."""
    strong = holders + 1

    def setup():
        table = table_with_holders(holders)
        return (table,), {}

    def one_round(table):
        result, blockers = table.acquire(strong, REL, LockMode.ACCESS_EXCLUSIVE, 1)
        return result, len(blockers)

    outcome = benchmark.pedantic(one_round, setup=setup, rounds=1000)
    assert outcome == (AcquireResult.BLOCKED, holders)


def test_own_xid_lock(benchmark):
    """What a writer pays for the transaction lock on its own new local
    xid while nobody waits on it: its segment reserves the lock's arrival
    number (`LockTable.reserve`) into its map of such locks
    (`Segment.xid_locks`), and the writer's local end drops the entry.  No
    request is made and the tag gets no queue."""
    table = LockTable(0)
    xid_locks = {}
    xids = itertools.count(1)

    def one_round():
        xid = next(xids)
        xid_locks[xid] = table.reserve()
        return xid_locks.pop(xid)

    benchmark(one_round)
    assert xid_locks == {} and table._queues == {}


def test_wait_on_a_writers_xid(benchmark):
    """A transaction finds a writer's stamp: it files the writer's own xid
    lock under its reserved number (`LockTable.transfer`) and waits on it in
    SHARE; the writer's `release_all` promotes it, and then it ends too.
    The writer's request, no longer made at xid assignment, is made here,
    on the one path that still needs it."""
    table = LockTable(0)
    xids = itertools.count(1, 2)

    def one_round():
        writer = next(xids)
        waiter = writer + 1
        tag = LockTag(TagKind.TRANSACTION, 0, writer)
        seq = table.reserve()
        table.transfer(writer, tag, LockMode.EXCLUSIVE, 1, seq)
        blocked, _ = table.acquire(waiter, tag, LockMode.SHARE, 1)
        promoted = table.release_all(writer)
        table.release_all(waiter)
        return blocked, [r.txn - writer for r in promoted]

    assert benchmark(one_round) == (AcquireResult.BLOCKED, [1])


@pytest.mark.parametrize("waiters", WAITERS)
def test_release_in_front_of_exclusive_waiters(benchmark, waiters):
    """Txn 0 holds a tuple lock in EXCLUSIVE and txns 1..N wait for it in
    EXCLUSIVE; txn 0's release promotes txn 1 alone.  Each round times the
    release on a table built afresh, outside the timing."""

    def setup():
        table = LockTable(0)
        for txn in range(waiters + 1):
            table.acquire(txn, TUPLE, LockMode.EXCLUSIVE, 0)
        return (table,), {}

    def one_round(table):
        return [r.txn for r in table.release_all(0)]

    rounds = max(10, 4096 // waiters)
    assert benchmark.pedantic(one_round, setup=setup, rounds=rounds) == [1]
