import copy

import pytest
from hypothesis import example, given, strategies as st

from htapsim.locks import (
    CONFLICT_MASK,
    AcquireResult,
    LockMode,
    LockTable,
    LockTag,
    ProtocolError,
    RequestStatus,
    TagKind,
    conflicts,
)

# The eight modes and their conflict sets, written out independently of the
# implementation so the two can be checked against each other entry by entry.
CONFLICT_TABLE = {
    1: {8},
    2: {7, 8},
    3: {5, 6, 7, 8},
    4: {4, 5, 6, 7, 8},
    5: {3, 4, 6, 7, 8},
    6: {3, 4, 5, 6, 7, 8},
    7: {2, 3, 4, 5, 6, 7, 8},
    8: {1, 2, 3, 4, 5, 6, 7, 8},
}


def rel(seg, name="t1"):
    return LockTag(TagKind.RELATION, seg, name)


def make_table(*txns, seg=0):
    table = LockTable(seg)
    for t in txns:
        table.register_txn(t)
    return table


class TestConflictMatrix:
    def test_all_64_entries(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert conflicts(a, b) == (b in CONFLICT_TABLE[a]), (a, b)

    def test_bitmask_per_mode_matches_table(self):
        # all 64 pairs, and no bit outside levels 1..8
        for a in range(1, 9):
            assert CONFLICT_MASK[a] == sum(1 << b for b in CONFLICT_TABLE[a]), a

    def test_known_pairs(self):
        assert conflicts(LockMode.ACCESS_SHARE, LockMode.ACCESS_EXCLUSIVE)
        assert not conflicts(LockMode.ROW_EXCLUSIVE, LockMode.ROW_EXCLUSIVE)
        assert conflicts(LockMode.ACCESS_EXCLUSIVE, LockMode.ACCESS_EXCLUSIVE)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_symmetry(self, a, b):
        assert conflicts(a, b) == conflicts(b, a)

    def test_share_does_not_self_conflict(self):
        assert not conflicts(LockMode.SHARE, LockMode.SHARE)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            conflicts(0, 5)
        with pytest.raises(ValueError):
            conflicts(3, 9)


class TestAcquire:
    def test_concurrent_row_exclusive_updates(self):
        table = make_table(1, 2)
        assert table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)[0] is AcquireResult.GRANTED
        assert table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 1)[0] is AcquireResult.GRANTED

    def test_blocked_behind_access_exclusive(self):
        table = make_table(1, 4)
        table.acquire(1, rel(0, "t2"), LockMode.ACCESS_EXCLUSIVE, 0)
        result, blockers = table.acquire(4, rel(0, "t2"), LockMode.ROW_EXCLUSIVE, 1)
        assert result is AcquireResult.BLOCKED
        assert [b.txn for b in blockers] == [1]

    def test_reentrant_same_mode(self):
        table = make_table(1)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        assert table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 5)[0] is AcquireResult.GRANTED

    def test_own_holdings_never_conflict(self):
        table = make_table(1)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        assert table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)[0] is AcquireResult.GRANTED

    def test_unknown_txn_is_protocol_error(self):
        table = make_table(1)
        with pytest.raises(ProtocolError):
            table.acquire(99, rel(0), LockMode.ACCESS_SHARE, 0)

    def test_blocked_by_earlier_waiter_only(self):
        # W2 is compatible with the granted set but conflicts with W1 ahead
        # of it; no lock jumping means W2 waits on W1.
        table = make_table(1, 2, 3)
        table.acquire(1, rel(0), LockMode.ACCESS_SHARE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)
        result, blockers = table.acquire(3, rel(0), LockMode.ACCESS_SHARE, 2)
        assert result is AcquireResult.BLOCKED
        assert [b.txn for b in blockers] == [2]

    def test_same_tick_waiters_ordered_by_arrival_not_dxid(self):
        # txn 6 enqueues before txn 2 in the same tick, so 2 waits on 6
        table = make_table(1, 2, 6)
        table.acquire(1, rel(0), LockMode.ACCESS_SHARE, 0)
        table.acquire(6, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)
        result, blockers = table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 1)
        assert result is AcquireResult.BLOCKED
        assert [b.txn for b in blockers] == [6]
        (req,) = [r for r in table.waiting_requests() if r.txn == 2]
        assert [b.txn for b in table.blockers_of(req)] == [6]
        table.check_invariants()


class TestReleaseAll:
    def test_single_waiter_promotion(self):
        table = make_table(1, 2)
        xact = LockTag(TagKind.TRANSACTION, 0, 101)
        table.acquire(1, xact, LockMode.EXCLUSIVE, 0)
        table.acquire(2, xact, LockMode.SHARE, 1)
        promoted = table.release_all(1, 2)
        assert [(r.txn, r.status) for r in promoted] == [(2, RequestStatus.GRANTED)]

    def test_release_of_idle_txn_is_empty_and_idempotent(self):
        table = make_table(1)
        assert table.release_all(1, 0) == []
        assert table.release_all(1, 1) == []

    def test_two_compatible_waiters_both_promoted(self):
        table = make_table(1, 2, 3)
        table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_SHARE, 1)
        table.acquire(3, rel(0), LockMode.ACCESS_SHARE, 2)
        promoted = table.release_all(1, 3)
        assert sorted(r.txn for r in promoted) == [2, 3]
        table.check_invariants()

    def test_promotions_come_in_queue_creation_order(self):
        """Txn 1 requests b before a, the reverse of their queues' creation
        order, and leaves a waiter on each; its release wakes a's first."""
        table = make_table(1, 2, 3, 4, 5)
        a, b = rel(0, "a"), rel(0, "b")
        table.acquire(2, a, LockMode.ACCESS_SHARE, 0)  # creates queue a
        table.acquire(3, b, LockMode.ACCESS_SHARE, 0)  # then queue b
        table.acquire(1, b, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(1, a, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(4, b, LockMode.SHARE, 2)  # waits on txn 1
        table.acquire(5, a, LockMode.SHARE, 2)  # waits on txn 1
        promoted = table.release_all(1, 3)
        assert [(r.txn, r.tag) for r in promoted] == [(5, a), (4, b)]
        table.check_invariants()

    def test_compatible_waiter_promoted_past_blocked_waiter(self):
        table = make_table(1, 2, 3, 4)
        table.acquire(1, rel(0), LockMode.SHARE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)
        table.acquire(3, rel(0), LockMode.ROW_EXCLUSIVE, 2)  # conflicts with 1
        table.acquire(4, rel(0), LockMode.ACCESS_SHARE, 3)  # waits on 2 only
        promoted = table.release_all(2, 4)
        assert [r.txn for r in promoted] == [4]
        (still,) = table.waiting_requests()
        assert still.txn == 3
        assert [b.txn for b in table.blockers_of(still)] == [1]
        table.check_invariants()


class TestReleaseTupleLock:
    def tuple_tag(self, seg=1, slot=0):
        return LockTag(TagKind.TUPLE, seg, ("t1", slot))

    def test_waiter_promoted(self):
        table = make_table(1, 2, seg=1)
        tag = self.tuple_tag()
        table.acquire(2, tag, LockMode.EXCLUSIVE, 0)
        table.acquire(1, tag, LockMode.EXCLUSIVE, 1)
        promoted = table.release_tuple_lock(2, tag)
        assert [r.txn for r in promoted] == [1]

    def test_empty_queue_release(self):
        table = make_table(1, seg=1)
        tag = self.tuple_tag()
        table.acquire(1, tag, LockMode.EXCLUSIVE, 0)
        assert table.release_tuple_lock(1, tag) == []

    def test_conflicting_waiters_exactly_one_promoted(self):
        table = make_table(1, 2, 3, seg=1)
        tag = self.tuple_tag()
        table.acquire(1, tag, LockMode.EXCLUSIVE, 0)
        table.acquire(2, tag, LockMode.EXCLUSIVE, 1)
        table.acquire(3, tag, LockMode.EXCLUSIVE, 2)
        promoted = table.release_tuple_lock(1, tag)
        assert [r.txn for r in promoted] == [2]
        table.check_invariants()

    def test_not_held_is_protocol_error(self):
        table = make_table(1, seg=1)
        with pytest.raises(ProtocolError):
            table.release_tuple_lock(1, self.tuple_tag())

    def test_relation_tag_rejected(self):
        table = make_table(1)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        with pytest.raises(ProtocolError):
            table.release_tuple_lock(1, rel(0))


def counting(monkeypatch, name):
    """Count the calls of LockTable.<name> made from now on."""
    calls = []
    original = getattr(LockTable, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(LockTable, name, counted)
    return calls


class TestModeMasks:
    """With many compatible holders on one tag, the per-tag mode masks let a
    compatible request and a release skip the walk over the holders."""

    HOLDERS = 256

    def crowded(self):
        table = make_table(*range(1, self.HOLDERS + 3))
        for txn in range(1, self.HOLDERS + 1):
            table.acquire(txn, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        return table

    def test_compatible_acquire_skips_the_blocking_rule(self, monkeypatch):
        table = self.crowded()
        walks = counting(monkeypatch, "_blockers_for")
        result, _ = table.acquire(self.HOLDERS + 1, rel(0), LockMode.ROW_EXCLUSIVE, 1)
        assert result is AcquireResult.GRANTED
        assert walks == []
        # a conflicting request is still decided by the rule
        result, blockers = table.acquire(self.HOLDERS + 2, rel(0), LockMode.SHARE, 2)
        assert result is AcquireResult.BLOCKED
        assert len(blockers) == self.HOLDERS + 1
        assert len(walks) == 1
        table.check_invariants()

    def test_release_with_nobody_waiting_skips_reevaluation(self, monkeypatch):
        table = self.crowded()
        reevaluations = counting(monkeypatch, "_reevaluate")
        assert table.release_all(1, 1) == []
        assert reevaluations == []
        table.acquire(self.HOLDERS + 2, rel(0), LockMode.SHARE, 2)
        assert table.release_all(2, 3) == []  # the waiter still waits on 3..
        assert len(reevaluations) == 1
        table.check_invariants()


def blocked_by(queue, i, txn, mode):
    """Reference blocking rule over (txn, mode, status) entries in arrival
    order: entry i conflicts with a granted entry of another txn, or with an
    earlier entry of another txn that is still waiting."""
    return any(
        t != txn and conflicts(m, mode) and (s == "granted" or j < i)
        for j, (t, m, s) in enumerate(queue)
    )


def promotion_oracle(residual):
    """Reference queue re-evaluation: walk the whole residual queue in
    arrival order, promoting each waiter the blocking rule no longer holds
    for; a waiter promoted earlier in the walk counts as granted."""
    queue = list(residual)
    promoted = []
    for i, (txn, mode, status) in enumerate(queue):
        if status == "waiting" and not blocked_by(queue, i, txn, mode):
            queue[i] = (txn, mode, "granted")
            promoted.append(txn)
    return promoted


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 8)),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 5),
)
# a compatible waiter queued behind a blocked one: txn 4 waits only on txn 2
@example(requests=[(1, 5), (2, 8), (3, 3), (4, 1)], victim=2)
def test_release_matches_promotion_oracle(requests, victim):
    """Queue re-evaluation after release_all agrees with the exhaustive
    conflict-matrix walk over the residual queue."""
    table = LockTable(0)
    for t in range(1, 6):
        table.register_txn(t)
    tag = rel(0)
    seen = set()
    queue_shadow = []  # (txn, mode, status) in grant-queue order
    for tick, (txn, mode) in enumerate(requests):
        if txn in seen:
            continue  # keep the shadow model simple: one request per txn
        seen.add(txn)
        result, _ = table.acquire(txn, tag, LockMode(mode), tick)
        blocked = blocked_by(queue_shadow, len(queue_shadow), txn, mode)
        assert (result is AcquireResult.BLOCKED) == blocked
        queue_shadow.append((txn, mode, "waiting" if blocked else "granted"))
    residual = [(t, m, s) for t, m, s in queue_shadow if t != victim]
    expected = promotion_oracle(residual)
    promoted = table.release_all(victim, 99)
    assert [r.txn for r in promoted] == expected
    table.check_invariants()


def test_no_conflicting_grants_invariant_under_random_traffic():
    import random

    rng = random.Random(7)
    table = LockTable(0)
    for t in range(1, 9):
        table.register_txn(t)
    tags = [rel(0, f"t{i}") for i in range(3)]
    held = {t: set() for t in range(1, 9)}
    waiting = set()
    for tick in range(300):
        txn = rng.randrange(1, 9)
        if rng.random() < 0.3:
            table.release_all(txn, tick)
            table.register_txn(txn)
            held[txn].clear()
            waiting.discard(txn)
            table.check_invariants()
            continue
        if txn in waiting:
            continue
        tag = rng.choice(tags)
        mode = LockMode(rng.randrange(1, 9))
        if (tag, mode) in held[txn]:
            continue
        result, _ = table.acquire(txn, tag, mode, tick)
        if result is AcquireResult.BLOCKED:
            waiting.add(txn)
        else:
            held[txn].add((tag, mode))
        table.check_invariants()


def reference_release_all(table, txn):
    """release_all as a walk over every queue on the segment, in dict order,
    re-evaluating every queue the transaction left."""
    promoted = []
    for queue in table._queues.values():
        mine = [r for r in queue.requests.values() if r.txn == txn]
        if mine:
            for r in mine:
                queue.remove(r)
            promoted.extend(table._reevaluate(queue))
    return promoted


def reference_locks_of(table, txn):
    return [
        r
        for queue in table._queues.values()
        for r in queue.requests.values()
        if r.txn == txn
    ]


def as_keys(requests):
    return [(r.txn, r.tag, r.mode, r.seq, r.status) for r in requests]


lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "acquire", "release_all", "release_tuple"]),
        st.integers(1, 5),  # txn
        st.integers(0, 3),  # tag: relations t0, t1 or tuples (t0, 0), (t0, 1)
        st.integers(1, 8),  # mode
    ),
    max_size=50,
)


@given(lock_ops)
def test_per_transaction_index_matches_walk_over_every_queue(ops):
    """release_all promotes the same requests in the same order as a walk
    over every queue, and locks_of lists the same requests, while queues are
    created, emptied and created again in a new order."""
    table = LockTable(0)
    for t in range(1, 6):
        table.register_txn(t)
    tags = [
        rel(0, "t0"),
        rel(0, "t1"),
        LockTag(TagKind.TUPLE, 0, ("t0", 0)),
        LockTag(TagKind.TUPLE, 0, ("t0", 1)),
    ]
    for tick, (op, txn, tag_index, mode) in enumerate(ops):
        tag = tags[tag_index]
        mine = table.locks_of(txn)
        assert as_keys(mine) == as_keys(reference_locks_of(table, txn))
        assert table.has_requests(txn) == bool(mine)
        if op == "acquire":
            if any(r.status is RequestStatus.WAITING for r in mine):
                continue  # a blocked transaction issues nothing more
            table.acquire(txn, tag, LockMode(mode), tick)
        elif op == "release_all":
            reference = copy.deepcopy(table)
            expected = reference_release_all(reference, txn)
            assert as_keys(table.release_all(txn, tick)) == as_keys(expected)
            table.register_txn(txn)
        elif tag.kind is TagKind.TUPLE and any(
            r.tag == tag and r.status is RequestStatus.GRANTED for r in mine
        ):
            table.release_tuple_lock(txn, tag)
        table.check_invariants()


def test_invariant_fixture_stops_at_first_bad_grant(checked_lock_tables, monkeypatch):
    """With the checking fixture on, a grant-rule bug fails at the acquire
    that makes the bad state."""
    monkeypatch.setattr(LockTable, "_blockers_for", lambda self, queue, req: [])
    table = make_table(1, 2)
    table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
    with pytest.raises(AssertionError, match="conflicting grants"):
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
