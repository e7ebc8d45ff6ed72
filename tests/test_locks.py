from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from htapsim.locks import (
    CONFLICT_MASK,
    AcquireResult,
    LockMode,
    LockQueue,
    LockRequest,
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
        table = LockTable(0)
        assert table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)[0] is AcquireResult.GRANTED
        assert table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 1)[0] is AcquireResult.GRANTED

    def test_blocked_behind_access_exclusive(self):
        table = LockTable(0)
        table.acquire(1, rel(0, "t2"), LockMode.ACCESS_EXCLUSIVE, 0)
        result, blockers = table.acquire(4, rel(0, "t2"), LockMode.ROW_EXCLUSIVE, 1)
        assert result is AcquireResult.BLOCKED
        assert [b.txn for b in blockers] == [1]

    def test_reentrant_same_mode(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        assert table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 5)[0] is AcquireResult.GRANTED

    def test_own_holdings_never_conflict(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        assert table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)[0] is AcquireResult.GRANTED

    def test_tag_of_another_segment_is_protocol_error(self):
        table = LockTable(0)
        with pytest.raises(ProtocolError, match="does not belong to segment 0"):
            table.acquire(1, rel(1), LockMode.ACCESS_SHARE, 0)

    def test_second_wait_in_the_same_mode_is_protocol_error(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
        assert table.acquire(2, rel(0), LockMode.SHARE, 1)[0] is AcquireResult.BLOCKED
        with pytest.raises(ProtocolError, match="txn 2 already waiting"):
            table.acquire(2, rel(0), LockMode.SHARE, 2)

    def test_blocked_by_earlier_waiter_only(self):
        # W2 is compatible with the granted set but conflicts with W1 ahead
        # of it; no lock jumping means W2 waits on W1.
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ACCESS_SHARE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)
        result, blockers = table.acquire(3, rel(0), LockMode.ACCESS_SHARE, 2)
        assert result is AcquireResult.BLOCKED
        assert [b.txn for b in blockers] == [2]

    def test_same_tick_waiters_ordered_by_arrival_not_dxid(self):
        # txn 6 enqueues before txn 2 in the same tick, so 2 waits on 6
        table = LockTable(0)
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
        table = LockTable(0)
        xact = LockTag(TagKind.TRANSACTION, 0, 101)
        table.acquire(1, xact, LockMode.EXCLUSIVE, 0)
        table.acquire(2, xact, LockMode.SHARE, 1)
        promoted = table.release_all(1)
        assert [(r.txn, r.status) for r in promoted] == [(2, RequestStatus.GRANTED)]

    def test_release_of_idle_txn_is_empty_and_idempotent(self):
        table = LockTable(0)
        assert table.release_all(1) == []
        assert table.release_all(1) == []

    def test_two_compatible_waiters_both_promoted(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_SHARE, 1)
        table.acquire(3, rel(0), LockMode.ACCESS_SHARE, 2)
        promoted = table.release_all(1)
        assert sorted(r.txn for r in promoted) == [2, 3]
        table.check_invariants()

    def test_promotions_come_in_queue_creation_order(self):
        """Txn 1 requests b before a, the reverse of their queues' creation
        order, and leaves a waiter on each; its release wakes a's first."""
        table = LockTable(0)
        a, b = rel(0, "a"), rel(0, "b")
        table.acquire(2, a, LockMode.ACCESS_SHARE, 0)  # creates queue a
        table.acquire(3, b, LockMode.ACCESS_SHARE, 0)  # then queue b
        table.acquire(1, b, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(1, a, LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(4, b, LockMode.SHARE, 2)  # waits on txn 1
        table.acquire(5, a, LockMode.SHARE, 2)  # waits on txn 1
        promoted = table.release_all(1)
        assert [(r.txn, r.tag) for r in promoted] == [(5, a), (4, b)]
        table.check_invariants()

    def test_compatible_waiter_promoted_past_blocked_waiter(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.SHARE, 0)
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 1)
        table.acquire(3, rel(0), LockMode.ROW_EXCLUSIVE, 2)  # conflicts with 1
        table.acquire(4, rel(0), LockMode.ACCESS_SHARE, 3)  # waits on 2 only
        promoted = table.release_all(2)
        assert [r.txn for r in promoted] == [4]
        (still,) = table.waiting_requests()
        assert still.txn == 3
        assert [b.txn for b in table.blockers_of(still)] == [1]
        table.check_invariants()


class TestReleaseTupleLock:
    def tuple_tag(self, seg=1, slot=0):
        return LockTag(TagKind.TUPLE, seg, ("t1", slot))

    def test_waiter_promoted(self):
        table = LockTable(1)
        tag = self.tuple_tag()
        table.acquire(2, tag, LockMode.EXCLUSIVE, 0)
        table.acquire(1, tag, LockMode.EXCLUSIVE, 1)
        promoted = table.release_tuple_lock(2, tag)
        assert [r.txn for r in promoted] == [1]

    def test_empty_queue_release(self):
        table = LockTable(1)
        tag = self.tuple_tag()
        table.acquire(1, tag, LockMode.EXCLUSIVE, 0)
        assert table.release_tuple_lock(1, tag) == []

    def test_conflicting_waiters_exactly_one_promoted(self):
        table = LockTable(1)
        tag = self.tuple_tag()
        table.acquire(1, tag, LockMode.EXCLUSIVE, 0)
        table.acquire(2, tag, LockMode.EXCLUSIVE, 1)
        table.acquire(3, tag, LockMode.EXCLUSIVE, 2)
        promoted = table.release_tuple_lock(1, tag)
        assert [r.txn for r in promoted] == [2]
        table.check_invariants()

    def test_not_held_is_protocol_error(self):
        table = LockTable(1)
        with pytest.raises(ProtocolError):
            table.release_tuple_lock(1, self.tuple_tag())

    def test_held_and_waiting_is_protocol_error(self):
        """A transaction that holds a tuple tag and also waits on it may not
        release it: the simulator never gets there, and the table is left as
        it was."""
        table = LockTable(1)
        tag = self.tuple_tag()
        table.acquire(1, tag, LockMode.SHARE, 0)
        table.acquire(2, tag, LockMode.SHARE, 1)
        result, _ = table.acquire(1, tag, LockMode.EXCLUSIVE, 2)
        assert result is AcquireResult.BLOCKED
        before = [(r.txn, r.mode, r.status) for r in table.locks_of(1)]
        with pytest.raises(ProtocolError, match="while waiting"):
            table.release_tuple_lock(1, tag)
        assert [(r.txn, r.mode, r.status) for r in table.locks_of(1)] == before
        table.check_invariants()

    def test_relation_tag_rejected(self):
        table = LockTable(0)
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


class TestStrongCount:
    """With many weak holders on one tag and no strong request counted, a
    weak request and a release skip the walk over the holders."""

    HOLDERS = 256

    def crowded(self):
        table = LockTable(0)
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
        assert table.release_all(1) == []
        assert reevaluations == []
        table.acquire(self.HOLDERS + 2, rel(0), LockMode.SHARE, 2)
        assert table.release_all(2) == []  # the waiter still waits on 3..
        assert len(reevaluations) == 1
        table.check_invariants()


class TestOneRecord:
    """Every tag with requests has one queue, which keeps its `born` while
    it has requests and is dropped when it has none."""

    def test_born_survives_its_creators_release(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        table.release_all(1)
        result, blockers = table.acquire(3, rel(0), LockMode.SHARE, 2)
        assert result is AcquireResult.BLOCKED
        assert [(b.txn, b.seq) for b in blockers] == [(2, 1)]
        (queue,) = table._queues.values()
        assert queue.born == 0
        assert list(queue.requests) == [1, 2]
        assert (queue.strong, queue.waiting) == (1, 1)
        table.check_invariants()

    def test_a_queue_lasts_until_its_tag_is_empty(self):
        table = LockTable(0)
        xact = LockTag(TagKind.TRANSACTION, 0, 7)
        table.acquire(1, xact, LockMode.EXCLUSIVE, 0)
        table.acquire(2, xact, LockMode.SHARE, 1)
        assert [r.txn for r in table.release_all(1)] == [2]
        (queue,) = table._queues.values()
        assert (queue.born, queue.strong, queue.waiting) == (0, 1, 0)
        table.release_all(2)
        assert table._queues == {}
        table.acquire(2, xact, LockMode.SHARE, 4)
        assert table._queues[xact].born == 2
        table.check_invariants()

    def test_locks_of_lists_tags_by_born(self):
        table = LockTable(0)
        xact = LockTag(TagKind.TRANSACTION, 0, 7)
        for txn in (1, 2, 3):
            table.acquire(txn, rel(0), LockMode(txn), 0)
        table.acquire(1, xact, LockMode.EXCLUSIVE, 0)
        assert [r.seq for r in table.locks_of(1)] == [0, 3]
        assert [(q.strong, q.waiting) for q in table._queues.values()] == [
            (0, 0),
            (1, 0),
        ]
        table.check_invariants()


class TestTransfer:
    """A writer's lock on its own xid is held outside the table with its
    arrival number reserved (`reserve`), and filed under that number when
    its first waiter comes (`transfer`)."""

    XACT = LockTag(TagKind.TRANSACTION, 0, 7)
    TUPLE = LockTag(TagKind.TUPLE, 0, ("t1", 0))

    def test_a_transferred_lock_keeps_its_reserved_number(self):
        table = LockTable(0)
        table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
        seq = table.reserve()
        table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 1)
        table.acquire(1, self.TUPLE, LockMode.EXCLUSIVE, 1)
        table.transfer(1, self.XACT, LockMode.EXCLUSIVE, 2, seq)
        result, blockers = table.acquire(2, self.XACT, LockMode.SHARE, 2)
        assert (result, [(b.txn, b.seq) for b in blockers]) == (AcquireResult.BLOCKED, [(1, 1)])
        assert table._queues[self.XACT].born == seq == 1
        assert [(r.tag, r.seq) for r in table.locks_of(1)] == [
            (rel(0), 0),
            (self.XACT, 1),
            (self.TUPLE, 3),
        ]
        table.check_invariants()

    def test_a_release_wakes_the_transferred_queue_by_its_reserved_number(self):
        """Txn 1's tuple lock is made after its xid lock's reservation but
        filed before the transfer; txn 1's end wakes the xid lock's waiter
        first, as if the lock had been taken at the reservation."""
        table = LockTable(0)
        seq = table.reserve()
        table.acquire(1, self.TUPLE, LockMode.EXCLUSIVE, 0)
        table.acquire(2, self.TUPLE, LockMode.EXCLUSIVE, 1)
        table.transfer(1, self.XACT, LockMode.EXCLUSIVE, 2, seq)
        table.acquire(3, self.XACT, LockMode.SHARE, 2)
        assert [(r.txn, r.tag) for r in table.release_all(1)] == [
            (3, self.XACT),
            (2, self.TUPLE),
        ]
        table.check_invariants()

    def test_a_holder_with_no_other_request_here_is_filed_by_the_transfer(self):
        """On a table where the writer has made no request, the transfer is
        its first: `locks_of` lists the filed lock, and `release_all` ends
        it and wakes its waiter."""
        table = LockTable(0)
        seq = table.reserve()
        table.transfer(1, self.XACT, LockMode.EXCLUSIVE, 0, seq)
        assert [(r.tag, r.mode, r.seq) for r in table.locks_of(1)] == [
            (self.XACT, LockMode.EXCLUSIVE, seq)
        ]
        result, _ = table.acquire(2, self.XACT, LockMode.SHARE, 1)
        assert result is AcquireResult.BLOCKED
        assert [(r.txn, r.tag) for r in table.release_all(1)] == [(2, self.XACT)]
        assert not table.has_requests(1)
        table.check_invariants()

    def test_transfer_onto_a_tag_with_requests_is_refused(self):
        table = LockTable(0)
        seq = table.reserve()
        table.acquire(2, self.XACT, LockMode.SHARE, 0)
        with pytest.raises(ProtocolError):
            table.transfer(1, self.XACT, LockMode.EXCLUSIVE, 1, seq)
        with pytest.raises(ProtocolError):
            table.transfer(1, LockTag(TagKind.TRANSACTION, 1, 7), LockMode.EXCLUSIVE, 1, seq)
        assert not table.has_requests(1)
        table.check_invariants()


def strong_table():
    """Txns 1 and 2 hold t1 in ROW_EXCLUSIVE, txn 1 holds t2 in SHARE and
    txn 2 waits for t2 in EXCLUSIVE."""
    table = LockTable(0)
    table.acquire(1, rel(0), LockMode.ROW_EXCLUSIVE, 0)
    table.acquire(2, rel(0), LockMode.ROW_EXCLUSIVE, 0)
    table.acquire(1, rel(0, "t2"), LockMode.SHARE, 0)
    table.acquire(2, rel(0, "t2"), LockMode.EXCLUSIVE, 0)
    return table


def wrong_strong(table):
    table._queues[rel(0)].strong = 1


def wrong_waiting(table):
    table._queues[rel(0, "t2")].waiting = 0


def empty_kept(table):
    tag = rel(0, "t3")
    req = LockRequest(1, tag, LockMode.ACCESS_SHARE, RequestStatus.GRANTED, 0, 4)
    table._queues[tag] = LockQueue(req)
    del table._queues[tag].requests[4]


def missing_from_index(table):
    del table._own[2][rel(0)]


def shared_birth(table):
    table._queues[rel(0, "t2")].born = 0


def born_late(table):
    table._queues[rel(0, "t2")].born = 3


def misfiled(table):
    table._queues[rel(0)].requests[1].seq = 7


def out_of_order(table):
    queue = table._queues[rel(0)]
    queue.requests = dict(reversed(queue.requests.items()))


def two_waits(table):
    # txn 2, already waiting on t2, waits on a tuple too, as no part could
    tup = LockTag(TagKind.TUPLE, 0, ("t2", 0))
    table.acquire(1, tup, LockMode.EXCLUSIVE, 0)
    table.acquire(2, tup, LockMode.EXCLUSIVE, 0)


def waiter_without_blocker(table):
    # SHARE is as strong as EXCLUSIVE, so the counts still hold
    (waiter,) = table.waiting_requests()
    waiter.mode = LockMode.SHARE


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (wrong_strong, "counts on relation:t1@seg0 are strong=1"),
        (wrong_waiting, "counts on relation:t2@seg0 are strong=2 waiting=0"),
        (empty_kept, "empty queue kept for relation:t3@seg0"),
        (missing_from_index, "per-transaction index"),
        (shared_birth, "share a birth number"),
        (born_late, "born after its requests"),
        (misfiled, "filed under relation:t1@seg0 as 1"),
        (out_of_order, "not in arrival order"),
        (waiter_without_blocker, "waiter without blocker on relation:t2@seg0"),
        (two_waits, "txn 2 waits twice on segment 0"),
    ],
)
def test_check_invariants_rejects_bad_record_state(corrupt, message):
    table = strong_table()
    table.check_invariants()
    corrupt(table)
    with pytest.raises(AssertionError, match=message):
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
    promoted = table.release_all(victim)
    assert [r.txn for r in promoted] == expected
    table.check_invariants()


def test_no_conflicting_grants_invariant_under_random_traffic():
    import random

    rng = random.Random(7)
    table = LockTable(0)
    tags = [rel(0, f"t{i}") for i in range(3)]
    held = {t: set() for t in range(1, 9)}
    waiting = set()
    for tick in range(300):
        txn = rng.randrange(1, 9)
        if rng.random() < 0.3:
            table.release_all(txn)
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


def records(table):
    """Every tag's requests, as tag -> {seq: request}."""
    return {tag: queue.requests for tag, queue in table._queues.items()}


def reference_release_all(table, txn, born):
    """release_all as a walk over every tag on the segment in the order of
    `born` (when each tag got its first request since it was last empty).
    On each tag the transaction had requests on, its requests are dropped
    and the rest re-evaluated by `promotion_oracle`.  Reads the table and
    changes nothing; returns the promoted requests as granted copies."""
    promoted = []
    for tag, requests in sorted(records(table).items(), key=lambda item: born[item[0]]):
        rest = [r for r in requests.values() if r.txn != txn]
        if len(rest) == len(requests):
            continue
        residual = [(r.txn, r.mode, r.status.value) for r in rest]
        for woken in promotion_oracle(residual):
            # a blocked transaction issues nothing more: one waiter per txn
            (r,) = [r for r in rest if r.txn == woken and r.status is RequestStatus.WAITING]
            promoted.append(replace(r, status=RequestStatus.GRANTED))
    return promoted


def reference_locks_of(table, txn, born):
    return [
        r
        for tag, requests in sorted(records(table).items(), key=lambda item: born[item[0]])
        for r in requests.values()
        if r.txn == txn
    ]


def reference_blockers(table, txn, tag, mode):
    """The blocking rule over the tag's requests in arrival order, for a new
    request of `txn` in `mode`: conflicting grants of other transactions,
    then the first conflicting waiter of another transaction."""
    others = [
        r
        for r in records(table).get(tag, {}).values()
        if r.txn != txn and conflicts(r.mode, mode)
    ]
    granted = [r for r in others if r.status is RequestStatus.GRANTED]
    waiting = [r for r in others if r.status is RequestStatus.WAITING]
    return granted + waiting[:1]


def as_keys(requests):
    return [(r.txn, r.tag, r.mode, r.seq, r.status) for r in requests]


lock_op = st.tuples(
    st.sampled_from(["acquire", "acquire", "release_all", "release_tuple"]),
    st.integers(1, 5),  # txn
    st.integers(0, 3),  # tag: relations t0, t1 or tuples (t0, 0), (t0, 1)
    st.integers(1, 8),  # mode
)


@st.composite
def weak_waiters_behind_strong(draw):
    """One transaction takes a tag in ACCESS_EXCLUSIVE, two or three others
    queue behind it in modes 1-3, compatible with each other, and the holder
    releases: the traffic in which one release promotes several waiters,
    which uniform draws of `lock_op` rarely make."""
    holder, *others = draw(st.permutations(range(1, 6)))
    tag = draw(st.integers(0, 3))
    waiters = others[: draw(st.integers(2, 3))]
    modes = [draw(st.integers(1, 3)) for _ in waiters]
    return (
        [("acquire", holder, tag, 8)]
        + [("acquire", txn, tag, mode) for txn, mode in zip(waiters, modes)]
        + [("release_all", holder, tag, 8)]
    )


lock_ops = st.lists(
    st.one_of(lock_op.map(lambda op: [op]), weak_waiters_behind_strong()), max_size=25
).map(lambda groups: [op for group in groups for op in group])


@given(lock_ops)
# txn 1 takes t1 and then t0, against their queues' creation order, and txns
# 4 and 5 wait on it on both: its release must wake t0's waiter first
@example(
    ops=[
        ("acquire", 2, 0, 1),
        ("acquire", 3, 1, 1),
        ("acquire", 1, 1, 3),
        ("acquire", 1, 0, 3),
        ("acquire", 4, 1, 5),
        ("acquire", 5, 0, 5),
        ("release_all", 1, 0, 1),
    ]
)
# txn 4's ACCESS_EXCLUSIVE is the first strong request on t0, beside three
# ROW_EXCLUSIVE holders, and waits on all three
@example(
    ops=[
        ("acquire", 1, 0, 3),
        ("acquire", 2, 0, 3),
        ("acquire", 3, 0, 3),
        ("acquire", 4, 0, 8),
        ("release_all", 1, 0, 1),
        ("release_all", 3, 0, 1),
        ("release_all", 2, 0, 1),
    ]
)
# txn 1 holds t0 and then a tuple; the tuple's queue is made first (txn 2
# waits there), then t0's (txn 3 waits there).  t0 was born first, so txn 1's
# release must promote txn 3 before txn 2
@example(
    ops=[
        ("acquire", 1, 0, 3),
        ("acquire", 1, 2, 7),
        ("acquire", 2, 2, 7),
        ("acquire", 3, 0, 8),
        ("release_all", 1, 0, 1),
    ]
)
# txns 2 and 3 both wait on txn 1's ACCESS_EXCLUSIVE on t0 and not on each
# other: txn 1's release must promote both
@example(
    ops=[
        ("acquire", 1, 0, 8),
        ("acquire", 2, 0, 1),
        ("acquire", 3, 0, 1),
        ("release_all", 1, 0, 1),
    ]
)
# txn 3 waits on tuple t0:0 behind txn 2 and would then release it: a
# waiting transaction's part is parked, so it releases nothing but all
@example(
    ops=[
        ("acquire", 1, 0, 1),
        ("acquire", 1, 2, 8),
        ("acquire", 2, 2, 1),
        ("acquire", 3, 2, 1),
        ("release_all", 1, 2, 8),
        ("acquire", 1, 2, 3),
        ("acquire", 3, 2, 5),
        ("release_tuple", 3, 2, 1),
    ]
)
def test_per_transaction_index_matches_walk_over_every_queue(ops):
    """release_all promotes the same requests in the same order as a walk
    over every tag, and locks_of lists the same requests, while tags get
    weak and strong requests and waiters, are emptied and get requests again
    in a new order.  Each acquire's blockers are those of the blocking rule over the
    tag's requests."""
    table = LockTable(0)
    tags = [
        rel(0, "t0"),
        rel(0, "t1"),
        LockTag(TagKind.TUPLE, 0, ("t0", 0)),
        LockTag(TagKind.TUPLE, 0, ("t0", 1)),
    ]
    born = {}  # tag -> arrival number of its first request since it was empty
    for tick, (op, txn, tag_index, mode) in enumerate(ops):
        tag = tags[tag_index]
        mine = table.locks_of(txn)
        assert as_keys(mine) == as_keys(reference_locks_of(table, txn, born))
        assert table.has_requests(txn) == bool(mine)
        if op != "release_all" and any(r.status is RequestStatus.WAITING for r in mine):
            continue  # a blocked transaction issues nothing more but its end
        if op == "acquire":
            mode = LockMode(mode)
            if any(r.tag == tag and r.mode == mode for r in mine):
                expected = []  # an idempotent re-grant
            else:
                expected = reference_blockers(table, txn, tag, mode)
            born.setdefault(tag, table._next_seq)
            _, blockers = table.acquire(txn, tag, mode, tick)
            assert as_keys(blockers) == as_keys(expected)
        elif op == "release_all":
            expected = reference_release_all(table, txn, born)
            assert as_keys(table.release_all(txn)) == as_keys(expected)
        elif tag.kind is TagKind.TUPLE and any(
            r.tag == tag and r.status is RequestStatus.GRANTED for r in mine
        ):
            table.release_tuple_lock(txn, tag)
        for emptied in born.keys() - records(table).keys():
            del born[emptied]
        table.check_invariants()


def test_invariant_fixture_stops_at_first_bad_grant(checked_lock_tables, monkeypatch):
    """With the checking fixture on, a grant-rule bug fails at the acquire
    that makes the bad state."""
    monkeypatch.setattr(LockTable, "_blockers_for", lambda self, queue, req: [])
    table = LockTable(0)
    table.acquire(1, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
    with pytest.raises(AssertionError, match="conflicting grants"):
        table.acquire(2, rel(0), LockMode.ACCESS_EXCLUSIVE, 0)
