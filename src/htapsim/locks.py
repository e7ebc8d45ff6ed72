"""Per-segment object lock service: 8 lock modes, conflict matrix, arrival-order queues.

Each segment (the coordinator counts as segment -1) runs one LockTable.
Wait-for edges are derived from the tables by the wait-graph module, so the
lock table records, for every waiting request, which holders block it.

Every tag with requests has one record, a LockQueue.  Most requests meet no
conflict: concurrent updaters all take ROW_EXCLUSIVE on a relation.  As in
PostgreSQL's lock.c (FastPathStrongRelationLocks,
ConflictsWithRelationFastPath), each queue counts its strong requests, those
in modes above ROW_EXCLUSIVE; while that count is 0 a weak request is granted
without the blocking rule's walk.  The count is a pre-check in front of the
rule, not a second rule.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from operator import attrgetter
from typing import NamedTuple


class ProtocolError(Exception):
    """Raised when a lock operation violates its protocol preconditions."""


class LockMode(IntEnum):
    ACCESS_SHARE = 1
    ROW_SHARE = 2
    ROW_EXCLUSIVE = 3
    SHARE_UPDATE_EXCLUSIVE = 4
    SHARE = 5
    SHARE_ROW_EXCLUSIVE = 6
    EXCLUSIVE = 7
    ACCESS_EXCLUSIVE = 8


# Conflict sets by lock level.  Symmetric by construction: level a conflicts
# with level b iff b is listed under a (and then a is listed under b).
_CONFLICT_LEVELS = {
    1: frozenset({8}),
    2: frozenset({7, 8}),
    3: frozenset({5, 6, 7, 8}),
    4: frozenset({4, 5, 6, 7, 8}),
    5: frozenset({3, 4, 6, 7, 8}),
    6: frozenset({3, 4, 5, 6, 7, 8}),
    7: frozenset({2, 3, 4, 5, 6, 7, 8}),
    8: frozenset({1, 2, 3, 4, 5, 6, 7, 8}),
}

# The same table as one bitmask per level, indexed by level (entry 0 unused):
# bit b of CONFLICT_MASK[a] is set iff level a conflicts with level b.
CONFLICT_MASK = (0,) + tuple(
    sum(1 << b for b in _CONFLICT_LEVELS[a]) for a in range(1, 9)
)


def conflicts(a: LockMode | int, b: LockMode | int) -> bool:
    """True iff modes a and b cannot be granted concurrently to different txns."""
    a, b = int(a), int(b)
    if not (1 <= a <= 8 and 1 <= b <= 8):
        raise ValueError(f"lock levels must be in 1..8, got {a}, {b}")
    return bool(CONFLICT_MASK[a] >> b & 1)


class TagKind(Enum):
    RELATION = "relation"
    TUPLE = "tuple"
    TRANSACTION = "transaction"

    # Members are singletons, so hashing by identity is exact, and it runs
    # in C where Enum.__hash__ hashes the member name in Python.
    __hash__ = object.__hash__


class LockTag(NamedTuple):
    """Identity of a lockable object on one segment.

    `obj` is a relation name, a tuple address (table, slot), or a local xid.
    A tuple, so that hashing and equality run in C.
    """

    kind: TagKind
    segment: int
    obj: object

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.obj}@seg{self.segment}"


class RequestStatus(Enum):
    GRANTED = "granted"
    WAITING = "waiting"


@dataclass(slots=True)
class LockRequest:
    txn: int  # distributed xid
    tag: LockTag
    mode: LockMode
    status: RequestStatus
    enqueue_tick: int
    # Arrival number within the owning LockTable.  Queue order is arrival
    # order.  Ticks cannot stand in for it: many requests arrive in one tick,
    # and ordering those by dxid would let a later arrival overtake an
    # earlier one.
    seq: int = 0


class AcquireResult(Enum):
    GRANTED = "granted"
    BLOCKED = "blocked"


# The hot paths read members as module constants: reading one off its Enum
# class costs several times as much as reading a global.
_GRANTED, _WAITING = RequestStatus.GRANTED, RequestStatus.WAITING
_ACQUIRED, _BLOCKED = AcquireResult.GRANTED, AcquireResult.BLOCKED

# Modes ACCESS_SHARE..ROW_EXCLUSIVE never conflict with one another; a mode
# above it is strong, as in lock.c's ConflictsWithRelationFastPath.
_WEAK = LockMode.ROW_EXCLUSIVE


class LockQueue:
    """One tag's requests, like PostgreSQL's LOCK.

    `requests` maps arrival number to request, so it iterates in arrival
    order and drops any request in O(1).  `strong` counts the requests,
    granted or waiting, in modes above ROW_EXCLUSIVE, and `waiting` the
    waiting requests.  `born` is the arrival number of the tag's first
    request since the tag was last empty.
    """

    __slots__ = ("born", "requests", "strong", "waiting")

    def __init__(self, req: LockRequest):
        self.born = req.seq
        self.requests = {req.seq: req}
        self.strong = 1 if req.mode > _WEAK else 0
        self.waiting = 0


_born = attrgetter("born")


@dataclass
class LockTable:
    """Serialized lock state machine for a single segment.

    One rule decides every grant, as in PostgreSQL's ProcLockWakeup: a
    request is blocked iff it conflicts with a granted request of another
    transaction, or with an earlier request of another transaction that is
    still waiting (no lock jumping).  A waiter compatible with both is granted
    even when a blocked waiter sits ahead of it.  Requests are numbered by the
    table's arrival sequence.

    Every tag with requests has one LockQueue in `_queues`, made by its first
    request since it was last empty and dropped when it is empty again.  Most
    requests meet no conflict: concurrent updaters all take ROW_EXCLUSIVE on
    a relation, and a writer's lock on its own xid is seldom waited on.  As
    PostgreSQL lets a weak relation lock skip the shared lock table while no
    strong lock is counted on the relation (FastPathStrongRelationLocks and
    ConflictsWithRelationFastPath in lock.c), each queue counts its requests
    in modes above ROW_EXCLUSIVE, granted or waiting.  Modes up to
    ROW_EXCLUSIVE never conflict with one another, so while that count is 0
    no request can block a weak request and none can be waiting, and
    `acquire` grants a weak request without walking the queue.  Any other
    request is decided by the walk.  The count is a pre-check in front of the
    rule, not a second rule.

    Like PostgreSQL's per-backend lock list, the table also keeps, for each
    transaction, its own requests grouped by tag.  That is the table's one
    record of a transaction: it knows one only while it holds or waits for a
    lock here, as lock.c knows a backend only by its PROCLOCKs.  The
    duplicate check in `acquire` reads only those.  A release, of all of
    them at the transaction's end or of one tuple lock, takes them off their
    queues through one path, `_remove`, which drops each queue left empty;
    only queues with a strong request can have waiters, so it updates the
    counts only there.  As PostgreSQL's UnGrantLock and CleanUpLock wake
    waiters only where the lock's waitMask is set, a release then
    re-evaluates only the queues that still have waiters.  It wakes them in
    `born` order, the order in which the tags got their first request since
    they were last empty, whatever order the transaction made its requests
    in; queues are independent, so only the order of the promoted list
    depends on it.  `locks_of` lists tags in the same order.
    """

    segment: int
    _queues: dict[LockTag, LockQueue] = field(default_factory=dict)
    _own: dict[int, dict[LockTag, list[LockRequest]]] = field(default_factory=dict)
    _next_seq: int = 0

    # -- core operations -----------------------------------------------------

    def acquire(
        self, txn: int, tag: LockTag, mode: LockMode, tick: int
    ) -> tuple[AcquireResult, list[LockRequest]]:
        """Request `tag` in `mode` for `txn`.

        The request joins the tail of the tag's queue and is granted at once
        unless the blocking rule (see the class docstring) holds for it.
        Returns (GRANTED, []) or (BLOCKED, blockers) where blockers are as in
        `blockers_of`.
        """
        if tag.segment != self.segment:
            raise ProtocolError(f"tag {tag} does not belong to segment {self.segment}")
        own = self._own.get(txn)
        mine = own.get(tag) if own is not None else None
        if mine is not None:
            for req in mine:
                if req.mode == mode:
                    if req.status is _GRANTED:
                        return _ACQUIRED, []  # idempotent re-grant
                    raise ProtocolError(
                        f"txn {txn} already waiting for {tag} mode {mode.name}"
                    )
        else:
            mine = []
            if own is None:
                own = self._own[txn] = {}
            own[tag] = mine
        seq = self._next_seq
        self._next_seq = seq + 1
        req = LockRequest(txn, tag, mode, _GRANTED, tick, seq)
        mine.append(req)
        queue = self._queues.get(tag)
        if queue is None:
            self._queues[tag] = LockQueue(req)
            return _ACQUIRED, []
        queue.requests[seq] = req
        if mode > _WEAK:
            queue.strong += 1
        elif not queue.strong:
            return _ACQUIRED, []  # nothing on the tag can block a weak request
        blockers = self._blockers_for(queue.requests.values(), req)
        if blockers:
            req.status = _WAITING
            queue.waiting += 1
            return _BLOCKED, blockers
        return _ACQUIRED, []

    def release_all(self, txn: int) -> list[LockRequest]:
        """End `txn` on this segment (commit/abort path): drop its every
        grant and wait.

        Returns the requests promoted to granted by queue re-evaluation, in
        `born` order of their queues.  Idempotent: releasing a txn that holds
        nothing returns [].
        """
        own = self._own.pop(txn, None)
        if own is None:
            return []
        woken = self._remove(own)
        if not woken:
            return []
        if len(woken) > 1:
            woken.sort(key=_born)
        promoted: list[LockRequest] = []
        for queue in woken:
            promoted += self._reevaluate(queue)
        return promoted

    def release_tuple_lock(self, txn: int, tag: LockTag) -> list[LockRequest]:
        """Release one tuple-lock grant mid-transaction (the dotted-edge case).

        A transaction never holds and waits on one tuple tag at once: a part
        waits for one grant per site (`segment.Site`), and it releases the
        tuple lock only after that grant came.  A request still waiting on the
        tag is a protocol error."""
        if tag.kind is not TagKind.TUPLE:
            raise ProtocolError(f"{tag} is not a tuple lock")
        own = self._own.get(txn, {})
        mine = own.get(tag, [])
        held = [r for r in mine if r.status is _GRANTED]
        if not held:
            raise ProtocolError(f"txn {txn} does not hold tuple lock {tag}")
        if len(held) != len(mine):
            raise ProtocolError(f"txn {txn} releases tuple lock {tag} while waiting on it")
        del own[tag]
        if not own:
            del self._own[txn]
        woken = self._remove({tag: held})
        return self._reevaluate(woken[0]) if woken else []

    # -- queries used by the wait-graph and the simulator ---------------------

    def waiting_requests(self) -> list[LockRequest]:
        out = []
        for queue in self._queues.values():
            if queue.waiting:
                out.extend(
                    r
                    for r in queue.requests.values()
                    if r.status is _WAITING
                )
        return out

    def blockers_of(self, req: LockRequest) -> list[LockRequest]:
        """Requests a waiter currently waits behind: every conflicting granted
        holder of another transaction, plus the earliest-arrived conflicting
        waiter of another transaction that arrived before it.  Empty iff the
        request is not blocked."""
        queue = self._queues.get(req.tag)
        return self._blockers_for(queue.requests.values() if queue else (), req)

    def locks_of(self, txn: int) -> list[LockRequest]:
        """Every request of `txn`, by `born` of their tags, then arrival."""
        own = self._own.get(txn)
        if own is None:
            return []
        queues = self._queues
        out = []
        for tag in sorted(own, key=lambda tag: queues[tag].born):
            out.extend(own[tag])
        return out

    def has_requests(self, txn: int) -> bool:
        """True iff `txn` holds or waits for any lock on this segment."""
        return txn in self._own

    def check_invariants(self) -> None:
        """Each tag's requests are filed under their arrival numbers in
        arrival order, no empty queue is kept, no two granted requests on one
        tag conflict (distinct txns), and every waiter has at least one
        blocker.  Each queue's strong and waiting counts match its requests,
        and the per-transaction index holds exactly each transaction's
        requests in arrival order.  The `born` of every queue is distinct and
        at most the arrival number of its first request.  No transaction
        waits for two requests here: a part parks at its wait
        (`segment.Site`)."""
        queues = self._queues
        born = [queue.born for queue in queues.values()]
        if len(set(born)) != len(born):
            raise AssertionError(f"tags share a birth number: {sorted(born)}")
        own: dict[int, dict[LockTag, list[LockRequest]]] = {}
        waiters: set[int] = set()
        for tag, queue in queues.items():
            if not queue.requests:
                raise AssertionError(f"empty queue kept for {tag}")
            if queue.born > min(queue.requests):
                raise AssertionError(f"queue of {tag} born after its requests")
            for seq, r in queue.requests.items():
                if r.seq != seq or r.tag != tag:
                    raise AssertionError(f"request {r} filed under {tag} as {seq}")
                own.setdefault(r.txn, {}).setdefault(tag, []).append(r)
                if r.status is _WAITING:
                    if r.txn in waiters:
                        raise AssertionError(
                            f"txn {r.txn} waits twice on segment {self.segment}"
                        )
                    waiters.add(r.txn)
            seqs = list(queue.requests)
            if seqs != sorted(seqs):
                raise AssertionError(f"{tag} is not in arrival order: {seqs}")
        if _identities(own) != _identities(self._own):
            raise AssertionError(
                f"per-transaction index {self._own} != queues {own}"
            )
        for tag, queue in queues.items():
            requests = list(queue.requests.values())
            strong = sum(r.mode > _WEAK for r in requests)
            waiting = sum(r.status is RequestStatus.WAITING for r in requests)
            if (queue.strong, queue.waiting) != (strong, waiting):
                raise AssertionError(
                    f"counts on {tag} are strong={queue.strong}"
                    f" waiting={queue.waiting}, the requests give"
                    f" strong={strong} waiting={waiting}"
                )
            granted = [r for r in requests if r.status is RequestStatus.GRANTED]
            for i, a in enumerate(granted):
                for b in granted[i + 1 :]:
                    if a.txn != b.txn and conflicts(a.mode, b.mode):
                        raise AssertionError(
                            f"conflicting grants on {tag}: {a} vs {b}"
                        )
            for r in requests:
                if r.status is RequestStatus.WAITING and not self.blockers_of(r):
                    raise AssertionError(f"waiter without blocker on {tag}: {r}")

    # -- internals ------------------------------------------------------------

    def _remove(self, own: dict[LockTag, list[LockRequest]]) -> list[LockQueue]:
        """Take one transaction's requests off their queues, `own` mapping
        each tag to its requests there, and drop each queue left empty;
        returns the queues that still have waiters, in `own`'s order."""
        queues = self._queues
        woken = []
        for tag, mine in own.items():
            queue = queues[tag]
            requests = queue.requests
            for req in mine:
                del requests[req.seq]
            if not requests:
                # the common own-xid case: an emptied queue needs no counts
                del queues[tag]
            elif queue.strong:  # else only weak grants, which nothing waits on
                for req in mine:
                    if req.mode > _WEAK:
                        queue.strong -= 1
                    if req.status is _WAITING:
                        queue.waiting -= 1
                if queue.waiting:
                    woken.append(queue)
        return woken

    def _blockers_for(
        self, queue: Iterable[LockRequest], req: LockRequest
    ) -> list[LockRequest]:
        """The blocking rule: conflicting grants of other transactions, then
        the first conflicting waiter of another transaction that arrived
        before `req`.  `queue` is in arrival order; `req` need not be in it."""
        blockers = []
        first_waiter = None
        mask = CONFLICT_MASK[req.mode]
        for r in queue:
            if r.txn == req.txn or not mask >> r.mode & 1:
                continue
            if r.status is _GRANTED:
                blockers.append(r)
            elif first_waiter is None and r.seq < req.seq:
                first_waiter = r
        if first_waiter is not None:
            blockers.append(first_waiter)
        return blockers

    def _reevaluate(self, queue: LockQueue) -> list[LockRequest]:
        """Walk every waiter in arrival order and grant each one the blocking
        rule no longer holds for.  A waiter granted earlier in the walk counts
        as granted for the later ones; one still blocked keeps blocking the
        later waiters it conflicts with, but not the compatible ones."""
        requests = queue.requests.values()
        promoted = []
        for req in requests:
            if req.status is _WAITING and not self._blockers_for(requests, req):
                req.status = _GRANTED
                promoted.append(req)
        queue.waiting -= len(promoted)
        return promoted


def _identities(own: dict[int, dict[LockTag, list[LockRequest]]]) -> dict:
    return {
        txn: {tag: [id(r) for r in reqs] for tag, reqs in tags.items()}
        for txn, tags in own.items()
    }
