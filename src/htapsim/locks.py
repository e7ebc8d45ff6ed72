"""Per-segment object lock service: 8 lock modes, conflict matrix, arrival-order queues.

Each segment (the coordinator counts as segment -1) runs one LockTable.
Wait-for edges are derived from the tables by the wait-graph module, so the
lock table records, for every waiting request, which holders block it.

Most requests meet no conflict: concurrent updaters all take ROW_EXCLUSIVE
on a relation, and a writer's lock on its own xid is seldom waited on.  As
in PostgreSQL's lock.c (FastPathGrantRelationLock, VirtualXactLock), such a
tag keeps its requests in a small uncontended record, granted without a
queue; the first request that could conflict moves them into a queue
(FastPathTransferRelationLocks) and the blocking rule decides it there.
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

# Modes ACCESS_SHARE..ROW_EXCLUSIVE never conflict with one another, so any
# number of transactions can hold them on one tag without a queue.
_WEAK = LockMode.ROW_EXCLUSIVE


class UncontendedTag:
    """One uncontended tag's requests, like a PostgreSQL backend's fast-path
    relation lock slots.

    `requests` maps arrival number to request, all granted: one request in
    any mode, or any number in modes up to ROW_EXCLUSIVE.  `born` is the
    arrival number of the request that made the record, and the tag's queue
    keeps it if the tag is ever contended.
    """

    __slots__ = ("born", "requests")

    def __init__(self, req: LockRequest):
        self.born = req.seq
        self.requests = {req.seq: req}

    def admits(self, mode: LockMode) -> bool:
        """True iff a request in `mode` leaves the tag uncontended."""
        if mode > _WEAK:
            return False
        requests = self.requests
        return len(requests) > 1 or next(iter(requests.values())).mode <= _WEAK


_born = attrgetter("born")


class LockQueue:
    """One tag's requests, like PostgreSQL's LOCK.

    `requests` maps arrival number to request, so it iterates in arrival
    order and drops any request in O(1).  `granted` and `waiting` count the
    requests in each mode (indexed by level), and `granted_mask` and
    `waiting_mask` have bit m set iff that count for mode m is non-zero.
    `born` is the arrival number of the tag's first request since the tag
    was last empty.  A queue is made from an uncontended record, whose
    `born` and requests, all granted, it takes over.
    """

    __slots__ = ("born", "requests", "granted", "waiting", "granted_mask", "waiting_mask")

    def __init__(self, born: int, granted: dict[int, LockRequest]):
        self.born = born
        self.requests = granted
        self.granted = counts = [0] * 9
        self.waiting = [0] * 9
        mask = 0
        for req in granted.values():
            counts[req.mode] += 1
            mask |= 1 << req.mode
        self.granted_mask = mask
        self.waiting_mask = 0

    def add(self, req: LockRequest) -> None:
        self.requests[req.seq] = req
        mode = req.mode
        if req.status is _GRANTED:
            self.granted[mode] += 1
            self.granted_mask |= 1 << mode
        else:
            self.waiting[mode] += 1
            self.waiting_mask |= 1 << mode

    def remove(self, req: LockRequest) -> None:
        del self.requests[req.seq]
        mode = req.mode
        if req.status is _GRANTED:
            self.granted[mode] -= 1
            if not self.granted[mode]:
                self.granted_mask &= ~(1 << mode)
        else:
            self._unwait(mode)

    def grant(self, req: LockRequest) -> None:
        """Turn a waiting request into a granted one."""
        self._unwait(req.mode)
        req.status = _GRANTED
        self.granted[req.mode] += 1
        self.granted_mask |= 1 << req.mode

    def _unwait(self, mode: LockMode) -> None:
        self.waiting[mode] -= 1
        if not self.waiting[mode]:
            self.waiting_mask &= ~(1 << mode)


@dataclass
class LockTable:
    """Serialized lock state machine for a single segment.

    One rule decides every grant, as in PostgreSQL's ProcLockWakeup: a
    request is blocked iff it conflicts with a granted request of another
    transaction, or with an earlier request of another transaction that is
    still waiting (no lock jumping).  A waiter compatible with both is granted
    even when a blocked waiter sits ahead of it.  Requests are numbered by the
    table's arrival sequence.

    A tag nobody contends for keeps its requests in an UncontendedTag in
    `_fast`: one request in any mode, or any number in modes up to
    ROW_EXCLUSIVE, which never conflict with one another.  This is
    PostgreSQL's fast path (FastPathGrantRelationLock in lock.c) for weak
    relation locks, and also covers a writer's lock on its own xid, which
    PostgreSQL keeps local until someone waits on it (VirtualXactLock).  The
    rule can block no request there, so `acquire` grants it at once.  The
    first request that could conflict (a mode above ROW_EXCLUSIVE beside
    another request, or a second request beside one above it) moves the
    tag's requests into a LockQueue in `_queues`, with the same `born` and
    arrival numbers, as FastPathTransferRelationLocks moves fast-path locks
    into the shared table; the rule then decides it.  The transfer reads only
    that tag's requests.  The tag keeps its queue until the queue is empty.
    The fast path is a shortcut in front of the rule, not a second rule.

    As PostgreSQL keeps a grantMask and a waitMask on each LOCK, each queue
    keeps per-mode counts of its granted and waiting requests and a bitmask
    of the modes present in each.  A request whose mode conflicts with no
    granted and no waiting mode cannot meet the rule, so `acquire` grants it
    without walking the queue; any other request is decided by the walk.
    The mask is a pre-check in front of the rule too.

    Like PostgreSQL's per-backend lock list, the table also keeps, for each
    transaction, its own requests grouped by tag.  The duplicate check in
    `acquire` reads only those, and releasing a transaction removes exactly
    those from their records and drops each record left empty.  As
    PostgreSQL's UnGrantLock and CleanUpLock wake waiters only where the
    lock's waitMask is set, release then re-evaluates only the queues that
    still have waiters; nothing waits on an uncontended tag.  It wakes them
    in `born` order, the order in which the tags got their first request
    since they were last empty, whatever order the transaction made its
    requests in; queues are independent, so only the order of the promoted
    list depends on it.  `locks_of` lists tags in the same order.
    """

    segment: int
    _queues: dict[LockTag, LockQueue] = field(default_factory=dict)
    _fast: dict[LockTag, UncontendedTag] = field(default_factory=dict)
    _own: dict[int, dict[LockTag, list[LockRequest]]] = field(default_factory=dict)
    _active: set[int] = field(default_factory=set)
    _next_seq: int = 0

    # -- transaction registration -------------------------------------------

    def register_txn(self, txn: int) -> None:
        self._active.add(txn)

    # -- core operations -----------------------------------------------------

    def acquire(
        self, txn: int, tag: LockTag, mode: LockMode, tick: int
    ) -> tuple[AcquireResult, list[LockRequest]]:
        """Request `tag` in `mode` for `txn`.

        The request joins the tail of the tag's requests, in its uncontended
        record or its queue, and is granted at once unless the blocking rule
        (see the class docstring) holds for it.
        Returns (GRANTED, []) or (BLOCKED, blockers) where blockers are as in
        `blockers_of`.
        """
        if txn not in self._active:
            raise ProtocolError(f"txn {txn} not active on segment {self.segment}")
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
        fast = self._fast.get(tag)
        if fast is None:
            queue = self._queues.get(tag)
            if queue is None:
                self._fast[tag] = UncontendedTag(req)
                return _ACQUIRED, []
        elif fast.admits(mode):
            fast.requests[seq] = req
            return _ACQUIRED, []
        else:
            queue = self._transfer(tag, fast)
        if CONFLICT_MASK[mode] & (queue.granted_mask | queue.waiting_mask):
            blockers = self._blockers_for(queue.requests.values(), req)
            if blockers:
                req.status = _WAITING
                queue.add(req)
                return _BLOCKED, blockers
        queue.add(req)
        return _ACQUIRED, []

    def release_all(self, txn: int, tick: int) -> list[LockRequest]:
        """Drop every grant and wait of `txn` on this segment (commit/abort path).

        Returns the requests promoted to granted by queue re-evaluation, in
        `born` order of their queues.  Idempotent: releasing a txn that holds
        nothing returns [].
        """
        self._active.discard(txn)
        own = self._own.pop(txn, None)
        if own is None:
            return []
        fasts, queues = self._fast, self._queues
        woken = []
        for tag, mine in own.items():
            fast = fasts.get(tag)
            if fast is not None:
                requests = fast.requests
                for req in mine:
                    del requests[req.seq]
                if not requests:
                    del fasts[tag]
                continue
            queue = queues[tag]
            for req in mine:
                queue.remove(req)
            if queue.waiting_mask:
                woken.append(queue)
            elif not queue.requests:
                del queues[tag]
        if not woken:
            return []
        if len(woken) > 1:
            woken.sort(key=_born)
        promoted: list[LockRequest] = []
        for queue in woken:
            promoted += self._reevaluate(queue)
        return promoted

    def release_tuple_lock(self, txn: int, tag: LockTag) -> list[LockRequest]:
        """Release one tuple-lock grant mid-transaction (the dotted-edge case)."""
        if tag.kind is not TagKind.TUPLE:
            raise ProtocolError(f"{tag} is not a tuple lock")
        own = self._own.get(txn, {})
        mine = own.get(tag, [])
        held = [r for r in mine if r.status is _GRANTED]
        if not held:
            raise ProtocolError(f"txn {txn} does not hold tuple lock {tag}")
        kept = [r for r in mine if r.status is _WAITING]
        if kept:
            own[tag] = kept
        else:
            del own[tag]
            if not own:
                del self._own[txn]
        fast = self._fast.get(tag)
        if fast is not None:
            for req in held:
                del fast.requests[req.seq]
            if not fast.requests:
                del self._fast[tag]
            return []
        queue = self._queues[tag]
        for req in held:
            queue.remove(req)
        promoted = self._reevaluate(queue) if queue.waiting_mask else []
        if not queue.requests:
            del self._queues[tag]
        return promoted

    # -- queries used by the wait-graph and the simulator ---------------------

    def waiting_requests(self) -> list[LockRequest]:
        out = []
        for queue in self._queues.values():
            if queue.waiting_mask:
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
        queues, fasts = self._queues, self._fast
        out = []
        for tag in sorted(own, key=lambda tag: (queues.get(tag) or fasts[tag]).born):
            out.extend(own[tag])
        return out

    def has_requests(self, txn: int) -> bool:
        """True iff `txn` holds or waits for any lock on this segment."""
        return txn in self._own

    def check_invariants(self) -> None:
        """Each tag's requests are filed under their arrival numbers in
        arrival order, no two granted requests on one tag conflict (distinct
        txns), and every waiter has at least one blocker.  No tag is both
        uncontended and queued, and an uncontended tag holds one request, or
        only granted requests in modes up to ROW_EXCLUSIVE.  Each queue's
        per-mode counts and masks match its requests, and the per-transaction
        index holds exactly each transaction's requests in arrival order.
        The `born` of every tag is distinct and at most the arrival number of
        its first request."""
        both = self._fast.keys() & self._queues.keys()
        if both:
            raise AssertionError(f"tags both uncontended and queued: {both}")
        records = {**self._fast, **self._queues}
        born = [record.born for record in records.values()]
        if len(set(born)) != len(born):
            raise AssertionError(f"tags share a birth number: {sorted(born)}")
        own: dict[int, dict[LockTag, list[LockRequest]]] = {}
        for tag, record in records.items():
            if not record.requests:
                raise AssertionError(f"empty record kept for {tag}")
            if record.born > min(record.requests):
                raise AssertionError(f"record of {tag} born after its requests")
            for seq, r in record.requests.items():
                if r.seq != seq or r.tag != tag:
                    raise AssertionError(f"request {r} filed under {tag} as {seq}")
                own.setdefault(r.txn, {}).setdefault(tag, []).append(r)
            seqs = list(record.requests)
            if seqs != sorted(seqs):
                raise AssertionError(f"{tag} is not in arrival order: {seqs}")
        if _identities(own) != _identities(self._own):
            raise AssertionError(
                f"per-transaction index {self._own} != records {own}"
            )
        for tag, fast in self._fast.items():
            requests = list(fast.requests.values())
            weak = all(r.mode <= _WEAK for r in requests)
            granted = all(r.status is RequestStatus.GRANTED for r in requests)
            if not (granted and (weak or len(requests) == 1)):
                raise AssertionError(f"uncontended {tag} holds {requests}")
        for tag, queue in self._queues.items():
            self._check_counts(tag, queue)
            granted = [
                r for r in queue.requests.values() if r.status is RequestStatus.GRANTED
            ]
            for i, a in enumerate(granted):
                for b in granted[i + 1 :]:
                    if a.txn != b.txn and conflicts(a.mode, b.mode):
                        raise AssertionError(
                            f"conflicting grants on {tag}: {a} vs {b}"
                        )
            for r in queue.requests.values():
                if r.status is RequestStatus.WAITING and not self.blockers_of(r):
                    raise AssertionError(f"waiter without blocker on {tag}: {r}")

    # -- internals ------------------------------------------------------------

    def _transfer(self, tag: LockTag, fast: UncontendedTag) -> LockQueue:
        """Move an uncontended tag's requests into a new queue."""
        del self._fast[tag]
        queue = self._queues[tag] = LockQueue(fast.born, fast.requests)
        return queue

    @staticmethod
    def _check_counts(tag: LockTag, queue: LockQueue) -> None:
        granted, waiting = [0] * 9, [0] * 9
        for r in queue.requests.values():
            counts = granted if r.status is RequestStatus.GRANTED else waiting
            counts[r.mode] += 1
        granted_mask = sum(1 << m for m in range(9) if granted[m])
        waiting_mask = sum(1 << m for m in range(9) if waiting[m])
        if (granted, waiting, granted_mask, waiting_mask) != (
            queue.granted,
            queue.waiting,
            queue.granted_mask,
            queue.waiting_mask,
        ):
            raise AssertionError(
                f"mode counts on {tag} are granted={queue.granted}"
                f" waiting={queue.waiting} masks={queue.granted_mask:#x}/"
                f"{queue.waiting_mask:#x}, the requests give granted={granted}"
                f" waiting={waiting} masks={granted_mask:#x}/{waiting_mask:#x}"
            )

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
                queue.grant(req)
                promoted.append(req)
        return promoted


def _identities(own: dict[int, dict[LockTag, list[LockRequest]]]) -> dict:
    return {
        txn: {tag: [id(r) for r in reqs] for tag, reqs in tags.items()}
        for txn, tags in own.items()
    }
