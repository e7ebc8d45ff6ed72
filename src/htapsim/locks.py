"""Per-segment object lock service: 8 lock modes, conflict matrix, arrival-order queues.

Each segment (the coordinator counts as segment -1) runs one LockTable.
Wait-for edges are derived from the tables by the wait-graph module, so the
lock table records, for every waiting request, which holders block it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum


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


def conflicts(a: LockMode | int, b: LockMode | int) -> bool:
    """True iff modes a and b cannot be granted concurrently to different txns."""
    a, b = int(a), int(b)
    if not (1 <= a <= 8 and 1 <= b <= 8):
        raise ValueError(f"lock levels must be in 1..8, got {a}, {b}")
    return b in _CONFLICT_LEVELS[a]


class TagKind(Enum):
    RELATION = "relation"
    TUPLE = "tuple"
    TRANSACTION = "transaction"


@dataclass(frozen=True)
class LockTag:
    """Identity of a lockable object on one segment.

    `obj` is a relation name, a tuple address (table, slot), or a local xid.
    """

    kind: TagKind
    segment: int
    obj: object

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.obj}@seg{self.segment}"


class RequestStatus(Enum):
    GRANTED = "granted"
    WAITING = "waiting"


@dataclass
class LockRequest:
    txn: int  # distributed xid
    tag: LockTag
    mode: LockMode
    status: RequestStatus
    enqueue_tick: int
    seq: int = 0  # arrival number within the owning LockTable

    def sort_key(self) -> int:
        # Queue order is arrival order.  Ticks cannot stand in for it: many
        # requests arrive in one tick, and ordering those by dxid would let a
        # later arrival overtake an earlier one.
        return self.seq


class AcquireResult(Enum):
    GRANTED = "granted"
    BLOCKED = "blocked"


@dataclass
class LockTable:
    """Serialized lock state machine for a single segment.

    Each tag's queue holds its requests in arrival order, numbered by the
    table's arrival sequence.  One rule decides every grant, as in
    PostgreSQL's ProcLockWakeup: a request is blocked iff it conflicts with
    a granted request of another transaction, or with an earlier request of
    another transaction that is still waiting (no lock jumping).  A waiter
    compatible with both is granted even when a blocked waiter sits ahead
    of it.

    Like PostgreSQL's per-backend lock list, the table also records, for
    each transaction, the tags it has requests on, so that releasing a
    transaction's locks visits only those queues.  They are visited in
    queue creation order, the order of `_queues`, which `_born` (the
    arrival number of the request that created each queue) reproduces.
    """

    segment: int
    _queues: dict[LockTag, list[LockRequest]] = field(default_factory=dict)
    _born: dict[LockTag, int] = field(default_factory=dict)
    _tags_of: dict[int, set[LockTag]] = field(default_factory=dict)
    _active: set[int] = field(default_factory=set)
    _next_seq: int = 0

    # -- transaction registration -------------------------------------------

    def register_txn(self, txn: int) -> None:
        self._active.add(txn)

    def is_registered(self, txn: int) -> bool:
        return txn in self._active

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
        if txn not in self._active:
            raise ProtocolError(f"txn {txn} not active on segment {self.segment}")
        if tag.segment != self.segment:
            raise ProtocolError(f"tag {tag} does not belong to segment {self.segment}")
        queue = self._queues.get(tag)
        if queue is None:
            queue = self._queues[tag] = []
            self._born[tag] = self._next_seq
        for req in queue:
            if req.txn == txn and req.mode == mode:
                if req.status is RequestStatus.GRANTED:
                    return AcquireResult.GRANTED, []  # idempotent re-grant
                raise ProtocolError(
                    f"txn {txn} already waiting for {tag} mode {mode.name}"
                )
        req = LockRequest(txn, tag, mode, RequestStatus.GRANTED, tick, self._next_seq)
        self._next_seq += 1
        blockers = self._blockers_for(queue, req)
        if blockers:
            req.status = RequestStatus.WAITING
        queue.append(req)
        self._tags_of.setdefault(txn, set()).add(tag)
        if blockers:
            return AcquireResult.BLOCKED, blockers
        return AcquireResult.GRANTED, []

    def release_all(self, txn: int, tick: int) -> list[LockRequest]:
        """Drop every grant and wait of `txn` on this segment (commit/abort path).

        Returns the requests promoted to granted by queue re-evaluation.
        Idempotent: releasing a txn that holds nothing returns [].
        """
        promoted: list[LockRequest] = []
        for tag in self._tags_in_queue_order(self._tags_of.pop(txn, ())):
            self._queues[tag] = [r for r in self._queues[tag] if r.txn != txn]
            promoted.extend(self._reevaluate(tag))
            self._drop_if_empty(tag)
        self._active.discard(txn)
        return promoted

    def release_tuple_lock(self, txn: int, tag: LockTag) -> list[LockRequest]:
        """Release one tuple-lock grant mid-transaction (the dotted-edge case)."""
        if tag.kind is not TagKind.TUPLE:
            raise ProtocolError(f"{tag} is not a tuple lock")
        queue = self._queues.get(tag, [])
        held = [
            r for r in queue if r.txn == txn and r.status is RequestStatus.GRANTED
        ]
        if not held:
            raise ProtocolError(f"txn {txn} does not hold tuple lock {tag}")
        self._queues[tag] = [r for r in queue if r not in held]
        if not any(r.txn == txn for r in self._queues[tag]):
            tags = self._tags_of[txn]
            tags.discard(tag)
            if not tags:
                del self._tags_of[txn]
        promoted = self._reevaluate(tag)
        self._drop_if_empty(tag)
        return promoted

    # -- queries used by the wait-graph and the simulator ---------------------

    def waiting_requests(self) -> list[LockRequest]:
        out = []
        for tag in self._queues:
            out.extend(
                r for r in self._queues[tag] if r.status is RequestStatus.WAITING
            )
        return out

    def blockers_of(self, req: LockRequest) -> list[LockRequest]:
        """Requests a waiter currently waits behind: every conflicting granted
        holder of another transaction, plus the earliest-arrived conflicting
        waiter of another transaction that arrived before it.  Empty iff the
        request is not blocked."""
        return self._blockers_for(self._queues.get(req.tag, []), req)

    def locks_of(self, txn: int) -> list[LockRequest]:
        """Every request of `txn`, by queue creation order, then arrival."""
        out = []
        for tag in self._tags_in_queue_order(self._tags_of.get(txn, ())):
            out.extend(r for r in self._queues[tag] if r.txn == txn)
        return out

    def has_requests(self, txn: int) -> bool:
        """True iff `txn` holds or waits for any lock on this segment."""
        return txn in self._tags_of

    def check_invariants(self) -> None:
        """Each queue is in arrival order, no two granted requests on one tag
        conflict (distinct txns), and every waiter has at least one blocker.
        The per-transaction tag index lists exactly the tags each transaction
        has requests on, and `_born` follows the queues' creation order."""
        born = list(self._born.values())
        if list(self._born) != list(self._queues) or born != sorted(born):
            raise AssertionError(
                f"queue birth order {self._born} does not match {list(self._queues)}"
            )
        tags_of: dict[int, set[LockTag]] = {}
        for tag, queue in self._queues.items():
            for r in queue:
                tags_of.setdefault(r.txn, set()).add(tag)
        if tags_of != self._tags_of:
            raise AssertionError(
                f"per-transaction tag index {self._tags_of} != queues {tags_of}"
            )
        for tag, queue in self._queues.items():
            if not queue:
                raise AssertionError(f"empty queue kept for {tag}")
            seqs = [r.sort_key() for r in queue]
            if seqs != sorted(set(seqs)):
                raise AssertionError(f"queue on {tag} is not in arrival order: {seqs}")
            granted = [r for r in queue if r.status is RequestStatus.GRANTED]
            for i, a in enumerate(granted):
                for b in granted[i + 1 :]:
                    if a.txn != b.txn and conflicts(a.mode, b.mode):
                        raise AssertionError(
                            f"conflicting grants on {tag}: {a} vs {b}"
                        )
            for r in queue:
                if r.status is RequestStatus.WAITING and not self.blockers_of(r):
                    raise AssertionError(f"waiter without blocker on {tag}: {r}")

    # -- internals ------------------------------------------------------------

    def _tags_in_queue_order(self, tags) -> list[LockTag]:
        return sorted(tags, key=self._born.__getitem__)

    def _drop_if_empty(self, tag: LockTag) -> None:
        if not self._queues[tag]:
            del self._queues[tag]
            del self._born[tag]

    def _blockers_for(
        self, queue: list[LockRequest], req: LockRequest
    ) -> list[LockRequest]:
        """The blocking rule: conflicting grants of other transactions, then
        the first conflicting waiter of another transaction that arrived
        before `req`.  `queue` is in arrival order; `req` need not be in it."""
        blockers = []
        first_waiter = None
        for r in queue:
            if r.txn == req.txn or not conflicts(r.mode, req.mode):
                continue
            if r.status is RequestStatus.GRANTED:
                blockers.append(r)
            elif first_waiter is None and r.seq < req.seq:
                first_waiter = r
        if first_waiter is not None:
            blockers.append(first_waiter)
        return blockers

    def _reevaluate(self, tag: LockTag) -> list[LockRequest]:
        """Walk every waiter in arrival order and grant each one the blocking
        rule no longer holds for.  A waiter granted earlier in the walk counts
        as granted for the later ones; one still blocked keeps blocking the
        later waiters it conflicts with, but not the compatible ones."""
        queue = self._queues.get(tag, [])
        promoted = []
        for req in queue:
            if req.status is RequestStatus.WAITING and not self._blockers_for(
                queue, req
            ):
                req.status = RequestStatus.GRANTED
                promoted.append(req)
        return promoted
