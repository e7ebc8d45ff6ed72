"""Distributed transaction management.

The coordinator hands out distributed xids (dxids) in increasing order and
distributed snapshots.  A snapshot has the layout of Greenplum's
`DistributedSnapshot` and PostgreSQL's `SnapshotData`: the dxids in progress
when it was taken, as an ascending tuple whose first entry is the snapshot's
xmin, and the largest dxid committed by then (`max_committed`).  A dxid is
visible to it if it committed, is at most `max_committed`, and is below xmin
or not found by a binary search of the in-progress dxids, tested in that
order.  Each snapshot also carries the horizon it was taken under, as
Greenplum's carries `xminAllDistributedSnapshots`: the smallest xmin of any
live snapshot, below which every dxid has finished for every snapshot then or
later.  Segments prune versions below it (`segment.Segment.update`) and keep
a local-xid -> dxid mapping, which each segment truncates at the horizon
whenever it hands out a local xid (`segment.Segment.local_xid`), as
Greenplum's `DistributedLog_AdvanceOldestXmin` does.  Tuple visibility
combines the distributed snapshot with that mapping, falling back to local
state for truncated entries.  Commit protocol choreography runs on the
simulator's event loop; this module owns the state, the planning rule
(read-only / one-phase / two-phase) and one descriptor per transaction, which
holds the message and fsync accounting.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum


class IntegrityError(Exception):
    """A local xid above the truncation horizon has no dxid mapping."""


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# Why a transaction aborted, as its session records the outcome
# `aborted:<reason>`: it lost a write-write conflict, the detector chose it as
# a deadlock victim, its script aborted it, its resource group cancelled it
# for memory, or a writer vetoed its prepare.
ABORT_SERIALIZATION = "serialization"
ABORT_DEADLOCK_VICTIM = "deadlock_victim"
ABORT_USER = "user"
ABORT_MEMORY_CANCELLED = "memory_cancelled"
ABORT_PREPARE_FAILED = "prepare_failed"
ABORT_REASONS = (
    ABORT_SERIALIZATION,
    ABORT_DEADLOCK_VICTIM,
    ABORT_USER,
    ABORT_MEMORY_CANCELLED,
    ABORT_PREPARE_FAILED,
)

# Per-transaction paths read the states as module constants: reading a member
# off its Enum class costs several times as much as reading a global.
_COMMITTED, _ABORTED = TxnState.COMMITTED, TxnState.ABORTED


@dataclass(slots=True)
class DistributedSnapshot:
    """The dxids in progress at creation, ascending, so `in_progress[0]` is
    the snapshot's xmin, plus the largest dxid committed by then, and the
    horizon: the smallest xmin of the snapshots live at creation.

    A dxid is visible if it committed, is at most `max_committed`, and is not
    in progress, tested in that order.  The last test compares with xmin
    first, which settles every dxid below it with no search, and otherwise
    binary-searches `in_progress`.

    Every dxid below the horizon had finished when each live snapshot was
    taken, and so for every snapshot taken later: one that committed is
    visible to them all.  The horizon never falls from one snapshot to the
    next.

    Nothing changes a snapshot once taken, but the class is not frozen: a
    frozen dataclass's `__init__` costs three times as much, once per
    transaction.
    """

    in_progress: tuple[int, ...]
    max_committed: int
    horizon: int = 0  # no dxid is below 0: such a snapshot lets nothing go

    def dxid_visible(self, dxid: int, committed: bool) -> bool:
        if not committed or dxid > self.max_committed:
            return False
        xip = self.in_progress
        if not xip or dxid < xip[0]:
            return True
        return xip[bisect_right(xip, dxid) - 1] != dxid  # largest entry <= dxid


class Protocol(Enum):
    READ_ONLY = "ro"
    ONE_PHASE = "1pc"
    TWO_PHASE = "2pc"


_READ_ONLY, _ONE_PHASE, _TWO_PHASE = Protocol.READ_ONLY, Protocol.ONE_PHASE, Protocol.TWO_PHASE


# message types counted on the descriptor
MSG_PREPARE = "Prepare"
MSG_PREPARE_OK = "PrepareOk"
MSG_COMMIT = "Commit"
MSG_COMMIT_OK = "CommitOk"
MESSAGES = (MSG_PREPARE, MSG_PREPARE_OK, MSG_COMMIT, MSG_COMMIT_OK)
# fsync sites
FSYNC_SEGMENT_PREPARE = "SegmentPrepare"
FSYNC_COORD_COMMIT = "CoordinatorCommit"
FSYNC_SEGMENT_COMMIT = "SegmentCommit"
FSYNCS = (FSYNC_SEGMENT_PREPARE, FSYNC_COORD_COMMIT, FSYNC_SEGMENT_COMMIT)
# One 32-bit field of a descriptor's `counts` per counted name: a count stays
# far below 2**32, since a transaction sends each message at most once per
# segment and round.  The value is a count of 1 in that name's field.
_UNIT = {kind: 1 << 32 * i for i, kind in enumerate(MESSAGES + FSYNCS)}
_FIELD_MASK = (1 << 32) - 1


@dataclass(slots=True)
class TransactionDescriptor:
    """One distributed transaction, as Greenplum's `TMGXACT` entry: its dxid,
    snapshot and state, the session that runs it, and its commit protocol,
    latency, and the messages and fsyncs its rounds counted.

    Every transaction that finishes keeps its descriptor, so its fields are
    the smallest forms that serve: `local_xids` is a tuple indexed by
    segment, with None where the transaction has no local xid, empty until
    it has one; a segment hands one out at its first write there, so it is
    also the record of the writers (`write_segments`).  Message types and
    fsync sites are distinct names, and `counts` is one int holding a 32-bit
    field per name, so that it is neither a container nor tracked by the
    cyclic GC.  `counted` reads one name, and `messages` and `fsyncs` are
    read-only `Counter` views of each kind, built when read.
    """

    dxid: int
    begin_tick: int
    snapshot: DistributedSnapshot
    sid: str | None = None  # the session that runs it
    state: TxnState = TxnState.ACTIVE
    local_xids: tuple[int | None, ...] = ()
    command_id: int = 0  # bumped once per statement
    counts: int = 0  # see `_UNIT`
    protocol: Protocol | None = None
    latency_ticks: int = 0

    @property
    def write_segments(self) -> tuple[int, ...]:
        """The segments that gave the transaction a local xid, ascending: as
        in PostgreSQL's `RecordTransactionCommit`, no xid means no write."""
        return tuple([s for s, local in enumerate(self.local_xids) if local is not None])

    def count(self, kind: str) -> None:
        self.counts += _UNIT[kind]

    def counted(self, kind: str) -> int:
        return self.counts // _UNIT[kind] & _FIELD_MASK

    @property
    def messages(self) -> Counter:
        return Counter({k: self.counted(k) for k in MESSAGES if self.counted(k)})

    @property
    def fsyncs(self) -> Counter:
        return Counter({k: self.counted(k) for k in FSYNCS if self.counted(k)})


class XidMapping:
    """Per-segment map from local xid to dxid, truncated below one bound,
    `oldest_xmin` (Greenplum's `oldestXmin`): local xids are handed out densely
    and in order.  A lookup below it falls back to local visibility; an
    unmapped local xid at or above it is an integrity error."""

    def __init__(self, segment: int):
        self.segment = segment
        self.entries: dict[int, int] = {}
        self.oldest_xmin = 0

    TRUNCATED = object()

    def record(self, local_xid: int, dxid: int) -> None:
        self.entries[local_xid] = dxid

    def lookup(self, local_xid: int):
        """Return the dxid, XidMapping.TRUNCATED, or raise IntegrityError."""
        if local_xid in self.entries:
            return self.entries[local_xid]
        if local_xid < self.oldest_xmin:
            return XidMapping.TRUNCATED
        raise IntegrityError(
            f"segment {self.segment}: local xid {local_xid} unmapped above horizon"
        )

    def truncate(self, horizon: int) -> None:
        """Drop entries upward from `oldest_xmin` while their dxid is below
        `horizon`: stop at the first at or above it, or at a missing one."""
        entries, oldest = self.entries, self.oldest_xmin
        while oldest in entries and entries[oldest] < horizon:
            del entries[oldest]
            oldest += 1
        self.oldest_xmin = oldest


class DistributedTxnManager:
    """Coordinator-side dxid allocation, snapshot creation and commit planning.

    The only owner of distributed transaction state: each descriptor's
    `state` and the live set change only in `begin`, `mark_committed` and
    `mark_aborted`.  Each segment's own commit log,
    `segment.Segment.states`, is that segment's and is updated by it.
    """

    def __init__(self):
        self.next_dxid = 1
        self.transactions: dict[int, TransactionDescriptor] = {}
        self.max_committed = 0
        # dxids begun and not yet committed or aborted, as in ProcArray,
        # each mapped to its snapshot's xmin: snapshots are built from this
        # set, never from the whole history.  mark_committed and mark_aborted
        # are the only places a transaction finishes, so they alone remove
        # from it.  Keys go in as dxids are handed out, so the dict's order is
        # ascending and `tuple(self._live)` is a snapshot's sorted in-progress
        # array.  The oldest live transaction's xmin is the smallest, since
        # every later one began while it ran, so the first value is the
        # horizon.
        self._live: dict[int, int] = {}

    def begin(self, tick: int, sid: str | None = None) -> TransactionDescriptor:
        dxid = self.next_dxid
        self.next_dxid += 1
        live = self._live
        live[dxid] = next(iter(live), dxid)  # its xmin
        snap = DistributedSnapshot(tuple(live), self.max_committed, self.horizon())
        txn = TransactionDescriptor(dxid=dxid, begin_tick=tick, snapshot=snap, sid=sid)
        self.transactions[dxid] = txn
        return txn

    def current_snapshot(self) -> DistributedSnapshot:
        """Snapshot as a fresh observer would see the cluster right now."""
        return DistributedSnapshot(tuple(self._live), self.max_committed, self.horizon())

    def plan_commit(self, txn: TransactionDescriptor, force_2pc: bool = False) -> Protocol:
        """Pick the commit protocol from the number of `txn`'s writers."""
        k = len(txn.local_xids) - txn.local_xids.count(None)
        if k == 0:
            return _READ_ONLY
        if k == 1 and not force_2pc:
            return _ONE_PHASE
        return _TWO_PHASE

    def mark_committed(self, dxid: int) -> None:
        txn = self.transactions[dxid]
        txn.state = _COMMITTED
        self.max_committed = max(self.max_committed, dxid)
        self._live.pop(dxid, None)

    def mark_aborted(self, dxid: int) -> None:
        txn = self.transactions[dxid]
        txn.state = _ABORTED
        self._live.pop(dxid, None)

    def is_committed(self, dxid: int) -> bool:
        txn = self.transactions.get(dxid)
        return txn is not None and txn.state is _COMMITTED

    def is_live(self, dxid: int) -> bool:
        return dxid in self._live

    def horizon(self) -> int:
        """Oldest dxid visible as running to any live snapshot: the smallest
        live xmin, or the next dxid if none is live."""
        return next(iter(self._live.values()), self.next_dxid)


def expected_accounting(protocol: Protocol, k: int) -> tuple[Counter, Counter]:
    """Closed-form message/fsync counts for a commit over k write segments."""
    if protocol is Protocol.READ_ONLY:
        return Counter(), Counter()
    if protocol is Protocol.ONE_PHASE:
        return (
            Counter({MSG_COMMIT: 1, MSG_COMMIT_OK: 1}),
            Counter({FSYNC_SEGMENT_COMMIT: 1}),
        )
    return (
        Counter(
            {MSG_PREPARE: k, MSG_PREPARE_OK: k, MSG_COMMIT: k, MSG_COMMIT_OK: k}
        ),
        Counter(
            {
                FSYNC_SEGMENT_PREPARE: k,
                FSYNC_COORD_COMMIT: 1,
                FSYNC_SEGMENT_COMMIT: k,
            }
        ),
    )


def _writer_visible(local_xid, command, my_local, cid, snapshot, mapping, states) -> bool:
    if local_xid == my_local:
        return command < cid  # own write from an earlier statement
    d = mapping.lookup(local_xid)
    committed = states.get(local_xid) == "committed"
    if d is XidMapping.TRUNCATED:
        # below every live snapshot's horizon: local state alone decides
        return committed
    return snapshot.dxid_visible(d, committed)


def visible(
    version,
    snapshot: DistributedSnapshot,
    mapping: XidMapping,
    txn,
    states: dict[int, str],
) -> bool:
    """Decide tuple visibility for `txn` under `snapshot` on one segment.

    `version` carries xmin_local/cmin and optional xmax_local/cmax (0 = unset).
    `txn` provides the reader's local xids by segment (empty, or None on a
    segment where it has none) and its current command_id.  `states` is the
    segment's own commit log, local xid to status: a dxid the snapshot sees
    as finished ended before the snapshot was taken, and the segment recorded
    its outcome before the coordinator finished it, so the segment never asks
    the coordinator.
    """
    xids = txn.local_xids if txn is not None else None
    my_local = xids[mapping.segment] if xids else None
    cid = txn.command_id if txn is not None else 0
    if not _writer_visible(
        version.xmin_local, version.cmin, my_local, cid, snapshot, mapping, states
    ):
        return False
    if version.xmax_local == 0:
        return True
    return not _writer_visible(
        version.xmax_local, version.cmax, my_local, cid, snapshot, mapping, states
    )
