"""Distributed transaction management.

The coordinator hands out distributed xids (dxids) in increasing order and
distributed snapshots.  A snapshot has the layout of Greenplum's
`DistributedSnapshot` and PostgreSQL's `SnapshotData`: the dxids in progress
when it was taken, as an ascending tuple whose first entry is the snapshot's
xmin, and the largest dxid committed by then (`max_committed`).  A dxid is
visible to it if it committed, is at most `max_committed`, and is below xmin
or not found by a binary search of the in-progress dxids, tested in that
order.  Segments keep a local-xid -> dxid mapping that is truncated up to the
oldest dxid any live snapshot can still see as running.  Tuple visibility
combines the distributed snapshot with that mapping, falling back to local
state for truncated entries.  Commit protocol choreography runs on the
simulator's event loop; this module owns the state, the planning rule
(read-only / one-phase / two-phase) and the message/fsync accounting.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum


class IntegrityError(Exception):
    """A local xid above the truncation horizon has no dxid mapping."""


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class DistributedSnapshot:
    """The dxids in progress at creation, ascending, so `in_progress[0]` is
    the snapshot's xmin, plus the largest dxid committed by then.

    A dxid is visible if it committed, is at most `max_committed`, and is not
    in progress, tested in that order.  The last test compares with xmin
    first, which settles every dxid below it with no search, and otherwise
    binary-searches `in_progress`.
    """

    in_progress: tuple[int, ...]
    max_committed: int

    def dxid_visible(self, dxid: int, committed: bool) -> bool:
        if not committed or dxid > self.max_committed:
            return False
        xip = self.in_progress
        if not xip or dxid < xip[0]:
            return True
        return xip[bisect_right(xip, dxid) - 1] != dxid  # largest entry <= dxid


@dataclass
class TransactionDescriptor:
    dxid: int
    begin_tick: int
    snapshot: DistributedSnapshot
    state: TxnState = TxnState.ACTIVE
    local_xids: dict[int, int] = field(default_factory=dict)  # segment -> local xid
    write_segments: set[int] = field(default_factory=set)
    command_id: int = 0  # bumped once per statement

    def is_finished(self) -> bool:
        return self.state is not TxnState.ACTIVE


class Protocol(Enum):
    READ_ONLY = "ro"
    ONE_PHASE = "1pc"
    TWO_PHASE = "2pc"


# message types counted by CommitAccounting
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


@dataclass(slots=True)
class CommitAccounting:
    """One transaction's commit protocol, latency, and the messages and
    fsyncs its rounds counted.

    Message types and fsync sites are distinct names, so both kinds of count
    live in the one plain dict `counts`, which holds only the names counted
    at least once.  `messages` and `fsyncs` are read-only `Counter` views of
    each kind, built when read.
    """

    counts: dict[str, int] = field(default_factory=dict)
    protocol: Protocol | None = None
    latency_ticks: int = 0

    def count_message(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def count_fsync(self, site: str) -> None:
        self.counts[site] = self.counts.get(site, 0) + 1

    @property
    def messages(self) -> Counter:
        return Counter({k: n for k, n in self.counts.items() if k in MESSAGES})

    @property
    def fsyncs(self) -> Counter:
        return Counter({k: n for k, n in self.counts.items() if k in FSYNCS})


class XidMapping:
    """Per-segment map from local xid to dxid, with truncation.

    Truncated entries keep a tombstone so that lookups can tell "fall back to
    local visibility" apart from "mapping was never recorded", which is an
    integrity error.
    """

    def __init__(self, segment: int):
        self.segment = segment
        self.entries: dict[int, int] = {}
        self.truncated: set[int] = set()
        self.horizon = 1  # oldest dxid any live snapshot may see as running

    TRUNCATED = object()

    def record(self, local_xid: int, dxid: int) -> None:
        self.entries[local_xid] = dxid

    def lookup(self, local_xid: int):
        """Return the dxid, XidMapping.TRUNCATED, or raise IntegrityError."""
        if local_xid in self.entries:
            return self.entries[local_xid]
        if local_xid in self.truncated:
            return XidMapping.TRUNCATED
        raise IntegrityError(
            f"segment {self.segment}: local xid {local_xid} unmapped above horizon"
        )

    def truncate(self, horizon: int) -> int:
        """Drop entries whose dxid is below `horizon`; idempotent."""
        for local_xid in sorted(self.entries):
            if self.entries[local_xid] < horizon:
                self.truncated.add(local_xid)
                del self.entries[local_xid]
        self.horizon = max(self.horizon, horizon)
        return self.horizon


class DistributedTxnManager:
    """Coordinator-side dxid allocation, snapshot creation and commit planning.

    The only owner of distributed transaction state: each descriptor's
    `state` and the live set change only in `begin`, `mark_committed` and
    `mark_aborted`.  Each segment's own commit log, the simulator's
    `local_states`, is that segment's and is updated by it.
    """

    def __init__(self):
        self.next_dxid = 1
        self.transactions: dict[int, TransactionDescriptor] = {}
        self.max_committed = 0
        # dxids begun and not yet committed or aborted, as in ProcArray:
        # snapshots are built from this set, never from the whole history.
        # mark_committed and mark_aborted are the only places a transaction
        # finishes, so they alone remove from it.  Keys go in as dxids are
        # handed out, so the dict's order is ascending and `tuple(self._live)`
        # is a snapshot's sorted in-progress array.
        self._live: dict[int, None] = {}

    def begin(self, tick: int) -> TransactionDescriptor:
        dxid = self.next_dxid
        self.next_dxid += 1
        self._live[dxid] = None
        snap = DistributedSnapshot(tuple(self._live), self.max_committed)
        txn = TransactionDescriptor(dxid=dxid, begin_tick=tick, snapshot=snap)
        self.transactions[dxid] = txn
        return txn

    def current_snapshot(self) -> DistributedSnapshot:
        """Snapshot as a fresh observer would see the cluster right now."""
        return DistributedSnapshot(tuple(self._live), self.max_committed)

    def plan_commit(self, txn: TransactionDescriptor, force_2pc: bool = False) -> Protocol:
        """Pick the commit protocol from the observed write-set."""
        k = len(txn.write_segments)
        if k == 0:
            return Protocol.READ_ONLY
        if k == 1 and not force_2pc:
            return Protocol.ONE_PHASE
        return Protocol.TWO_PHASE

    def mark_committed(self, dxid: int) -> None:
        txn = self.transactions[dxid]
        txn.state = TxnState.COMMITTED
        self.max_committed = max(self.max_committed, dxid)
        self._live.pop(dxid, None)

    def mark_aborted(self, dxid: int) -> None:
        txn = self.transactions[dxid]
        txn.state = TxnState.ABORTED
        self._live.pop(dxid, None)

    def is_committed(self, dxid: int) -> bool:
        txn = self.transactions.get(dxid)
        return txn is not None and txn.state is TxnState.COMMITTED

    def is_live(self, dxid: int) -> bool:
        return dxid in self._live

    def live_snapshots(self) -> list[DistributedSnapshot]:
        return [self.transactions[d].snapshot for d in self._live]

    def truncation_horizon(self) -> int:
        """Oldest dxid visible as running to any live snapshot."""
        horizon = self.next_dxid
        for snap in self.live_snapshots():
            if snap.in_progress:
                horizon = min(horizon, snap.in_progress[0])  # its xmin
        return horizon

    def truncate_mapping(self, mapping: XidMapping) -> int:
        return mapping.truncate(self.truncation_horizon())


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
    `txn` provides the reader's local xids (may lack this segment) and its
    current command_id.  `states` is the segment's own commit log, local xid
    to status: a dxid the snapshot sees as finished ended before the snapshot
    was taken, and the segment recorded its outcome before the coordinator
    finished it, so the segment never asks the coordinator.
    """
    my_local = txn.local_xids.get(mapping.segment) if txn is not None else None
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
