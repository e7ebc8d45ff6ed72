"""The executor side of the cluster: a site's lock table and the statement
parts it runs, the QE (query executor) side of a Greenplum transaction.

The coordinator is a `Site`; each segment is a `Segment`, a site that also
holds its heap, its commit log and its local-to-distributed xid mapping.
Each segment part ends with one reply to the coordinator (`Site.reply`),
a failed part's included; the end of its transaction, on every site, is in
`commit.py`.
"""

from __future__ import annotations

from collections.abc import Generator
from functools import partial
from typing import TYPE_CHECKING

from . import dtm as dtm_mod
from .dtm import TransactionDescriptor, XidMapping
from .locks import AcquireResult, LockMode, LockTable, LockTag, TagKind
from .store import Predicate, SegmentStore
from .trace import (
    ASSIGN_LOCAL_XID,
    COORD,
    INSERT,
    LOCK_GRANT,
    LOCK_WAIT,
    RELATION_LOCKED,
    STAMP,
    STMT_CONFLICT,
)

if TYPE_CHECKING:
    from .sim import Cluster, Statement

BOOTSTRAP_LOCAL_XID = 0  # preloaded rows belong to this always-committed xid

# the relation lock each statement kind takes, on the coordinator and on every
# segment it reaches; legacy locking overrides "update" (see Site.work)
RELATION_LOCK_MODE = {
    "update": LockMode.ROW_EXCLUSIVE,
    "insert": LockMode.ROW_EXCLUSIVE,
    "select": LockMode.ACCESS_SHARE,
    "lock": LockMode.ACCESS_EXCLUSIVE,
}

# Per-transaction paths read these members as module constants: reading one
# off its Enum class costs several times as much as reading a global.
_LOCK_GRANTED = AcquireResult.GRANTED
_TUPLE, _TRANSACTION = TagKind.TUPLE, TagKind.TRANSACTION
_SHARE, _EXCLUSIVE = LockMode.SHARE, LockMode.EXCLUSIVE


class Site:
    """One site's lock table and the statement parts parked on it; the
    coordinator is a `Site` and each segment a `Segment`.

    A part (`work`) is a generator that yields its transaction's dxid at each
    lock grant it waits for.  A transaction runs one statement at a time and
    a statement one part per site, so it waits for at most one grant here:
    `resume` parks the part under the dxid, and `wake` resumes it, with the
    lock granted, once the grant comes.
    """

    def __init__(self, cluster: Cluster, id: int):
        self.cluster = cluster
        self.id = id
        self.locks = LockTable(id)
        self.parked: dict[int, Generator] = {}  # dxid -> its waiting part
        self.relation_tags: dict[str, LockTag] = {}  # table name -> its tag here

    def acquire_or_park(self, txn: TransactionDescriptor, tag: LockTag, mode) -> bool:
        """Request `tag` in `mode` for `txn`; True if granted.  Otherwise
        trace the wait and arm the detector: the part then yields
        `txn.dxid` and `resume` parks it."""
        cl = self.cluster
        result, blockers = self.locks.acquire(txn.dxid, tag, mode, cl.clock)
        if result is _LOCK_GRANTED:
            return True
        cl._log((self.id, LOCK_WAIT, txn.dxid, tag, mode, tuple([b.txn for b in blockers])))
        cl._ensure_gdd_scheduled()
        return False

    def resume(self, part: Generator) -> None:
        """Run `part` to its next wait, parked under the dxid it yields, or to its end."""
        dxid = next(part, None)
        if dxid is not None:
            self.parked[dxid] = part

    def wake(self, promoted) -> None:
        """Trace each grant in `promoted` and schedule the part parked on it."""
        cl = self.cluster
        for req in promoted:
            cl._log((self.id, LOCK_GRANT, req.txn, req.tag, req.mode))
            part = self.parked.pop(req.txn, None)
            if part is not None:
                cl.schedule(0, partial(self.resume, part))

    def reply(self, stmt: Statement, count: int, rows=None, failed: str | None = None) -> None:
        """Send this part's result to the coordinator (`Cluster._part_reply`):
        `count` rows written or found, the rows a select found, or the reason
        the part `failed`."""
        cl = self.cluster
        cl.send(self.id, COORD, partial(cl._part_reply, stmt, count, rows, failed))

    def work(self, stmt: Statement, rows=None):
        """This site's share of `stmt`, run as a generator.

        The coordinator's share takes the statement's relation lock there and
        then fans the statement out to the segments; a segment's share takes
        the relation lock there and then inserts `rows` (an insert's rows
        routed to this segment), scans, locks or updates (`Segment.update`).
        A part whose statement is already dead does nothing, so it leaves no
        request behind; any other takes its relation lock here, and the
        transaction's end releases every site where it has a request.  After
        every wait the part stops if its statement has died meanwhile.
        """
        cl = self.cluster
        txn, step = stmt.txn, stmt.step
        if stmt.dead:
            return
        mode = RELATION_LOCK_MODE[step.kind]
        if step.kind == "update" and cl.config.legacy_locking:
            mode = _EXCLUSIVE  # legacy locking: one writer per table
        tag = self.relation_tags.get(step.table)
        if tag is None:
            tag = self.relation_tags[step.table] = LockTag(TagKind.RELATION, self.id, step.table)
        if not self.acquire_or_park(txn, tag, mode):
            yield txn.dxid
            if stmt.dead:
                return
        if self.id == COORD:
            cl._dispatch_parts(stmt)
        elif step.kind == "update":
            yield from self.update(stmt)
        elif step.kind == "insert":
            local = self.local_xid(txn)
            for values in rows:
                self.store.insert_version(step.table, values, local, txn.command_id)
            cl._log((self.id, INSERT, txn.dxid, len(rows)))
            self.reply(stmt, len(rows))
        elif step.kind == "select":
            vis = self.visibility(txn.snapshot, txn)
            found = self.store.scan(cl.catalog[step.table], step.pred or Predicate(), vis)
            found_rows = [v.values for _, v in found]
            self.reply(stmt, len(found_rows), rows=found_rows)
        else:  # lock
            cl._log((self.id, RELATION_LOCKED, txn.dxid, step.table))
            self.reply(stmt, 0)


class Segment(Site):
    """A segment: a site that also holds its heap (`store`), its commit log
    (`states`, local xid -> "in_progress", "committed" or "aborted"), its
    local-to-distributed xid `mapping` and the next local xid to hand out."""

    def __init__(self, cluster: Cluster, id: int):
        super().__init__(cluster, id)
        self.store = SegmentStore(id)
        self.states: dict[int, str] = {BOOTSTRAP_LOCAL_XID: "committed"}
        self.mapping = XidMapping(id)
        self.mapping.record(BOOTSTRAP_LOCAL_XID, 0)
        self.next_local_xid = 1

    def local_xid(self, txn: TransactionDescriptor) -> int:
        """Assign a local xid (and the transaction self-lock) on first write,
        and truncate the mapping at the horizon of `txn`'s snapshot.  Call it
        only right before a write: it makes this segment one of `txn`'s writers."""
        xids = txn.local_xids
        if xids and xids[self.id] is not None:
            return xids[self.id]
        local = self.next_local_xid
        self.next_local_xid = local + 1
        xids = list(xids or [None] * len(self.cluster.segments))
        xids[self.id] = local
        txn.local_xids = tuple(xids)
        self.states[local] = "in_progress"
        self.mapping.record(local, txn.dxid)
        self.mapping.truncate(txn.snapshot.horizon)
        cl = self.cluster
        tag = LockTag(_TRANSACTION, self.id, local)
        self.locks.acquire(txn.dxid, tag, _EXCLUSIVE, cl.clock)
        cl._log((self.id, ASSIGN_LOCAL_XID, txn.dxid, local))
        return local

    def visibility(self, snapshot, txn: TransactionDescriptor | None = None):
        """The visibility test of `snapshot` on this segment, as read by
        `txn` (None: an observer outside any transaction)."""
        mapping, states = self.mapping, self.states
        # `dtm_mod.visible` is looked up at each call, so tracers can wrap it
        return lambda version: dtm_mod.visible(version, snapshot, mapping, txn, states)

    def settled_below(self, horizon: int):
        """The test `SegmentStore.prune` takes at `horizon`: whether a local
        xid committed here with a dxid below `horizon`, so that every snapshot
        taken under `horizon` or later sees it committed.  A truncated
        mapping entry was below an earlier horizon."""
        states, entries = self.states, self.mapping.entries
        return lambda xid: states.get(xid) == "committed" and entries.get(xid, -1) < horizon

    def update(self, stmt: Statement):
        """An update's share here: stamp the versions its scan returned.

        Each slot is one loop, as in PostgreSQL's `heap_update`: if an
        in-progress transaction stamped the version, queue on the tuple lock
        and then on the stamper's transaction lock, and look at the version's
        stamper again after each wait.  The tuple lock is held from its
        request on, and released once the slot is stamped, as `heap_update`
        releases `have_tuple_lock`, whether or not a stamper still ran when
        its grant came.

        The scan's version is not read again after a wait, because under
        snapshot isolation it stays the newest version of its chain that the
        statement sees: the snapshot and command id are fixed for the
        statement, a version appended later is written by a transaction the
        snapshot does not see, and `stamp_and_append` writes `xmax` into the
        very version object the scan returned.  A READ COMMITTED re-check
        would follow the chain here instead.

        Each stamp first prunes its chain (`SegmentStore.prune`) at the
        horizon of the statement's snapshot.  That horizon is no later than
        the one of any snapshot live now, so no live snapshot loses a version
        it can see, the scan's version included.  Pruning keeps every
        `states` and `mapping` entry, and emits no trace line.
        """
        cl = self.cluster
        txn, step = stmt.txn, stmt.step
        store = self.store
        vis = self.visibility(txn.snapshot, txn)
        settled = self.settled_below(txn.snapshot.horizon)
        pred = step.pred or Predicate()
        stamped = 0
        for slot, version in store.scan(cl.catalog[step.table], pred, vis):
            tuple_held = False
            local = self.local_xid(txn)
            while True:
                stamper = version.xmax_local
                # a version this transaction stamped is invisible to its later
                # commands, and a statement stamps a slot once, so no scan
                # returns one
                assert stamper != local, f"dxid {txn.dxid} restamps {step.table}:{slot}"
                state = self.states.get(stamper, "aborted") if stamper else "unstamped"
                if state == "committed":
                    # first updater won and committed; we lose
                    cl._log((self.id, STMT_CONFLICT, txn.dxid, dtm_mod.ABORT_SERIALIZATION))
                    self.reply(stmt, 0, failed=dtm_mod.ABORT_SERIALIZATION)
                    return
                if state != "in_progress":
                    new_values = (version.values[0], step.set_c2)
                    store.prune(step.table, slot, settled)
                    store.stamp_and_append(
                        step.table, slot, version, new_values, local, txn.command_id
                    )
                    stamped += 1
                    cl._log((self.id, STAMP, txn.dxid, step.table, slot))
                    if tuple_held:
                        self.wake(self.locks.release_tuple_lock(txn.dxid, tuple_tag))
                    break
                # stamper still in progress: queue on the tuple, then on its txn lock
                tuple_tag = LockTag(_TUPLE, self.id, (step.table, slot))
                if not tuple_held:
                    tuple_held = True
                    if not self.acquire_or_park(txn, tuple_tag, _EXCLUSIVE):
                        yield txn.dxid
                        if stmt.dead:
                            return
                        continue  # look at the stamper again
                xact_tag = LockTag(_TRANSACTION, self.id, stamper)
                if not self.acquire_or_park(txn, xact_tag, _SHARE):
                    yield txn.dxid
                    if stmt.dead:
                        return
                # granted: the stamper has finished, so look at its outcome
        self.reply(stmt, stamped)
