from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from htapsim.dtm import (
    MSG_COMMIT,
    MSG_COMMIT_OK,
    MSG_PREPARE,
    MSG_PREPARE_OK,
    FSYNC_COORD_COMMIT,
    FSYNC_SEGMENT_COMMIT,
    FSYNC_SEGMENT_PREPARE,
    DistributedSnapshot,
    DistributedTxnManager,
    IntegrityError,
    Protocol,
    TxnState,
    XidMapping,
    expected_accounting,
    visible,
)
from htapsim.sim import Cluster, SimConfig
from htapsim.store import Predicate, TableDef, TupleVersion


class TestBegin:
    def test_first_begin(self):
        mgr = DistributedTxnManager()
        txn = mgr.begin(0)
        assert txn.dxid == 1
        assert txn.snapshot.in_progress == (1,)
        assert txn.snapshot.max_committed == 0

    def test_snapshot_reflects_unfinished_and_max_committed(self):
        mgr = DistributedTxnManager()
        t1 = mgr.begin(0)
        t2 = mgr.begin(1)
        mgr.mark_committed(t2.dxid)
        t3 = mgr.begin(2)
        t4 = mgr.begin(3)
        mgr.mark_aborted(t1.dxid)
        t5 = mgr.begin(4)
        assert t5.snapshot.in_progress == (3, 4, 5)
        assert t5.snapshot.max_committed == 2

    def test_dxids_strictly_increase(self):
        mgr = DistributedTxnManager()
        dxids = [mgr.begin(i).dxid for i in range(10)]
        assert dxids == sorted(dxids)
        assert len(set(dxids)) == len(dxids)

    def test_max_committed_never_in_progress(self):
        mgr = DistributedTxnManager()
        t1 = mgr.begin(0)
        mgr.mark_committed(t1.dxid)
        t2 = mgr.begin(1)
        assert t2.snapshot.max_committed not in t2.snapshot.in_progress


class FakeTxn:
    def __init__(self, local_by_seg=None, command_id=0):
        self.local_xids = local_by_seg or {}
        self.command_id = command_id


def version(xmin, cmin=0, xmax=0, cmax=0):
    return TupleVersion(values=(1, 1), xmin_local=xmin, cmin=cmin, xmax_local=xmax, cmax=cmax)


class TestVisible:
    def setup_method(self):
        self.mapping = XidMapping(0)
        self.committed_dxids = set()
        self.local_commits = set()

    def vis(self, v, snapshot, txn=None):
        # the segment's status dict: a case that marks a dxid committed marks
        # the local xid mapped to it committed
        states = {
            lx: "committed"
            for lx, d in self.mapping.entries.items()
            if d in self.committed_dxids
        }
        states.update(dict.fromkeys(self.local_commits, "committed"))
        return visible(v, snapshot, self.mapping, txn, states)

    def test_own_write_from_earlier_statement_is_visible(self):
        txn = FakeTxn({0: 5}, command_id=2)
        snap = DistributedSnapshot((9,), 8)
        assert self.vis(version(xmin=5, cmin=1), snap, txn)

    def test_own_write_from_current_statement_is_not_visible(self):
        txn = FakeTxn({0: 5}, command_id=2)
        snap = DistributedSnapshot((), 8)
        assert not self.vis(version(xmin=5, cmin=2), snap, txn)

    def test_in_progress_dxid_is_invisible(self):
        self.mapping.record(7, 7)
        self.committed_dxids.add(7)  # already durably committed on the segment
        snap = DistributedSnapshot((7,), 9)
        assert not self.vis(version(xmin=7), snap, FakeTxn())

    def test_committed_below_max_is_visible(self):
        self.mapping.record(3, 4)
        self.committed_dxids.add(4)
        snap = DistributedSnapshot((), 9)
        assert self.vis(version(xmin=3), snap, FakeTxn())

    def test_dxid_above_max_committed_is_invisible(self):
        self.mapping.record(3, 12)
        self.committed_dxids.add(12)
        snap = DistributedSnapshot((), 9)
        assert not self.vis(version(xmin=3), snap, FakeTxn())

    def test_truncated_mapping_falls_back_to_local_state(self):
        for local in range(4):  # densely from 0, as a segment hands them out
            self.mapping.record(local, local)
        self.mapping.truncate(5)
        assert self.mapping.lookup(3) is XidMapping.TRUNCATED
        self.local_commits.add(3)
        snap = DistributedSnapshot((7,), 9)
        assert self.vis(version(xmin=3), snap, FakeTxn())
        self.local_commits.discard(3)
        assert not self.vis(version(xmin=3), snap, FakeTxn())

    def test_unmapped_local_xid_is_integrity_error(self):
        snap = DistributedSnapshot((), 9)
        with pytest.raises(IntegrityError):
            self.vis(version(xmin=77), snap, FakeTxn())

    def test_deleted_by_visible_committed_txn_is_invisible(self):
        self.mapping.record(3, 2)
        self.mapping.record(4, 5)
        self.committed_dxids.update({2, 5})
        snap = DistributedSnapshot((), 9)
        assert not self.vis(version(xmin=3, xmax=4), snap, FakeTxn())

    def test_deleted_by_in_progress_txn_is_still_visible(self):
        self.mapping.record(3, 2)
        self.mapping.record(4, 7)
        self.committed_dxids.add(2)
        snap = DistributedSnapshot((7,), 9)
        assert self.vis(version(xmin=3, xmax=4), snap, FakeTxn())

    def test_own_delete_hides_version(self):
        self.mapping.record(3, 2)
        self.committed_dxids.add(2)
        txn = FakeTxn({0: 9}, command_id=3)
        snap = DistributedSnapshot((), 9)
        assert not self.vis(version(xmin=3, xmax=9, cmax=1), snap, txn)
        # a delete stamped by the current statement does not hide it yet
        assert self.vis(version(xmin=3, xmax=9, cmax=3), snap, txn)


class TestCommitPlanning:
    def test_read_only(self):
        mgr = DistributedTxnManager()
        txn = mgr.begin(0)
        assert mgr.plan_commit(txn) is Protocol.READ_ONLY

    def test_single_segment_write_is_one_phase(self):
        mgr = DistributedTxnManager()
        txn = mgr.begin(0)
        txn.local_xids = (None, 1, None)
        assert mgr.plan_commit(txn) is Protocol.ONE_PHASE

    def test_multi_segment_write_is_two_phase(self):
        mgr = DistributedTxnManager()
        txn = mgr.begin(0)
        txn.local_xids = (1, None, 1)
        assert mgr.plan_commit(txn) is Protocol.TWO_PHASE

    def test_force_2pc_downgrades_one_phase(self):
        mgr = DistributedTxnManager()
        txn = mgr.begin(0)
        txn.local_xids = (None, 1, None)
        assert mgr.plan_commit(txn, force_2pc=True) is Protocol.TWO_PHASE
        txn2 = mgr.begin(1)
        assert mgr.plan_commit(txn2, force_2pc=True) is Protocol.READ_ONLY


class TestAccountingOracle:
    def test_three_segment_write(self):
        msgs, fsyncs = expected_accounting(Protocol.TWO_PHASE, 3)
        assert msgs == Counter(
            {MSG_PREPARE: 3, MSG_PREPARE_OK: 3, MSG_COMMIT: 3, MSG_COMMIT_OK: 3}
        )
        assert fsyncs == Counter(
            {FSYNC_SEGMENT_PREPARE: 3, FSYNC_COORD_COMMIT: 1, FSYNC_SEGMENT_COMMIT: 3}
        )

    def test_one_segment_write(self):
        msgs, fsyncs = expected_accounting(Protocol.ONE_PHASE, 1)
        assert msgs == Counter({MSG_COMMIT: 1, MSG_COMMIT_OK: 1})
        assert fsyncs == Counter({FSYNC_SEGMENT_COMMIT: 1})
        assert msgs[MSG_PREPARE] == 0
        assert fsyncs[FSYNC_SEGMENT_PREPARE] == 0
        assert fsyncs[FSYNC_COORD_COMMIT] == 0

    def test_read_only_has_no_traffic(self):
        msgs, fsyncs = expected_accounting(Protocol.READ_ONLY, 0)
        assert msgs == Counter() and fsyncs == Counter()


class TestTruncation:
    """A segment records local xids densely from 0, and `truncate` drops the
    prefix of them whose dxids are below the horizon."""

    def test_no_live_snapshots_truncates_everything(self):
        mgr = DistributedTxnManager()
        mapping = XidMapping(0)
        mapping.record(0, 0)  # the bootstrap xid
        for i in range(1, 4):
            txn = mgr.begin(i)
            mapping.record(i, txn.dxid)
            mgr.mark_committed(txn.dxid)
        mapping.truncate(mgr.horizon())
        assert mgr.horizon() == mgr.next_dxid
        assert mapping.entries == {}
        assert mapping.oldest_xmin == 4
        assert all(mapping.lookup(local) is XidMapping.TRUNCATED for local in range(4))
        with pytest.raises(IntegrityError):
            mapping.lookup(4)  # never handed out

    def test_truncation_stops_at_the_first_entry_at_or_above_the_horizon(self):
        mgr = DistributedTxnManager()
        mapping = XidMapping(0)
        mapping.record(0, 0)
        b = mgr.begin(0)  # dxid 1
        a = mgr.begin(1)  # dxid 2
        mapping.record(1, a.dxid)  # a writes here first
        mapping.record(2, b.dxid)
        mgr.mark_committed(b.dxid)
        c = mgr.begin(2)  # dxid 3: saw a running
        mgr.mark_committed(a.dxid)
        assert c.snapshot.in_progress == (2, 3)
        assert mgr.horizon() == 2
        mapping.truncate(mgr.horizon())
        # local xid 2's dxid 1 is below the horizon, but it comes after local
        # xid 1, whose dxid is not
        assert mapping.entries == {1: 2, 2: 1}
        assert mapping.oldest_xmin == 1
        assert mapping.lookup(0) is XidMapping.TRUNCATED
        assert mapping.lookup(2) == 1
        mgr.mark_committed(c.dxid)
        mapping.truncate(mgr.horizon())
        assert (mapping.entries, mapping.oldest_xmin) == ({}, 3)

    def test_truncation_is_idempotent(self):
        mgr = DistributedTxnManager()
        mapping = XidMapping(0)
        mapping.record(0, 0)
        t = mgr.begin(0)
        mapping.record(1, t.dxid)
        mgr.mark_committed(t.dxid)
        live = mgr.begin(1)
        mapping.record(2, live.dxid)
        mapping.truncate(mgr.horizon())
        state = (dict(mapping.entries), mapping.oldest_xmin)
        assert state == ({2: 2}, 2)
        mapping.truncate(mgr.horizon())
        assert (dict(mapping.entries), mapping.oldest_xmin) == state


@given(
    st.lists(
        st.tuples(st.sampled_from(["begin", "commit", "abort"]), st.integers(0, 50)),
        max_size=60,
    )
)
def test_live_set_matches_recomputation_over_all_transactions(ops):
    """Snapshots built from the live-dxid set equal a scan of every
    transaction ever begun, across random begin/commit/abort sequences, and
    their horizon is the smallest xmin of the live snapshots."""
    mgr = DistributedTxnManager()

    def unfinished():
        return frozenset(
            d for d, t in mgr.transactions.items() if t.state is TxnState.ACTIVE
        )

    def committed():
        return [d for d, t in mgr.transactions.items() if t.state is TxnState.COMMITTED]

    def horizon():  # the smallest xmin of the live snapshots
        xmins = [mgr.transactions[d].snapshot.in_progress[0] for d in unfinished()]
        return min(xmins, default=mgr.next_dxid)

    for tick, (op, pick) in enumerate(ops):
        live = sorted(unfinished())
        if op == "begin":
            txn = mgr.begin(tick)
            assert txn.snapshot.in_progress == tuple(sorted(unfinished()))
            assert txn.snapshot.max_committed == max(committed(), default=0)
            assert txn.snapshot.horizon == horizon()
        elif live:
            dxid = live[pick % len(live)]
            (mgr.mark_committed if op == "commit" else mgr.mark_aborted)(dxid)
        assert mgr.current_snapshot().in_progress == tuple(sorted(unfinished()))
        assert mgr.current_snapshot().horizon == mgr.horizon() == horizon()
        # the live-dxid index holds the unfinished transactions in dxid order
        assert [mgr.transactions[d].snapshot for d in mgr._live] == [
            t.snapshot
            for _, t in sorted(mgr.transactions.items())
            if t.state is TxnState.ACTIVE
        ]
        for dxid in range(mgr.next_dxid + 1):
            assert mgr.is_live(dxid) == (dxid in unfinished())


@example(live=[3], max_committed=5, extra=[])  # a committed dxid equal to xmin
@given(
    live=st.lists(st.integers(1, 60), unique=True, max_size=30),
    max_committed=st.integers(0, 70),
    extra=st.lists(st.integers(0, 80), max_size=5),
)
def test_dxid_visible_matches_a_frozenset_reference(live, max_committed, extra):
    """The xmin test and the binary search over the sorted in-progress array
    decide like a set lookup: for dxids below xmin, equal to a member, between
    members and above max_committed, the empty snapshot included."""
    reference = frozenset(live)
    snap = DistributedSnapshot(tuple(sorted(live)), max_committed)
    probes = {0, max_committed, max_committed + 1, *extra}
    for d in live:
        probes.update((d - 1, d, d + 1))
    for dxid in sorted(probes):
        for committed in (False, True):
            expected = committed and dxid not in reference and dxid <= max_committed
            assert snap.dxid_visible(dxid, committed) == expected, (dxid, committed)


def test_segment_commit_log_decides_visibility():
    """A segment reads writers' outcomes from its own commit log: a dxid the
    coordinator has committed stays invisible there until the segment has
    recorded its local commit."""
    cluster = Cluster(SimConfig(n_segments=1))
    table = TableDef("t")
    cluster.create_table(table, [(1, 10)])
    txn = cluster.dtm.begin(0)
    local = cluster.segments[0].local_xid(txn)
    cluster.segments[0].store.insert_version("t", (2, 20), local, 0)
    cluster.dtm.mark_committed(txn.dxid)

    def rows():
        vis = cluster.segments[0].visibility(cluster.dtm.current_snapshot())
        return sorted(v.values for _, v in cluster.segments[0].store.scan(table, Predicate(), vis))

    assert cluster.segments[0].states[local] == "in_progress"
    assert rows() == [(1, 10)]
    cluster.segments[0].states[local] = "committed"
    assert rows() == [(1, 10), (2, 20)]
