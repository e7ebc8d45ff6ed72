import collections
import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from htapsim.bench import build
from htapsim.dtm import TxnState
from htapsim.sim import SimConfig
from htapsim.store import Predicate, SegmentStore, StoreError, TableDef, route


class TestRoute:
    @given(st.integers(-1000, 1000), st.integers(1, 16))
    def test_deterministic(self, key, n):
        assert route(key, n) == route(key, n)
        assert 0 <= route(key, n) < n

    def test_single_segment(self):
        for key in range(50):
            assert route(key, 1) == 0

    def test_keys_spread_over_segments(self):
        counts = collections.Counter(route(k, 3) for k in range(1, 101))
        assert set(counts) == {0, 1, 2}
        # chi-square against uniform at desk scale: generous 95% bound
        expected = 100 / 3
        chi2 = sum((counts[s] - expected) ** 2 / expected for s in range(3))
        assert chi2 < 5.99

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError):
            route(1, 0)


class TestTableDef:
    def test_distribution_key_must_be_a_column(self):
        with pytest.raises(StoreError):
            TableDef("t", dist_key="c9")

    def test_default_two_int_columns(self):
        t = TableDef("t")
        assert t.dist_key == "c1"


class TestPredicate:
    def test_conjunction(self):
        p = Predicate({"c1": 3, "c2": 7})
        assert p.matches((3, 7))
        assert not p.matches((3, 8))

    def test_empty_matches_all(self):
        assert Predicate().matches((1, 2))

    def test_pinned_key(self):
        t = TableDef("t")
        assert Predicate({"c1": 5}).pinned_key(t) == 5
        assert Predicate({"c2": 5}).pinned_key(t) is None


def everything_visible(version):
    return version.xmax_local == 0


class TestVersionChains:
    def test_insert_scan_roundtrip(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        assert store.insert_version("t", (1, 10), local_xid=1, cid=1) == 0
        assert store.insert_version("t", (2, 20), local_xid=1, cid=1) == 1
        rows = store.scan(TableDef("t"), Predicate(), everything_visible)
        assert [v.values for _, v in rows] == [(1, 10), (2, 20)]

    def test_stamp_appends_successor(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), local_xid=1, cid=1)
        victim = store.tables["t"][slot][0]
        successor = store.stamp_and_append("t", slot, victim, (1, 99), 2, 1)
        chain = store.tables["t"][slot]
        assert chain == [victim, successor]
        assert victim.xmax_local == 2
        assert successor.xmin_local == 2
        assert successor.values == (1, 99)

    def test_chain_linearity_audit(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        store.stamp_and_append("t", slot, store.tables["t"][slot][0], (1, 11), 2, 1)
        states = {1: "committed", 2: "in_progress"}
        store.check_chain_invariants(lambda lx: states.get(lx, "aborted"))

    def test_restamp_after_aborted_stamper_drops_its_versions(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        victim = store.tables["t"][slot][0]
        mine = store.stamp_and_append("t", slot, victim, (1, 11), 2, 1)
        store.stamp_and_append("t", slot, mine, (1, 12), 2, 2)  # a later command
        # xid 2 aborts; xid 3 re-stamps the version xid 2 had stamped
        successor = store.stamp_and_append("t", slot, victim, (1, 13), 3, 1)
        assert store.tables["t"][slot] == [victim, successor]
        assert store.tables["t"][slot][-1] is successor
        assert victim.xmax_local == 3
        states = {1: "committed", 2: "aborted", 3: "in_progress"}
        store.check_chain_invariants(lambda lx: states.get(lx, "aborted"))

    @pytest.mark.parametrize(
        "states, fault",
        [
            ({1: "committed", 2: "in_progress", 3: "in_progress"}, "two in-progress writers"),
            ({1: "committed", 2: "in_progress", 3: "committed"}, "not at its tail"),
        ],
        ids=["two writers", "not the tail"],
    )
    def test_chain_invariants_reject_in_progress_versions_of_two_writers(self, states, fault):
        """xid 3 stamps xid 2's version: legal only once xid 2 has committed."""
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        mine = store.stamp_and_append("t", slot, store.tables["t"][slot][0], (1, 11), 2, 1)
        store.stamp_and_append("t", slot, mine, (1, 12), 3, 1)
        with pytest.raises(AssertionError, match=fault):
            store.check_chain_invariants(states.get)

    def test_chain_invariants_reject_a_successor_of_an_unstamped_version(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        first = store.tables["t"][slot][0]
        store.stamp_and_append("t", slot, first, (1, 11), 2, 1)
        states = {1: "committed", 2: "committed"}
        store.check_chain_invariants(states.get)
        first.xmax_local = 0
        with pytest.raises(AssertionError, match="successor without stamped xmax"):
            store.check_chain_invariants(states.get)

    def test_stamp_finds_victim_by_identity(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        twin = dataclasses.replace(store.tables["t"][slot][0])  # equal, not the same
        with pytest.raises(StoreError):
            store.stamp_and_append("t", slot, twin, (1, 11), 2, 1)
        assert store.tables["t"][slot][0].xmax_local == 0

    def test_visible_version_picks_newest_accepted(self):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 10), 1, 1)
        store.stamp_and_append("t", slot, store.tables["t"][slot][0], (1, 11), 2, 1)
        old_only = lambda v: v.xmin_local == 1
        newest = lambda v: True
        assert store.visible_version("t", slot, old_only).values == (1, 10)
        assert store.visible_version("t", slot, newest).values == (1, 11)
        assert store.visible_version("t", slot, lambda v: False) is None


def brute_force_scan(store, table_def, pred, is_visible):
    """Reference scan: every slot in slot order, newest visible version,
    then the predicate."""
    out = []
    chains = store.tables[table_def.name]
    for slot in sorted(chains):
        version = next((v for v in reversed(chains[slot]) if is_visible(v)), None)
        if version is not None and pred.matches(version.values):
            out.append((slot, version))
    return out


store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 4)),
        st.tuples(st.just("abort"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@given(store_ops, st.integers(0, 4), st.integers(0, 4))
def test_c1_index_scan_matches_filtered_full_scan(ops, c1, c2):
    """A scan returns what a filtered walk over every slot returns, for an
    empty, a c1, a c2 and a c1-and-c2 predicate, after every insert, stamp,
    abort of a stamper and re-stamp."""
    t = TableDef("t")
    store = SegmentStore(0)
    store.create_table(t)
    aborted = set()

    def is_visible(v):
        if v.xmin_local in aborted:
            return False
        return v.xmax_local == 0 or v.xmax_local in aborted

    xid = 0
    for op, a, b in ops:
        xid += 1
        if op == "insert":
            store.insert_version("t", (a, b), xid, 0)
        elif op == "update" and store.tables["t"]:
            slot = a % len(store.tables["t"])
            victim = store.visible_version("t", slot, is_visible)
            if victim is not None:  # re-stamps it if its stamper aborted
                store.stamp_and_append("t", slot, victim, (victim.values[0], b), xid, 0)
        elif op == "abort":
            aborted.add(xid - 1)  # the previous operation's writer
        for pred in (
            Predicate(),
            Predicate({"c1": c1}),
            Predicate({"c2": c2}),
            Predicate({"c1": c1, "c2": c2}),
        ):
            assert store.scan(t, pred, is_visible) == brute_force_scan(
                store, t, pred, is_visible
            )


def test_update_may_not_change_c1():
    store = SegmentStore(0)
    store.create_table(TableDef("t"))
    slot = store.insert_version("t", (1, 10), 1, 1)
    with pytest.raises(StoreError):
        store.stamp_and_append("t", slot, store.tables["t"][slot][0], (2, 10), 2, 1)


class TestAllVisible:
    """Rows loaded by an always-committed writer skip the visibility test
    until their first stamp."""

    def loaded(self, rows):
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        for values in rows:
            store.insert_frozen("t", values, 0)
        return store

    def test_scan_skips_the_test_on_loaded_rows_only(self):
        store = self.loaded([(1, 10), (2, 20)])
        store.insert_version("t", (3, 30), 1, 0)
        seen = []

        def is_visible(version):
            seen.append(version.values)
            return True

        rows = store.scan(TableDef("t"), Predicate(), is_visible)
        assert [v.values for _, v in rows] == [(1, 10), (2, 20), (3, 30)]
        assert seen == [(3, 30)]

    @pytest.mark.parametrize("fault", ["stamped", "two versions", "uncommitted writer"])
    def test_chain_invariants_check_every_all_visible_slot(self, fault):
        store = self.loaded([(1, 10)])
        states = {0: "committed", 1: "in_progress"}
        if fault == "stamped":
            store.tables["t"][0][0].xmax_local = 1
        elif fault == "two versions":
            store.tables["t"][0].append(dataclasses.replace(store.tables["t"][0][0]))
        else:
            store.all_visible["t"].add(store.insert_version("t", (2, 20), 1, 0))
        with pytest.raises(AssertionError, match="all-visible"):
            store.check_chain_invariants(states.get)


all_visible_ops = st.lists(
    st.one_of(
        # stamp a slot's current version by a new xid that commits or aborts
        st.tuples(st.just("stamp"), st.integers(0, 50), st.integers(0, 9), st.booleans()),
        # read with the snapshot taken `age` ops ago, pinned to c1
        st.tuples(st.just("read"), st.integers(0, 50), st.integers(0, 3), st.just(None)),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), min_size=1, max_size=8),
    all_visible_ops,
)
# the only stamper aborts: the slot stays off, and scans return the loaded version
@example(loaded=[(1, 5)], ops=[("stamp", 0, 6, False), ("read", 0, 1, None)])
def test_all_visible_scans_match_testing_every_version(loaded, ops):
    """Full and c1-pinned scans of loaded rows, after random stamps whose
    stampers commit or abort, equal a reference that tests every version of
    every chain, for readers whose snapshots were taken at random earlier
    points.  A slot is all-visible exactly until its first stamp, even when
    its stamper aborts."""
    t = TableDef("t")
    store = SegmentStore(0)
    store.create_table(t)
    for values in loaded:
        store.insert_frozen("t", values, 0)
    committed = {0}  # the loading xid commits before every snapshot
    snapshots = [frozenset(committed)]  # the committed xids after each op
    stamped: set[int] = set()

    def visible_to(snap):
        return lambda v: v.xmin_local in snap and not (v.xmax_local and v.xmax_local in snap)

    def reference(pred, is_visible):
        out = []
        for slot, chain in sorted(store.tables["t"].items()):
            seen = [v for v in chain if is_visible(v)]
            if seen and pred.matches(seen[-1].values):
                out.append((slot, seen[-1]))
        return out

    for xid, (op, a, b, commits) in enumerate(ops, start=1):
        if op == "stamp":
            slot = a % len(loaded)
            victim = store.visible_version("t", slot, visible_to(committed))
            store.stamp_and_append("t", slot, victim, (victim.values[0], b), xid, 0)
            stamped.add(slot)
            if commits:
                committed.add(xid)
        else:
            is_visible = visible_to(snapshots[-1 - a % len(snapshots)])
            for pred in (Predicate(), Predicate({"c1": b})):
                assert store.scan(t, pred, is_visible) == reference(pred, is_visible)
        snapshots.append(frozenset(committed))
        assert store.all_visible["t"] == set(range(len(loaded))) - stamped
        store.check_chain_invariants(lambda lx: "committed" if lx in committed else "aborted")


class TestPrune:
    def chain_of(self, writers):
        """A one-slot store whose chain was written by `writers`, in order."""
        store = SegmentStore(0)
        store.create_table(TableDef("t"))
        slot = store.insert_version("t", (1, 0), writers[0], 0)
        for n, xid in enumerate(writers[1:], start=1):
            store.stamp_and_append("t", slot, store.tables["t"][slot][-1], (1, n), xid, 0)
        return store, slot

    def test_keeps_from_the_newest_settled_version(self):
        store, slot = self.chain_of([1, 2, 3, 4])
        store.prune("t", slot, lambda xid: xid in (2, 3))
        chain = store.tables["t"][slot]
        assert [v.xmin_local for v in chain] == [3, 4]
        assert chain[0].xmax_local == 4

    def test_nothing_settled_past_the_first_keeps_the_chain(self):
        store, slot = self.chain_of([1, 2, 3])
        store.prune("t", slot, lambda xid: xid == 1)
        assert [v.xmin_local for v in store.tables["t"][slot]] == [1, 2, 3]


def scans_of_live_snapshots(cluster) -> dict:
    """Every table's rows, per segment, as each live transaction reads them,
    and as a fresh observer does."""
    readers = [(t.snapshot, t) for t in cluster.dtm.transactions.values() if t.state is TxnState.ACTIVE]
    readers.append((cluster.dtm.current_snapshot(), None))
    return {
        (seg.id, name, txn.dxid if txn else None): seg.store.scan(
            table, Predicate(), seg.visibility(snapshot, txn)
        )
        for seg in cluster.segments
        for name, table in sorted(cluster.catalog.items())
        for snapshot, txn in readers
    }


@settings(max_examples=60, deadline=None)
@given(
    workload=st.sampled_from(["update-only", "tpcb-like", "mixed-htap"]),
    clients=st.integers(2, 16),
    ticks=st.integers(1, 150),
    seed=st.integers(0, 1000),
)
def test_pruning_at_the_horizon_keeps_every_live_snapshots_scans(workload, clients, ticks, seed):
    """Pruning every chain at the horizon mid-run changes no scan of any live
    snapshot: each live transaction, reading its own writes too, and a fresh
    observer get the same rows, in the same version objects, before and
    after."""
    cluster = build(workload, clients, SimConfig(trace_enabled=False), seed=seed)
    cluster.run(until_tick=ticks)
    before = scans_of_live_snapshots(cluster)
    horizon = cluster.dtm.current_snapshot().horizon
    for seg in cluster.segments:
        for name, chains in seg.store.tables.items():
            for slot in chains:
                seg.store.prune(name, slot, seg.settled_below(horizon))
    assert scans_of_live_snapshots(cluster) == before
