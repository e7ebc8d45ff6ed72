import random

import pytest
from hypothesis import given, settings, strategies as st

from htapsim.gdd import (
    GddConfig,
    Outcome,
    ReductionStep,
    break_deadlock,
    detect,
    find_cycle,
    reduce,
)
from htapsim.waitgraph import EdgeKind, GlobalWaitForGraph, WaitEdge, edge_key

A, B, C, D = 1, 2, 3, 4


def edge(seg, waiter, holder, kind=EdgeKind.SOLID):
    return WaitEdge(seg, waiter, holder, kind)


def graph(*edges):
    return GlobalWaitForGraph(edges)


def two_txn_cycle():
    return graph(edge(0, B, A), edge(1, A, B))


def dotted_clean_graph():
    # B->A solid on seg 0; B->C solid and A..>B dotted on seg 1
    return graph(
        edge(0, B, A),
        edge(1, B, C),
        edge(1, A, B, EdgeKind.DOTTED),
    )


def mixed_clean_graph():
    # the appendix variant: adds D->B solid on seg 1
    return graph(
        edge(0, B, A),
        edge(1, B, C),
        edge(1, A, B, EdgeKind.DOTTED),
        edge(1, D, B),
    )


def coordinator_cycle():
    return graph(edge(1, A, B), edge(0, B, D), edge(-1, D, C), edge(0, C, A))


class TestReduce:
    def test_two_txn_cycle_is_irreducible(self):
        residual, steps = reduce(two_txn_cycle())
        assert not residual.is_empty()
        assert steps == []
        assert sorted(map(str, residual.edges())) == ["1-->2@seg1", "2-->1@seg0"]

    def test_dotted_graph_reduces_to_empty_in_paper_order(self):
        residual, steps = reduce(dotted_clean_graph())
        assert residual.is_empty()
        assert [(s.rule, s.vertex, s.segment) for s in steps] == [
            ("global", C, None),
            ("local", B, 1),
            ("global", A, None),
        ]
        assert [sorted(map(str, s.removed)) for s in steps] == [
            ["2-->3@seg1"],
            ["1..>2@seg1"],
            ["2-->1@seg0"],
        ]

    def test_mixed_graph_reduces_to_empty_in_paper_order(self):
        residual, steps = reduce(mixed_clean_graph())
        assert residual.is_empty()
        assert [(s.rule, s.vertex, s.segment) for s in steps] == [
            ("global", C, None),
            ("local", B, 1),
            ("global", A, None),
            ("global", B, None),
        ]
        assert sorted(map(str, steps[-1].removed)) == ["4-->2@seg1"]

    def test_empty_graph_stays_empty(self):
        residual, steps = reduce(graph())
        assert residual.is_empty()
        assert steps == []

    def test_reduce_does_not_mutate_input(self):
        g = dotted_clean_graph()
        before = g.edges()
        reduce(g)
        assert g.edges() == before

    def test_cycle_with_dotted_edge_held_by_blocked_holder_survives(self):
        # dotted edge into a vertex that is blocked on the same segment is
        # not removable: A..>B on seg 0 with B->A on seg 0
        g = graph(edge(0, A, B, EdgeKind.DOTTED), edge(0, B, A))
        residual, _ = reduce(g)
        assert not residual.is_empty()


class TestConfluence:
    def test_randomized_rule_order_agrees(self):
        rng = random.Random(42)
        cases = [
            two_txn_cycle(),
            dotted_clean_graph(),
            mixed_clean_graph(),
            coordinator_cycle(),
        ]
        for g in cases:
            baseline, _ = reduce(g)
            for trial in range(25):
                shuffled, _ = reduce(g, rng=random.Random(rng.randrange(1 << 30)))
                assert shuffled.edges() == baseline.edges()

    def test_random_graphs_confluent(self):
        rng = random.Random(7)
        for trial in range(300):
            n_edges = rng.randrange(1, 10)
            edges = set()
            for _ in range(n_edges):
                w, h = rng.sample(range(1, 7), 2)
                edges.add(
                    edge(
                        rng.randrange(-1, 3),
                        w,
                        h,
                        EdgeKind.DOTTED if rng.random() < 0.4 else EdgeKind.SOLID,
                    )
                )
            g = GlobalWaitForGraph(edges)
            baseline, _ = reduce(g)
            for _ in range(5):
                shuffled, _ = reduce(g, rng=random.Random(rng.randrange(1 << 30)))
                assert shuffled.edges() == baseline.edges()


class TestDetect:
    def all_live(self, dxid):
        return True

    def test_cycle_reported_as_deadlock(self):
        verdict = detect(coordinator_cycle(), self.all_live)
        assert verdict.outcome is Outcome.DEADLOCK
        assert len(verdict.residual_edges) == 4

    def test_clean_graph(self):
        verdict = detect(dotted_clean_graph(), self.all_live)
        assert verdict.outcome is Outcome.CLEAN
        assert verdict.victims == ()

    def test_finished_txn_makes_verdict_stale(self):
        live = {A: True, B: True, C: False, D: True}
        verdict = detect(coordinator_cycle(), live.get)
        assert verdict.outcome is Outcome.STALE
        assert verdict.victims == ()

    def test_victim_is_youngest_in_cycle(self):
        g = graph(edge(0, 11, 10), edge(1, 10, 11))
        verdict = detect(g, self.all_live)
        assert verdict.outcome is Outcome.DEADLOCK
        assert verdict.victims == (11,)

    def test_four_txn_cycle_victim(self):
        verdict = detect(coordinator_cycle(), self.all_live)
        assert verdict.victims == (D,)

    def test_one_victim_per_disjoint_cycle(self):
        g = graph(
            edge(0, 1, 2),
            edge(1, 2, 1),
            edge(0, 5, 6),
            edge(2, 6, 5),
        )
        verdict = detect(g, self.all_live)
        assert verdict.outcome is Outcome.DEADLOCK
        assert verdict.victims == (2, 6)


class FakeCluster:
    def __init__(self, live):
        self.live = dict(live)
        self.aborted = []

    def txn_is_live(self, dxid):
        return self.live.get(dxid, False)

    def abort_transaction(self, dxid, reason):
        self.aborted.append((dxid, reason))
        self.live[dxid] = False


class TestBreakDeadlock:
    def test_aborts_victims(self):
        verdict = detect(two_txn_cycle(), lambda d: True)
        cluster = FakeCluster({A: True, B: True})
        aborted = break_deadlock(verdict, cluster)
        assert aborted == [B]
        assert cluster.aborted == [(B, "deadlock_victim")]

    def test_finished_victim_is_noop(self):
        verdict = detect(two_txn_cycle(), lambda d: True)
        cluster = FakeCluster({A: True, B: False})
        assert break_deadlock(verdict, cluster) == []

    def test_clean_verdict_rejected(self):
        verdict = detect(graph(), lambda d: True)
        cluster = FakeCluster({})
        with pytest.raises(ValueError):
            break_deadlock(verdict, cluster)


class TestConfig:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            GddConfig(period=0)


def test_find_cycle_walks_a_real_cycle():
    cycle = find_cycle(coordinator_cycle())
    assert sorted(cycle) == [A, B, C, D]
    # consecutive vertices are connected by residual edges
    succ = {(e.waiter, e.holder) for e in coordinator_cycle().edges()}
    for w, h in zip(cycle, cycle[1:] + cycle[:1]):
        assert (w, h) in succ


def reference_reduce(edges, rng=None):
    """The rules applied by rescanning a plain edge set: every pass tests
    every vertex's degree against all live edges.  The counting `reduce`
    must leave the same residual, and log the same steps without an rng."""
    live = set(edges)
    segments = {e.segment for e in live}
    steps = []

    def order(items):
        items = sorted(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    def vertices():
        return {v for e in live for v in (e.waiter, e.holder)}

    def drop(rule, v, seg, hit):
        hit = tuple(sorted(hit, key=edge_key))
        live.difference_update(hit)
        if hit:
            steps.append(ReductionStep(rule, v, seg, hit))
        return bool(hit)

    def pass_global():
        hit = False
        for v in order(vertices()):
            if not any(e.waiter == v for e in live):
                hit |= drop("global", v, None, [e for e in live if e.holder == v])
        return hit

    def pass_local():
        hit = False
        for seg in order(segments):
            for v in order(vertices()):
                if not any(e.waiter == v and e.segment == seg for e in live):
                    dotted = [
                        e
                        for e in live
                        if e.holder == v
                        and e.segment == seg
                        and e.kind is EdgeKind.DOTTED
                    ]
                    hit |= drop("local", v, seg, dotted)
        return hit

    while True:
        passes = [pass_global, pass_local]
        if rng is not None and rng.random() < 0.5:
            passes.reverse()
        if not any([p() for p in passes]):
            break
    return sorted(live, key=edge_key), steps


# solid and dotted edges among 8 transactions on the coordinator and 3 segments
wait_edges = st.lists(
    st.builds(
        edge,
        st.integers(-1, 2),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from(EdgeKind),
    ).filter(lambda e: e.waiter != e.holder),
    max_size=30,
)


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(wait_edges)
    def test_same_residual_and_steps_in_default_order(self, edges):
        residual, steps = reduce(GlobalWaitForGraph(edges))
        assert (residual.edges(), steps) == reference_reduce(edges)

    @settings(max_examples=200, deadline=None)
    @given(wait_edges, st.integers(0, 1 << 30))
    def test_same_residual_in_any_order(self, edges, seed):
        residual, _ = reduce(GlobalWaitForGraph(edges), rng=random.Random(seed))
        assert residual.edges() == reference_reduce(edges)[0]
