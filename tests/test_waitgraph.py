import json
import re

import pytest

from htapsim.locks import LockMode, LockTable, LockTag, TagKind
from htapsim.waitgraph import (
    EdgeKind,
    GlobalWaitForGraph,
    WaitEdge,
    snapshot_local,
)

A, B, C, D = 1, 2, 3, 4


def edge(seg, waiter, holder, kind=EdgeKind.SOLID):
    return WaitEdge(seg, waiter, holder, kind)


def graph(*edges):
    return GlobalWaitForGraph(edges)


def to_json(g) -> str:
    """The graph file `GlobalWaitForGraph.from_json` reads, with its vertices."""
    doc = {
        "vertices": sorted(g.vertices),
        "edges": [
            {
                "segment": e.segment,
                "from": e.waiter,
                "to": e.holder,
                "kind": e.kind.value,
            }
            for e in g.edges()
        ],
    }
    return json.dumps(doc, indent=2)


class TestSnapshotLocal:
    def test_transaction_lock_wait_is_solid(self):
        # two-transaction deadlock, segment 0 side: B waits on A's txn lock
        table = LockTable(0)
        xact = LockTag(TagKind.TRANSACTION, 0, 11)
        table.acquire(A, xact, LockMode.EXCLUSIVE, 0)
        table.acquire(B, xact, LockMode.SHARE, 1)
        assert snapshot_local(table) == {edge(0, B, A, EdgeKind.SOLID)}

    def test_tuple_lock_wait_is_dotted(self):
        # segment 1 of the dotted-edge case: B waits on C's txn lock while
        # holding the tuple lock; A queues behind B's tuple lock
        table = LockTable(1)
        xact_c = LockTag(TagKind.TRANSACTION, 1, 21)
        tup = LockTag(TagKind.TUPLE, 1, ("t1", 0))
        table.acquire(C, xact_c, LockMode.EXCLUSIVE, 0)
        table.acquire(B, tup, LockMode.EXCLUSIVE, 1)
        table.acquire(B, xact_c, LockMode.SHARE, 1)
        table.acquire(A, tup, LockMode.EXCLUSIVE, 2)
        assert snapshot_local(table) == {
            edge(1, B, C, EdgeKind.SOLID),
            edge(1, A, B, EdgeKind.DOTTED),
        }

    def test_idle_segment_has_no_edges(self):
        table = LockTable(2)
        assert snapshot_local(table) == set()

    def test_blocked_by_k_holders_yields_k_edges(self):
        table = LockTable(0)
        tag = LockTag(TagKind.RELATION, 0, "t1")
        table.acquire(A, tag, LockMode.ACCESS_SHARE, 0)
        table.acquire(B, tag, LockMode.ACCESS_SHARE, 1)
        table.acquire(C, tag, LockMode.ACCESS_EXCLUSIVE, 2)
        assert snapshot_local(table) == {edge(0, C, A), edge(0, C, B)}

    def test_every_dotted_edge_comes_from_a_tuple_tag(self):
        # construction audit over a mixed table
        table = LockTable(1)
        table.acquire(A, LockTag(TagKind.RELATION, 1, "t"), LockMode.ACCESS_EXCLUSIVE, 0)
        table.acquire(B, LockTag(TagKind.RELATION, 1, "t"), LockMode.ACCESS_SHARE, 1)
        table.acquire(C, LockTag(TagKind.TUPLE, 1, ("t", 3)), LockMode.EXCLUSIVE, 2)
        table.acquire(D, LockTag(TagKind.TUPLE, 1, ("t", 3)), LockMode.EXCLUSIVE, 3)
        for e in snapshot_local(table):
            if e.kind is EdgeKind.DOTTED:
                assert e.waiter == D and e.holder == C
            else:
                assert e.waiter == B and e.holder == A


class TestFileFormat:
    def test_roundtrip(self):
        g = graph(
            edge(0, B, A),
            edge(1, A, B, EdgeKind.DOTTED),
            edge(-1, D, C),
        )
        text = to_json(g)
        back = GlobalWaitForGraph.from_json(text)
        assert back.edges() == g.edges()
        assert back.vertices == g.vertices

    def test_json_shape(self):
        doc = {
            "vertices": [A, B],
            "edges": [{"segment": 1, "from": A, "to": B, "kind": "dotted"}],
        }
        assert GlobalWaitForGraph.from_json(json.dumps(doc)).edges() == [
            edge(1, A, B, EdgeKind.DOTTED)
        ]
        assert json.loads(to_json(graph(edge(1, A, B, EdgeKind.DOTTED)))) == doc

    def test_vertices_cover_all_edges(self):
        g = graph(edge(0, A, B), edge(2, C, D))
        assert g.vertices == {A, B, C, D}

    @pytest.mark.parametrize(
        "record, message",
        [
            (5, "bad edge 5"),
            ({"segment": 0, "from": 1}, "bad edge {'segment': 0, 'from': 1}"),
            ({"segment": 0, "from": 1, "to": 2, "kind": "wavy"}, "bad edge {"),
            ({"segment": float("inf"), "from": 1, "to": 2, "kind": "solid"}, "bad edge {"),
            (
                {"segment": 0, "from": 1, "to": 1, "kind": "solid"},
                "cannot wait for itself",
            ),
            # ids are integers: none is truncated or coerced
            ({"segment": 0, "from": 1.9, "to": 2, "kind": "solid"}, "1.9 is not an integer"),
            ({"segment": True, "from": 2, "to": 1, "kind": "solid"}, "True is not an integer"),
            ({"segment": 0, "from": "1", "to": 2, "kind": "solid"}, "'1' is not an integer"),
            ({"segment": 0, "from": 1, "to": 2.5, "kind": "solid"}, "2.5 is not an integer"),
            ({"segment": 0, "from": False, "to": 2, "kind": "solid"}, "False is not an integer"),
        ],
    )
    def test_bad_edge_is_named(self, record, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GlobalWaitForGraph.from_json(json.dumps({"edges": [record]}))

    def test_integral_float_ids_are_integers(self):
        doc = {"edges": [{"segment": 1.0, "from": 2.0, "to": 3, "kind": "dotted"}]}
        (e,) = GlobalWaitForGraph.from_json(json.dumps(doc)).edges()
        assert e == edge(1, 2, 3, EdgeKind.DOTTED)
        assert all(type(v) is int for v in (e.segment, e.waiter, e.holder))
