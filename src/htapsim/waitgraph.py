"""Wait-for graphs derived from lock tables.

A local graph holds the edges of one segment; the global graph is the set of
local graphs, collected asynchronously.  Edges are labeled solid or dotted:
solid waits disappear only when the holding transaction ends (relation and
transaction locks), dotted waits can disappear mid-transaction (tuple locks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .locks import LockTable, TagKind


class EdgeKind(Enum):
    SOLID = "solid"
    DOTTED = "dotted"


@dataclass(frozen=True)
class WaitEdge:
    segment: int
    waiter: int
    holder: int
    kind: EdgeKind

    def __str__(self) -> str:
        style = "-->" if self.kind is EdgeKind.SOLID else "..>"
        return f"{self.waiter}{style}{self.holder}@seg{self.segment}"


@dataclass
class LocalWaitGraph:
    segment: int
    edges: set[WaitEdge] = field(default_factory=set)

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if e.waiter == v)


class GlobalWaitForGraph:
    """A set of per-segment local wait-for graphs."""

    def __init__(self, locals_: dict[int, LocalWaitGraph] | None = None):
        self.locals: dict[int, LocalWaitGraph] = dict(locals_ or {})

    @classmethod
    def from_edges(cls, edges: list[WaitEdge]) -> "GlobalWaitForGraph":
        g = cls()
        for e in edges:
            g.locals.setdefault(e.segment, LocalWaitGraph(e.segment)).edges.add(e)
        return g

    @property
    def vertices(self) -> set[int]:
        verts = set()
        for lg in self.locals.values():
            for e in lg.edges:
                verts.add(e.waiter)
                verts.add(e.holder)
        return verts

    def edges(self) -> list[WaitEdge]:
        out = []
        for seg in sorted(self.locals):
            out.extend(sorted(self.locals[seg].edges, key=_edge_key))
        return out

    def local_out_degree(self, v: int, segment: int) -> int:
        lg = self.locals.get(segment)
        return lg.out_degree(v) if lg else 0

    def global_out_degree(self, v: int) -> int:
        return sum(lg.out_degree(v) for lg in self.locals.values())

    def is_empty(self) -> bool:
        return all(not lg.edges for lg in self.locals.values())

    def copy(self) -> "GlobalWaitForGraph":
        return GlobalWaitForGraph(
            {
                seg: LocalWaitGraph(seg, set(lg.edges))
                for seg, lg in self.locals.items()
            }
        )

    def remove_edges_to(self, v: int) -> list[WaitEdge]:
        """Drop every edge pointing at v, in every local graph."""
        removed = []
        for seg in sorted(self.locals):
            lg = self.locals[seg]
            hit = sorted((e for e in lg.edges if e.holder == v), key=_edge_key)
            lg.edges.difference_update(hit)
            removed.extend(hit)
        return removed

    def remove_dotted_edges_to(self, v: int, segment: int) -> list[WaitEdge]:
        """Drop dotted edges pointing at v inside one local graph."""
        lg = self.locals.get(segment)
        if lg is None:
            return []
        hit = sorted(
            (e for e in lg.edges if e.holder == v and e.kind is EdgeKind.DOTTED),
            key=_edge_key,
        )
        lg.edges.difference_update(hit)
        return hit

    # -- file format -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "vertices": sorted(self.vertices),
            "edges": [
                {
                    "segment": e.segment,
                    "from": e.waiter,
                    "to": e.holder,
                    "kind": e.kind.value,
                }
                for e in self.edges()
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GlobalWaitForGraph":
        doc = json.loads(text)
        edges = [
            WaitEdge(
                segment=int(rec["segment"]),
                waiter=int(rec["from"]),
                holder=int(rec["to"]),
                kind=EdgeKind(rec["kind"]),
            )
            for rec in doc.get("edges", [])
        ]
        return cls.from_edges(edges)


def _edge_key(e: WaitEdge) -> tuple:
    return (e.segment, e.waiter, e.holder, e.kind.value)


def edge_kind_for(tag_kind: TagKind) -> EdgeKind:
    """Tuple-lock waits are dotted; relation and transaction waits are solid."""
    return EdgeKind.DOTTED if tag_kind is TagKind.TUPLE else EdgeKind.SOLID


def snapshot_local(table: LockTable) -> LocalWaitGraph:
    """Derive one segment's wait-for graph from its lock table.

    A request blocked by k holders yields k edges; the edge label comes from
    the kind of the tag being waited on.
    """
    lg = LocalWaitGraph(table.segment)
    for req in table.waiting_requests():
        kind = edge_kind_for(req.tag.kind)
        for blocker in table.blockers_of(req):
            if blocker.txn == req.txn:
                continue
            lg.edges.add(WaitEdge(table.segment, req.txn, blocker.txn, kind))
    return lg


def collect_global(tables: list[LockTable]) -> GlobalWaitForGraph:
    """Snapshot every segment's local graph at once.

    The simulator spreads the snapshots over time itself when
    `SimConfig.collection_skew` is set.
    """
    return GlobalWaitForGraph(
        {t.segment: snapshot_local(t) for t in sorted(tables, key=lambda t: t.segment)}
    )
