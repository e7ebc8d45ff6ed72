"""Wait-for graphs derived from lock tables.

Each segment's lock table yields a set of edges, each naming its segment; the
global graph is their union, collected asynchronously.  Edges are labeled
solid or dotted: solid waits disappear only when the holding transaction ends
(relation and transaction locks), dotted waits can disappear mid-transaction
(tuple locks).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
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


class GlobalWaitForGraph:
    """Every segment's wait edges, as one frozen set."""

    def __init__(self, edges: Iterable[WaitEdge] = ()):
        self._edges = frozenset(edges)

    @property
    def vertices(self) -> set[int]:
        return {v for e in self._edges for v in (e.waiter, e.holder)}

    def edges(self) -> list[WaitEdge]:
        """The edges ordered by segment, then by edge key."""
        return sorted(self._edges, key=edge_key)

    def is_empty(self) -> bool:
        return not self._edges

    # -- file format -----------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "GlobalWaitForGraph":
        """Parse a graph file: a JSON object whose "edges" lists one
        {"segment", "from", "to", "kind"} record per edge, "from" waiting
        for "to"; other keys are ignored.  ValueError names what is
        malformed."""
        import json  # here, not at the top: a simulation never reads a graph file

        doc = json.loads(text)
        records = doc.get("edges") if isinstance(doc, dict) else None
        if not isinstance(records, list):
            raise ValueError("a graph is a JSON object whose 'edges' is a list")
        return cls(_edge_from_json(rec) for rec in records)


def _edge_from_json(rec) -> WaitEdge:
    try:
        ids = [rec[key] for key in ("segment", "from", "to")]
        # an integral float such as 2.0 is an id; a boolean, a string or a
        # fraction is an error rather than coerced
        for v in ids:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
                raise ValueError(f"{v!r} is not an integer")
        e = WaitEdge(*map(int, ids), EdgeKind(rec["kind"]))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"bad edge {rec!r}: {exc!r}") from None
    if e.waiter == e.holder:
        raise ValueError(f"bad edge {rec!r}: a transaction cannot wait for itself")
    return e


def edge_key(e: WaitEdge) -> tuple:
    """Sort key of an edge: segment, waiter, holder, then dotted before solid."""
    return (e.segment, e.waiter, e.holder, e.kind is EdgeKind.SOLID)


def edge_kind_for(tag_kind: TagKind) -> EdgeKind:
    """Tuple-lock waits are dotted; relation and transaction waits are solid."""
    return EdgeKind.DOTTED if tag_kind is TagKind.TUPLE else EdgeKind.SOLID


def snapshot_local(table: LockTable) -> set[WaitEdge]:
    """Derive one segment's wait edges from its lock table.

    A request blocked by k holders yields k edges; the edge label comes from
    the kind of the tag being waited on.
    """
    edges = set()
    for req in table.waiting_requests():
        kind = edge_kind_for(req.tag.kind)
        for blocker in table.blockers_of(req):
            edges.add(WaitEdge(table.segment, req.txn, blocker.txn, kind))
    return edges


def collect_global(tables: list[LockTable]) -> GlobalWaitForGraph:
    """Snapshot every segment's wait edges at once.

    The simulator spreads the snapshots over time itself when
    `SimConfig.collection_skew` is set.
    """
    return GlobalWaitForGraph(e for t in tables for e in snapshot_local(t))
