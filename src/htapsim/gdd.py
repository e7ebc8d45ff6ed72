"""Global deadlock detector.

Greedy fixpoint reduction of the global wait-for graph:

  R1  a vertex with global out-degree 0 is not blocked anywhere, so it will
      finish and release everything -> remove all edges pointing to it;
  R2  a vertex with local out-degree 0 on a segment is not blocked on that
      segment, so its tuple locks there will be released mid-transaction ->
      remove all dotted edges pointing to it in that local graph.

Rules are applied until no removal happens.  A nonempty residual graph whose
transactions are all still alive is a deadlock; finished transactions make the
collected information stale and it is discarded.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

from .dtm import ABORT_DEADLOCK_VICTIM
from .waitgraph import EdgeKind, GlobalWaitForGraph, WaitEdge


class Outcome(Enum):
    CLEAN = "clean"
    DEADLOCK = "deadlock"
    STALE = "stale"


@dataclass(frozen=True)
class ReductionStep:
    """One rule application that actually removed edges."""

    rule: str  # "global" (R1) or "local" (R2)
    vertex: int
    segment: int | None  # None for the global rule
    removed: tuple[WaitEdge, ...]

    def describe(self) -> str:
        edges = ", ".join(str(e) for e in self.removed)
        if self.rule == "global":
            return (
                f"global out-degree of {self.vertex} is 0: "
                f"remove vertex {self.vertex}, drop edges [{edges}]"
            )
        return (
            f"local out-degree of {self.vertex} on segment {self.segment} is 0: "
            f"drop dotted edges [{edges}]"
        )


@dataclass
class DetectionVerdict:
    outcome: Outcome
    residual: GlobalWaitForGraph
    steps: tuple[ReductionStep, ...] = ()
    victims: tuple[int, ...] = ()

    @property
    def residual_edges(self) -> list[WaitEdge]:
        return self.residual.edges()


def reduce(g: GlobalWaitForGraph) -> tuple[GlobalWaitForGraph, list[ReductionStep]]:
    """Run the two greedy rules to fixpoint; g itself is left as it is.

    A rule's scope is None for R1 and a segment for R2.  Out-degree counters
    per (scope, vertex) tell when a rule applies, so each edge is removed
    once: O((V + E) log V).  A pass visits the vertices its rule applies to
    in ascending dxid, R2 one segment at a time in ascending order.  A vertex
    that becomes removable behind the cursor waits for the next pass, so the
    step log is that of rescanning every vertex each pass, and traces are
    reproducible.
    """
    edges = g.edges()  # sorted, so edge indices sort as the edges do
    deg: Counter = Counter()  # (scope, v) -> live out-edges of v in the scope
    into: dict[tuple, set[int]] = {}  # (scope, v) -> the in-edges its rule drops
    for i, e in enumerate(edges):
        for scope in (None, e.segment):
            deg[scope, e.waiter] += 1
        into.setdefault((None, e.holder), set()).add(i)
        if e.kind is EdgeKind.DOTTED:
            into.setdefault((e.segment, e.holder), set()).add(i)
    # scope -> the vertices its rule may apply to at its next pass
    ready: dict[int | None, set[int]] = {None: set()}
    for scope, v in into:
        if not deg[scope, v]:
            ready.setdefault(scope, set()).add(v)
    steps: list[ReductionStep] = []

    def remove(ids: set[int]) -> tuple[WaitEdge, ...]:
        removed = sorted(ids)
        for i in removed:
            e = edges[i]
            for scope in (None, e.segment):
                into.get((scope, e.holder), set()).discard(i)
                deg[scope, e.waiter] -= 1
                if not deg[scope, e.waiter] and into.get((scope, e.waiter)):
                    ready.setdefault(scope, set()).add(e.waiter)
        return tuple(edges[i] for i in removed)

    def peel(scope: int | None) -> bool:
        """One pass of a rule over its ready vertices, lowest dxid first."""
        pending = ready[scope]
        heap = list(pending)
        heapq.heapify(heap)
        pending.clear()
        hit = False
        while heap:
            v = heapq.heappop(heap)
            if not into.get((scope, v)):
                continue
            removed = remove(into[scope, v])
            rule = "global" if scope is None else "local"
            steps.append(ReductionStep(rule, v, scope, removed))
            hit = True
            for w in (e.waiter for e in removed):
                if w in pending and w > v:  # ahead of the cursor
                    pending.discard(w)
                    heapq.heappush(heap, w)
        return hit

    def pass_local() -> bool:
        segments = sorted(s for s, vs in ready.items() if vs and s is not None)
        return any([peel(seg) for seg in segments])

    # each round runs R1's pass and then R2's, until neither removes an edge
    while peel(None) | pass_local():
        pass
    live = (edges[i] for (scope, _), ids in into.items() if scope is None for i in ids)
    return GlobalWaitForGraph(live), steps


def detect(g: GlobalWaitForGraph, live: Callable[[int], bool]) -> DetectionVerdict:
    """Reduce g and validate the residual against live transaction state.

    `live` answers whether a dxid is still running.  Empty residual -> Clean.
    Residual naming a finished transaction -> Stale (the collected graphs are
    outdated; the caller discards them and retries next period).  Otherwise
    Deadlock, with one victim chosen per residual component.
    """
    residual, steps = reduce(g)
    if residual.is_empty():
        return DetectionVerdict(Outcome.CLEAN, residual, tuple(steps))
    if any(not live(v) for v in sorted(residual.vertices)):
        return DetectionVerdict(Outcome.STALE, residual, tuple(steps))
    # dxids increase monotonically, so the largest dxid is the youngest txn
    victims = tuple(max(comp) for comp in _weak_components(residual))
    return DetectionVerdict(Outcome.DEADLOCK, residual, tuple(steps), victims)


def break_deadlock(verdict: DetectionVerdict, cluster) -> list[int]:
    """Abort the verdict's victims cluster-wide, through `cluster`'s
    abort_transaction(dxid, reason), and return their dxids.

    Called in the event that ran `detect`, which found every residual
    transaction live, so each victim still runs; `abort_transaction` itself
    ignores a transaction that has ended.
    """
    if verdict.outcome is not Outcome.DEADLOCK:
        raise ValueError("break_deadlock requires a Deadlock verdict")
    for victim in verdict.victims:
        cluster.abort_transaction(victim, reason=ABORT_DEADLOCK_VICTIM)
    return list(verdict.victims)


def _weak_components(g: GlobalWaitForGraph) -> list[list[int]]:
    """Weakly connected components of the residual, ordered by smallest member."""
    neighbors: dict[int, set[int]] = {}
    for e in g.edges():
        neighbors.setdefault(e.waiter, set()).add(e.holder)
        neighbors.setdefault(e.holder, set()).add(e.waiter)
    seen: set[int] = set()
    comps = []
    for start in sorted(neighbors):
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(sorted(neighbors[v]))
        comps.append(sorted(comp))
    return comps


def find_cycle(g: GlobalWaitForGraph) -> list[int]:
    """Return one directed cycle's vertices from a residual graph, in walk order."""
    succ: dict[int, list[int]] = {}
    for e in g.edges():
        succ.setdefault(e.waiter, []).append(e.holder)
    return first_cycle(succ)


def first_cycle(succ: Mapping[object, Iterable]) -> list:
    """One directed cycle of a successor map, its vertices in walk order.

    Depth-first search from each vertex in sorted order, visiting successors
    in sorted order, so the cycle found is deterministic; vertices must be
    orderable.  [] if acyclic.
    """
    state: dict = {}  # 0 unvisited implicit, 1 on the path, 2 done
    for root in sorted(succ):
        if state.get(root, 0):
            continue
        state[root] = 1
        path = [root]
        # one iterator per vertex on the path, over its successors still to try
        pending = [iter(sorted(set(succ.get(root, ()))))]
        while pending:
            for w in pending[-1]:
                seen = state.get(w, 0)
                if seen == 1:
                    return path[path.index(w):]
                if seen == 0:
                    state[w] = 1
                    path.append(w)
                    pending.append(iter(sorted(set(succ.get(w, ())))))
                    break
            else:
                pending.pop()
                state[path.pop()] = 2
    return []
