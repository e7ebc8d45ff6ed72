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

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

from .waitgraph import GlobalWaitForGraph, WaitEdge


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


@dataclass
class GddConfig:
    period: int = 100  # ticks between detector runs
    victim_policy: str = "youngest_dxid"

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("detector period must be >= 1")
        if self.victim_policy not in VICTIM_POLICIES:
            raise ValueError(f"unknown victim policy {self.victim_policy!r}")


def reduce(
    g: GlobalWaitForGraph, rng: random.Random | None = None
) -> tuple[GlobalWaitForGraph, list[ReductionStep]]:
    """Run the two greedy rules to fixpoint on a copy of g.

    The default iteration order (vertices ascending by dxid, segments
    ascending) makes traces reproducible.  Passing an rng shuffles vertex and
    segment visit order and the rule order inside each pass; the residual
    graph is the same either way (confluence), only the step log differs.
    """
    g = g.copy()
    steps: list[ReductionStep] = []

    def order(items: list) -> list:
        items = sorted(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    def pass_global() -> bool:
        hit = False
        for v in order(list(g.vertices)):
            if g.global_out_degree(v) == 0:
                removed = g.remove_edges_to(v)
                if removed:
                    steps.append(ReductionStep("global", v, None, tuple(removed)))
                    hit = True
        return hit

    def pass_local() -> bool:
        hit = False
        for seg in order(list(g.locals)):
            for v in order(list(g.vertices)):
                if g.local_out_degree(v, seg) == 0:
                    removed = g.remove_dotted_edges_to(v, seg)
                    if removed:
                        steps.append(ReductionStep("local", v, seg, tuple(removed)))
                        hit = True
        return hit

    while True:
        passes = [pass_global, pass_local]
        if rng is not None and rng.random() < 0.5:
            passes.reverse()
        if not any([p() for p in passes]):
            break
    return g, steps


def detect(
    g: GlobalWaitForGraph,
    live: Mapping[int, bool] | Callable[[int], bool],
    victim_policy: str = "youngest_dxid",
) -> DetectionVerdict:
    """Reduce g and validate the residual against live transaction state.

    `live` answers whether a dxid is still running.  Empty residual -> Clean.
    Residual naming a finished transaction -> Stale (the collected graphs are
    outdated; the caller discards them and retries next period).  Otherwise
    Deadlock, with one victim chosen per residual component.
    """
    residual, steps = reduce(g)
    if residual.is_empty():
        return DetectionVerdict(Outcome.CLEAN, residual, tuple(steps))
    is_live = live if callable(live) else lambda d: bool(live.get(d, False))
    if any(not is_live(v) for v in sorted(residual.vertices)):
        return DetectionVerdict(Outcome.STALE, residual, tuple(steps))
    victims = tuple(
        VICTIM_POLICIES[victim_policy](comp)
        for comp in _weak_components(residual)
    )
    return DetectionVerdict(Outcome.DEADLOCK, residual, tuple(steps), victims)


def break_deadlock(verdict: DetectionVerdict, cluster) -> list[int]:
    """Abort the verdict's victims cluster-wide.

    `cluster` must expose txn_is_live(dxid) and abort_transaction(dxid, reason).
    A victim that already finished is skipped (the next detector run will
    re-evaluate the cycle).  Returns the dxids actually aborted.
    """
    if verdict.outcome is not Outcome.DEADLOCK:
        raise ValueError("break_deadlock requires a Deadlock verdict")
    aborted = []
    for victim in verdict.victims:
        if not cluster.txn_is_live(victim):
            continue
        cluster.abort_transaction(victim, reason="deadlock_victim")
        aborted.append(victim)
    return aborted


def _youngest(component: list[int]) -> int:
    # dxids increase monotonically, so the largest dxid is the youngest txn
    return max(component)


VICTIM_POLICIES: dict[str, Callable[[list[int]], int]] = {
    "youngest_dxid": _youngest,
}


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
    state: dict = {}  # 0 unvisited implicit, 1 on stack, 2 done

    def dfs(v, path: list) -> list | None:
        state[v] = 1
        path.append(v)
        for w in sorted(set(succ.get(v, ()))):
            if state.get(w, 0) == 1:
                return path[path.index(w):]
            if state.get(w, 0) == 0:
                found = dfs(w, path)
                if found:
                    return found
        path.pop()
        state[v] = 2
        return None

    for v in sorted(succ):
        if state.get(v, 0) == 0:
            cycle = dfs(v, [])
            if cycle:
                return cycle
    return []
