"""Deadlock-detector micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_gdd.py -p no:cacheprovider

Each case times one `detect()` on a fully reducible graph of N vertices
spread over three segments, so the whole reduction runs:

- chain: each transaction waits for the next younger one, so every removal
  makes a vertex ready behind the pass's cursor and each pass removes one
  vertex, the worst order for a pass;
- dag: a random acyclic graph with about two edges per vertex, solid and
  dotted;
- ladder: rungs of the paper's dotted-edge case, each freed only after the
  rung above it, so the global and local rules alternate down the ladder.

With degree counters the time grows as O((V + E) log V), so 10,000 vertices
take well under a second.
"""

import random

import pytest

from htapsim.gdd import Outcome, detect
from htapsim.waitgraph import EdgeKind, GlobalWaitForGraph, WaitEdge

SIZES = (100, 1000, 10_000)
SOLID, DOTTED = EdgeKind.SOLID, EdgeKind.DOTTED


def chain(n: int) -> list[WaitEdge]:
    return [WaitEdge(v % 3, v, v + 1, SOLID) for v in range(1, n)]


def dag(n: int) -> list[WaitEdge]:
    rng = random.Random(n)
    edges = set()
    while len(edges) < 2 * n:
        waiter, holder = sorted(rng.sample(range(1, n + 1), 2))
        kind = DOTTED if rng.random() < 0.3 else SOLID
        edges.add(WaitEdge(rng.randrange(3), waiter, holder, kind))
    return list(edges)


def ladder(n: int) -> list[WaitEdge]:
    """Rung i: b waits for a on segment 0, a waits on b's tuple lock on
    segment 1, and b waits on segment 1 for the next rung's b (the last
    rung's for the free transaction n)."""
    edges = []
    for b in range(1, n - 1, 2):
        a = b + 1
        below = b + 2 if b + 2 < n - 1 else n
        edges += [
            WaitEdge(0, b, a, SOLID),
            WaitEdge(1, a, b, DOTTED),
            WaitEdge(1, b, below, SOLID),
        ]
    return edges


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", [chain, dag, ladder], ids=lambda f: f.__name__)
def test_detect(benchmark, shape, size):
    graph = GlobalWaitForGraph(shape(size))
    verdict = benchmark(detect, graph, lambda dxid: True)
    assert verdict.outcome is Outcome.CLEAN
