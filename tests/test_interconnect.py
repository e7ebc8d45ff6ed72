import hashlib
import itertools
import random

import pytest

from htapsim.interconnect import (
    JoinOutcome,
    ProcId,
    adversarial_rows,
    run_join_scenario,
)

P = ProcId  # P(slice, segment)


def cycle_edges(result):
    return set(result.wait_cycle)


class TestAppendixCase:
    def test_default_routing_stalls_without_prefetch(self):
        result = run_join_scenario(3, capacity=2, prefetch=False)
        assert result.outcome is JoinOutcome.STALLED
        assert cycle_edges(result) == {
            (P(3, 0), P(2, 2)),  # join on seg 0 waits for inner tuples
            (P(2, 2), P(3, 1)),  # inner producer on seg 2 waits for an ACK
            (P(3, 1), P(1, 1)),  # join on seg 1 waits for its first outer
            (P(1, 1), P(3, 0)),  # outer producer on seg 1 waits for an ACK
        }

    def test_prefetch_breaks_the_cycle(self):
        result = run_join_scenario(3, capacity=2, prefetch=True)
        assert result.outcome is JoinOutcome.COMPLETED

    def test_large_buffer_completes_without_prefetch(self):
        outer, inner = adversarial_rows(3, capacity=2)
        total_inner = sum(len(rows) for rows in inner.values())
        result = run_join_scenario(
            3, capacity=total_inner, prefetch=False, outer_rows=outer, inner_rows=inner
        )
        assert result.outcome is JoinOutcome.COMPLETED

    def test_all_tuples_delivered_on_completion(self):
        outer, inner = adversarial_rows(3, capacity=2)
        result = run_join_scenario(3, capacity=2, prefetch=True)
        assert result.outer_delivered == sum(len(r) for r in outer.values())
        assert result.inner_delivered == sum(len(r) for r in inner.values())

    def test_various_capacities_stall(self):
        for cap in (1, 2, 3, 5):
            result = run_join_scenario(3, capacity=cap, prefetch=False)
            assert result.outcome is JoinOutcome.STALLED, cap
            assert len(result.wait_cycle) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            run_join_scenario(3, capacity=0)

    @pytest.mark.parametrize(
        "segments, message",
        [(0, "need at least one segment"), (2, "adversarial routing needs 3 segments")],
        ids=["no segment", "two segments"],
    )
    def test_too_few_segments_rejected(self, segments, message):
        with pytest.raises(ValueError, match=message):
            run_join_scenario(segments)


class TestPrefetchProperty:
    def test_prefetch_completes_for_random_routings(self):
        rng = random.Random(11)
        for trial in range(200):
            n = 3
            cap = rng.randrange(1, 4)
            outer = {s: [rng.randrange(n) for _ in range(rng.randrange(0, 7))] for s in range(n)}
            inner = {s: [rng.randrange(n) for _ in range(rng.randrange(0, 7))] for s in range(n)}
            result = run_join_scenario(
                n, cap, prefetch=True, outer_rows=outer, inner_rows=inner
            )
            assert result.outcome is JoinOutcome.COMPLETED, (trial, outer, inner)

    def test_huge_capacity_never_stalls_even_without_prefetch(self):
        rng = random.Random(13)
        for trial in range(100):
            n = 3
            outer = {s: [rng.randrange(n) for _ in range(rng.randrange(0, 6))] for s in range(n)}
            inner = {s: [rng.randrange(n) for _ in range(rng.randrange(0, 6))] for s in range(n)}
            total = sum(map(len, outer.values())) + sum(map(len, inner.values()))
            result = run_join_scenario(
                n, max(1, total), prefetch=False, outer_rows=outer, inner_rows=inner
            )
            assert result.outcome is JoinOutcome.COMPLETED


def test_exhaustive_search_finds_the_four_process_cycle():
    """Search small routings for one that wedges the no-prefetch plan into
    exactly the documented 4-process cycle; the canonical adversarial rows
    must be among the stalling inputs."""
    target = {
        (P(3, 0), P(2, 2)),
        (P(2, 2), P(3, 1)),
        (P(3, 1), P(1, 1)),
        (P(1, 1), P(3, 0)),
    }
    found = None
    # outer rows live on segment 1, inner rows on segment 2, like the plan's
    # skew; enumerate short routing strings over destinations {0, 1}
    for outer_len in range(2, 6):
        for inner_len in range(2, 6):
            for outer in itertools.product((0, 1), repeat=outer_len):
                for inner in itertools.product((0, 1), repeat=inner_len):
                    result = run_join_scenario(
                        3,
                        capacity=1,
                        prefetch=False,
                        outer_rows={1: list(outer)},
                        inner_rows={2: list(inner)},
                    )
                    if (
                        result.outcome is JoinOutcome.STALLED
                        and cycle_edges(result) == target
                    ):
                        found = (outer, inner)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    # and the generator's canonical input reproduces the same cycle
    outer, inner = adversarial_rows(3, capacity=1)
    result = run_join_scenario(
        3, capacity=1, prefetch=False, outer_rows=outer, inner_rows=inner
    )
    assert cycle_edges(result) == target


def _pin_matrix():
    """The default routing at 3 and 4 segments, then every outer and inner
    routing string of length 1 to 3 over destinations {0, 1, 2}, placed once
    as the plan's skew (outer rows on segment 1, inner rows on segment 2) and
    once on every segment."""
    for n in (3, 4):
        for cap in (1, 2, 3, 5):
            for prefetch in (False, True):
                yield dict(n_segments=n, capacity=cap, prefetch=prefetch)
    strings = [
        list(s) for k in (1, 2, 3) for s in itertools.product((0, 1, 2), repeat=k)
    ]
    placements = (
        lambda outer, inner: ({1: outer}, {2: inner}),
        lambda outer, inner: ({s: outer for s in range(3)}, {s: inner for s in range(3)}),
    )
    for place in placements:
        for outer in strings:
            for inner in strings:
                outer_rows, inner_rows = place(outer, inner)
                for cap in (1, 2):
                    for prefetch in (False, True):
                        yield dict(
                            n_segments=3,
                            capacity=cap,
                            prefetch=prefetch,
                            outer_rows=outer_rows,
                            inner_rows=inner_rows,
                        )


def test_results_pinned_over_routing_matrix():
    """Outcome, wait cycle and delivered counts of every run in the matrix,
    hashed; the digest was recorded from the process-class implementation."""
    digest = hashlib.sha256()
    runs = stalls = 0
    for kwargs in _pin_matrix():
        r = run_join_scenario(**kwargs)
        runs += 1
        stalls += r.outcome is JoinOutcome.STALLED
        cycle = [(str(a), str(b)) for a, b in r.wait_cycle]
        digest.update(
            repr((r.outcome.value, cycle, r.outer_delivered, r.inner_delivered)).encode()
        )
    assert (runs, stalls) == (12184, 302)
    assert digest.hexdigest() == "65006dfaf0f026162c0f15927a48b54f214c3f3c3e7ebb33c2df4c645040a1fd"
