"""Event-loop micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_events.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Each case builds a cluster with no sessions, schedules N events with the
delays of one mix (all 0, all 1, or drawn from 0-5) and runs the loop to
fixpoint.  In `chain_of_events` each event schedules the next, as a message
handler does, so one event is pending at a time; in `fan_out` all N are
scheduled up front.  The median round divided by N is the cost of one
`schedule` plus its run.
"""

import random

import pytest

from htapsim.sim import Cluster, SimConfig

COUNTS = (1_000, 100_000)
MIXES = {
    "all0": lambda n: [0] * n,
    "all1": lambda n: [1] * n,
    "mixed0to5": lambda n: [random.Random(n).randrange(6) for _ in range(n)],
}


def chain_of_events(delays: list[int]) -> Cluster:
    """A cluster whose first event, when run, schedules the next, and so on
    down `delays`, so the queue holds one pending event at a time."""
    cluster = Cluster(SimConfig(trace_enabled=False))
    it = iter(delays)

    def step():
        delay = next(it, None)
        if delay is not None:
            cluster.schedule(delay, step)

    cluster.schedule(0, step)
    return cluster


def nothing() -> None:
    pass


def fan_out(delays: list[int]) -> Cluster:
    """A cluster with every event scheduled up front, so the queue holds all
    N at once."""
    cluster = Cluster(SimConfig(trace_enabled=False))
    for delay in delays:
        cluster.schedule(delay, nothing)
    return cluster


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("shape", [chain_of_events, fan_out], ids=lambda f: f.__name__)
def test_schedule_and_run(benchmark, shape, mix, count):
    delays = MIXES[mix](count)

    def one_round():
        cluster = shape(delays)
        cluster.run()
        return cluster

    cluster = benchmark(one_round)
    assert cluster._fg_pending == 0
