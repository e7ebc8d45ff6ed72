"""The event loop runs events in tick order and, within a tick, in the order
they were scheduled, whatever run windows it is driven in.

`ReferenceLoop` keeps that order the plain way, as a heap of (tick, sequence
number, background, fn) entries, and is the reference for `Cluster`'s
per-tick buckets.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from htapsim.scenario import parse_sql
from htapsim.sim import Cluster, SimConfig
from htapsim.store import TableDef


class ReferenceLoop:
    """The event loop of a cluster with no sessions, as one heap."""

    def __init__(self):
        self.clock = 0
        self._heap = []
        self._seq = 0
        self._fg_pending = 0

    def schedule(self, delay, fn, background=False):
        self._seq += 1
        if not background:
            self._fg_pending += 1
        heapq.heappush(self._heap, (self.clock + delay, self._seq, background, fn))

    def run(self, until_tick=None):
        while True:
            if until_tick is not None and self.clock >= until_tick:
                return
            if self._fg_pending == 0 and not self._heap:
                return
            if until_tick is not None and self._heap and self._heap[0][0] > until_tick:
                return
            tick, _, background, fn = heapq.heappop(self._heap)
            self.clock = max(self.clock, tick)
            if not background:
                self._fg_pending -= 1
            fn()


@st.composite
def programs(draw):
    """Events as (parent, delay, background): event i is scheduled when its
    parent, an earlier event, runs, or before the first run if the parent is
    -1; plus the increments between successive `run(until_tick=...)` bounds."""
    events = []
    for i in range(draw(st.integers(1, 60))):
        parent = draw(st.integers(-1, i - 1))
        events.append((parent, draw(st.integers(0, 4)), draw(st.booleans())))
    windows = draw(st.lists(st.integers(0, 6), max_size=8))
    return events, windows


def drive(loop, events, windows) -> list:
    """Run the program on `loop`; what each event saw and where each window
    stopped."""
    log = []

    def spawn(parent):
        for i, (p, delay, background) in enumerate(events):
            if p == parent:
                loop.schedule(delay, lambda i=i: fire(i), background=background)

    def fire(i):
        log.append((i, loop.clock, loop._fg_pending))
        spawn(i)

    spawn(-1)
    bound = 0
    for step in windows:
        bound += step
        loop.run(until_tick=bound)
        log.append(("window", bound, loop.clock))
    loop.run()
    log.append(("fixpoint", loop.clock))
    return log


@settings(max_examples=200, deadline=None)
@given(programs())
def test_event_order_matches_the_heap_reference(program):
    events, windows = program
    want = drive(ReferenceLoop(), events, windows)
    assert drive(Cluster(SimConfig()), events, windows) == want
    assert sum(1 for entry in want if entry[0] not in ("window", "fixpoint")) == len(events)


@pytest.mark.parametrize("delay", [0, 1])
def test_an_event_that_raises_leaves_the_loop_usable(delay):
    """The raising event's emptied bucket is dropped by the next run, which
    then runs what was scheduled after the raise."""
    cluster = Cluster(SimConfig())
    ran = []

    def boom():
        raise RuntimeError("boom")

    cluster.schedule(0, boom)
    with pytest.raises(RuntimeError):
        cluster.run()
    cluster.schedule(delay, lambda: ran.append(cluster.clock))
    cluster.run()
    assert ran == [delay]
    assert cluster._fg_pending == 0 and not cluster._ticks and not cluster._buckets


@pytest.mark.parametrize("background", [False, True])
def test_a_background_event_runs_but_holds_no_step_back(background):
    """A queued foreground event keeps the loop from issuing steps until it
    has run; a background event does not.  Either kind still runs, and moves
    the clock to its tick."""
    cluster = Cluster(SimConfig())
    cluster.create_table(TableDef("t"), [(1, 0)])
    steps = [parse_sql(sql, seq) for seq, sql in enumerate(["begin", "select t", "commit"], 1)]
    session = cluster.add_session("A", step_iter=iter(steps))
    seen = []
    cluster.schedule(
        50, lambda: seen.append((cluster.clock, list(session.outcomes))), background=background
    )
    cluster.run()
    assert seen == [(50, ["committed"] if background else [])]
    assert session.outcomes == ["committed"]
    assert (cluster.clock == 50) if background else (cluster.clock > 50)
