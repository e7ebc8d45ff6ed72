"""The event loop runs events in tick order and, within a tick, in the order
they were scheduled, whatever run windows it is driven in.

`ReferenceLoop` keeps that order the plain way, as a heap of (tick, sequence
number, background, fn) entries, and is the reference for `Cluster`'s
per-tick buckets.
"""

import heapq

from hypothesis import given, settings, strategies as st

from htapsim.sim import Cluster, SimConfig


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
