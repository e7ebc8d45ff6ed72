"""Flow-controlled motion channels between slice processes.

Reproduces the redistribute-both-sides join dataflow whose bounded, ACK-based
channels can deadlock: a join process that has consumed an outer tuple stops
draining outers while it waits for inner tuples, the outer producer fills its
send buffer toward that join, and with adversarial routing a four-process wait
cycle forms.  Prefetching (materializing) the whole inner side before touching
the outer side breaks the cycle.

Channels are in-memory bounded queues; a sender is blocked exactly when its
unacked count equals the channel capacity, and a receive acks immediately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .gdd import first_cycle
from .store import route

OUTER_SLICE = 1
INNER_SLICE = 2
JOIN_SLICE = 3


@dataclass(frozen=True, order=True)
class ProcId:
    slice_id: int
    segment: int

    def __str__(self) -> str:
        return f"p(seg{self.segment},slice{self.slice_id})"


class Channel:
    def __init__(self, sender: ProcId, receiver: ProcId, capacity: int):
        self.sender = sender
        self.receiver = receiver
        self.capacity = capacity
        self.queue: deque[int] = deque()
        self.closed = False

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.capacity

    def send(self, value: int) -> bool:
        if self.full:
            return False
        self.queue.append(value)
        return True

    def recv(self):
        """Pop one tuple; the implicit ACK frees the sender's buffer slot."""
        return self.queue.popleft()

    def drained(self) -> bool:
        return self.closed and not self.queue


class Producer:
    """One slice-1 or slice-2 process: scans its shard, redistributes tuples."""

    def __init__(self, pid: ProcId, rows: list[int], out: dict[int, Channel]):
        self.pid = pid
        self.rows = rows
        self.out = out
        self.idx = 0
        self.closed = False
        self.blocked_on: Channel | None = None

    @property
    def done(self) -> bool:
        return self.closed

    def step(self) -> bool:
        self.blocked_on = None
        if self.idx < len(self.rows):
            key = self.rows[self.idx]
            ch = self.out[route(key, len(self.out))]
            if not ch.send(key):
                self.blocked_on = ch
                return False
            self.idx += 1
            return True
        if not self.closed:
            for seg in sorted(self.out):
                self.out[seg].closed = True
            self.closed = True
            return True
        return False


class JoinConsumer:
    """One slice-3 process, fed by every outer and inner producer.

    Without prefetch it reads a single outer tuple, then drains the inner side
    completely, then reads the remaining outers.  With prefetch it drains and
    materializes the whole inner side before the first outer read.
    """

    def __init__(
        self,
        pid: ProcId,
        outer_in: list[Channel],
        inner_in: list[Channel],
        prefetch: bool,
    ):
        self.pid = pid
        self.outer_in = outer_in
        self.inner_in = inner_in
        self.prefetch = prefetch
        self.phase = "drain_inner" if prefetch else "first_outer"
        self.outer_seen: list[int] = []
        self.inner_seen: list[int] = []
        self.done = False
        self.blocked_channels: list[Channel] = []

    def _read_any(self, channels: list[Channel], sink: list[int]) -> str:
        for ch in channels:
            if ch.queue:
                sink.append(ch.recv())
                return "read"
        if all(ch.drained() for ch in channels):
            return "exhausted"
        self.blocked_channels = [ch for ch in channels if not ch.drained()]
        return "blocked"

    def step(self) -> bool:
        self.blocked_channels = []
        if self.done:
            return False
        if self.phase == "first_outer":
            got = self._read_any(self.outer_in, self.outer_seen)
            if got == "read" or got == "exhausted":
                self.phase = "drain_inner"
                return True
            return False
        if self.phase == "drain_inner":
            got = self._read_any(self.inner_in, self.inner_seen)
            if got == "read":
                return True
            if got == "exhausted":
                self.phase = "rest_outer"
                return True
            return False
        if self.phase == "rest_outer":
            got = self._read_any(self.outer_in, self.outer_seen)
            if got == "read":
                return True
            if got == "exhausted":
                self.done = True
                return True
            return False
        raise AssertionError(f"unknown phase {self.phase}")


class JoinOutcome(Enum):
    COMPLETED = "completed"
    STALLED = "stalled"


@dataclass
class JoinResult:
    outcome: JoinOutcome
    wait_cycle: list[tuple[ProcId, ProcId]] = field(default_factory=list)
    outer_delivered: int = 0
    inner_delivered: int = 0

    def describe(self) -> str:
        if self.outcome is JoinOutcome.COMPLETED:
            return "COMPLETED"
        lines = ["STALLED"]
        for waiter, holder in self.wait_cycle:
            lines.append(f"  {waiter} waits for {holder}")
        return "\n".join(lines)


def adversarial_rows(n_segments: int, capacity: int) -> tuple[dict, dict]:
    """Routing skew that wedges the no-prefetch plan at the given capacity.

    Outer shard on segment 1 sends capacity+2 tuples toward segment 0 before
    its single segment-1 tuple; inner shard on segment 2 sends capacity+1
    tuples toward segment 1 before its single segment-0 tuple.
    """
    outer = {seg: [] for seg in range(n_segments)}
    inner = {seg: [] for seg in range(n_segments)}
    outer[1] = [0] * (capacity + 2) + [1]
    inner[2] = [1] * (capacity + 1) + [0]
    return outer, inner


def run_join_scenario(
    n_segments: int = 3,
    capacity: int = 2,
    prefetch: bool = False,
    outer_rows: dict[int, list[int]] | None = None,
    inner_rows: dict[int, list[int]] | None = None,
) -> JoinResult:
    """Execute the two-table redistribute join dataflow to completion or stall."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if capacity < 1:
        raise ValueError("channel capacity must be at least 1")
    if outer_rows is None or inner_rows is None:
        if n_segments < 3:
            raise ValueError("the built-in adversarial routing needs 3 segments")
        outer_rows, inner_rows = adversarial_rows(n_segments, capacity)

    channels: dict[tuple[ProcId, ProcId], Channel] = {}

    def make_channels(slice_id: int) -> dict[int, dict[int, Channel]]:
        per_sender = {}
        for src in range(n_segments):
            sender = ProcId(slice_id, src)
            per_sender[src] = {}
            for dst in range(n_segments):
                receiver = ProcId(JOIN_SLICE, dst)
                ch = Channel(sender, receiver, capacity)
                channels[(sender, receiver)] = ch
                per_sender[src][dst] = ch
        return per_sender

    outer_ch = make_channels(OUTER_SLICE)
    inner_ch = make_channels(INNER_SLICE)

    procs: list = []
    for seg in range(n_segments):
        procs.append(Producer(ProcId(OUTER_SLICE, seg), outer_rows.get(seg, []), outer_ch[seg]))
    for seg in range(n_segments):
        procs.append(Producer(ProcId(INNER_SLICE, seg), inner_rows.get(seg, []), inner_ch[seg]))
    consumers = []
    for seg in range(n_segments):
        outer_in = [outer_ch[src][seg] for src in range(n_segments)]
        inner_in = [inner_ch[src][seg] for src in range(n_segments)]
        c = JoinConsumer(ProcId(JOIN_SLICE, seg), outer_in, inner_in, prefetch)
        consumers.append(c)
        procs.append(c)

    # cooperative round-robin until a full pass makes no progress
    while True:
        progressed = False
        for p in procs:
            if p.step():
                progressed = True
        if not progressed:
            break

    outer_n = sum(len(c.outer_seen) for c in consumers)
    inner_n = sum(len(c.inner_seen) for c in consumers)
    if all(p.done for p in procs):
        return JoinResult(JoinOutcome.COMPLETED, [], outer_n, inner_n)

    edges: dict[ProcId, list[ProcId]] = {}
    for p in procs:
        if isinstance(p, Producer) and p.blocked_on is not None:
            edges.setdefault(p.pid, []).append(p.blocked_on.receiver)
        elif isinstance(p, JoinConsumer) and p.blocked_channels:
            for ch in p.blocked_channels:
                edges.setdefault(p.pid, []).append(ch.sender)
    nodes = first_cycle(edges)
    cycle = list(zip(nodes, nodes[1:] + nodes[:1]))
    return JoinResult(JoinOutcome.STALLED, cycle, outer_n, inner_n)

