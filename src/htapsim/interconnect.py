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

    def send(self, value: int) -> bool:
        if len(self.queue) >= self.capacity:
            return False
        self.queue.append(value)
        return True

    def recv(self):
        """Pop one tuple; the implicit ACK frees the sender's buffer slot."""
        return self.queue.popleft()

    def drained(self) -> bool:
        return self.closed and not self.queue


def _produce(rows: list[int], out: list[Channel]):
    """One slice-1 or slice-2 process: scans its shard, redistributes tuples,
    then closes every outgoing channel."""
    for key in rows:
        ch = out[route(key, len(out))]
        while not ch.send(key):
            yield (ch.receiver,)
        yield ()
    for ch in out:
        ch.closed = True
    yield ()


def _read(channels: list[Channel], sink: list[int], limit: int = -1):
    """Receive up to `limit` tuples (all if negative), one a step, each from
    the first channel holding one.  The step that finds every channel drained
    ends the read."""
    while limit:
        ready = next((ch for ch in channels if ch.queue), None)
        if ready is not None:
            sink.append(ready.recv())
            limit -= 1
        elif all(ch.drained() for ch in channels):
            limit = 0
        else:
            yield tuple(ch.sender for ch in channels if not ch.drained())
            continue
        yield ()


def _join(
    outer_in: list[Channel],
    inner_in: list[Channel],
    prefetch: bool,
    outer_seen: list[int],
    inner_seen: list[int],
):
    """One slice-3 process, fed by every outer and inner producer.

    Without prefetch it reads a single outer tuple, then drains the inner side
    completely, then reads the remaining outers.  With prefetch it drains and
    materializes the whole inner side before the first outer read.
    """
    if not prefetch:
        yield from _read(outer_in, outer_seen, limit=1)
    yield from _read(inner_in, inner_seen)
    yield from _read(outer_in, outer_seen)


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

    def make_channels(slice_id: int) -> list[list[Channel]]:
        return [
            [
                Channel(ProcId(slice_id, src), ProcId(JOIN_SLICE, dst), capacity)
                for dst in range(n_segments)
            ]
            for src in range(n_segments)
        ]

    outer_ch = make_channels(OUTER_SLICE)
    inner_ch = make_channels(INNER_SLICE)
    outer_seen: list[int] = []
    inner_seen: list[int] = []

    # each process is a generator yielding () after a step that made progress
    # and the processes it waits for when blocked; an ended one is dropped
    procs = {}
    for slice_id, rows, out in (
        (OUTER_SLICE, outer_rows, outer_ch),
        (INNER_SLICE, inner_rows, inner_ch),
    ):
        for seg in range(n_segments):
            procs[ProcId(slice_id, seg)] = _produce(rows.get(seg, []), out[seg])
    for seg in range(n_segments):
        procs[ProcId(JOIN_SLICE, seg)] = _join(
            [row[seg] for row in outer_ch],
            [row[seg] for row in inner_ch],
            prefetch,
            outer_seen,
            inner_seen,
        )

    # cooperative round-robin until a full pass makes no progress
    while True:
        waits = {}
        for pid, proc in list(procs.items()):
            wait = next(proc, None)
            if wait is None:
                del procs[pid]
            elif wait:
                waits[pid] = wait
        if len(waits) == len(procs):
            break

    if not procs:
        return JoinResult(JoinOutcome.COMPLETED, [], len(outer_seen), len(inner_seen))
    nodes = first_cycle(waits)
    cycle = list(zip(nodes, nodes[1:] + nodes[:1]))
    return JoinResult(JoinOutcome.STALLED, cycle, len(outer_seen), len(inner_seen))
