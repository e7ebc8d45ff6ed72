"""Outside-in per-layer tracing of htapsim.

A ``Tracer`` replaces the public functions and methods of each layer with
wrappers that time the call and record a span (name, start, end, parent,
simulated tick).  A layer's self time is its spans' duration minus the time
of the traced calls made inside them.  Calls made once per tuple version
(``dtm.visible``, ``SegmentStore.visible_version``) would be millions of
spans on a long run; they are folded into their parent span as a count and a
time instead of being stored one by one.

Each wrapper is installed where the caller looks the name up: the module
attribute for functions the simulator calls through a module, the class
attribute for methods.  Nothing under ``src/`` is changed on disk, and
``installed()`` puts every original back when it exits.  ``Cluster.schedule``
is only counted, as the event count.  ``write_spans`` saves the spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter_ns

import htapsim.bench
import htapsim.dtm
import htapsim.sim
from htapsim import (
    AcquireResult,
    Admission,
    AdmissionControl,
    Cluster,
    CpuScheduler,
    DistributedTxnManager,
    LockTable,
    MemoryLedger,
    Outcome,
    SegmentStore,
)


class Tracer:
    """Spans and per-layer counters of one traced run."""

    def __init__(self):
        self.clock = lambda: 0  # simulated tick source, set once the cluster exists
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, tick)
        self.totals: dict[str, list[int]] = {}  # name -> [calls, self ns]
        self.top_ns = 0  # time inside outermost traced calls
        self._stack: list[list] = []  # open calls: [owning span index, child ns]
        # layer counters, filled by the observers below
        self.events = 0
        self.acquire_blocked = 0
        self.lock_waits: list[int] = []
        self.collect_edges = 0
        self.deadlock_verdicts = 0
        self.victims = 0
        self.rows_examined = 0
        self.rows_returned = 0
        self.admitted = 0
        self.admission_queued = 0
        self._queued_at: dict = {}
        self.admission_waits: list[int] = []
        self._submitted: dict = {}
        self.cpu_stretches: list[float] = []

    def calls(self, name: str) -> int:
        return self.totals[name][0]

    def self_s(self, name: str) -> float:
        return self.totals[name][1] / 1e9

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines: [name, start ns, end ns, parent index, tick]."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn, observe=None):
        """Wrap `fn` so each call becomes a stored span."""
        spans, stack = self.spans, self._stack
        total = self.totals.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            tick = self.clock()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tick, args, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(end - start, frame[1], total)
                spans[index] = (name, start, end, parent, tick)

        return wrapper

    def _folded(self, name: str, fn):
        """Wrap `fn` so its calls only add to a count and a time."""
        stack = self._stack
        total = self.totals.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                self._close(duration, frame[1], total)

        return wrapper

    def _close(self, duration: int, child_ns: int, total: list[int]) -> None:
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_ns += duration
        total[0] += 1
        total[1] += duration - child_ns

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.events += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- observers

    def _on_acquire(self, tick, args, result) -> None:
        if result[0] is AcquireResult.BLOCKED:
            self.acquire_blocked += 1

    def _on_release(self, tick, args, promoted) -> None:
        self.lock_waits.extend(tick - req.enqueue_tick for req in promoted)

    def _on_collect(self, tick, args, graph) -> None:
        self.collect_edges += len(graph.edges())

    def _on_detect(self, tick, args, verdict) -> None:
        if verdict.outcome is Outcome.DEADLOCK:
            self.deadlock_verdicts += 1

    def _on_break(self, tick, args, aborted) -> None:
        self.victims += len(aborted)

    def _on_scan(self, tick, args, rows) -> None:
        store, table_def = args[0], args[1]
        self.rows_examined += len(store.tables.get(table_def.name, ()))
        self.rows_returned += len(rows)

    def _on_admit(self, tick, args, admission) -> None:
        self.admitted += 1
        if admission is Admission.QUEUE:
            self.admission_queued += 1
            self._queued_at[args[1]] = tick

    def _on_complete(self, tick, args, admitted) -> None:
        if admitted is not None:
            self.admission_waits.append(tick - self._queued_at.pop(admitted))

    def _on_submit(self, tick, args, result) -> None:
        query, burst = args[1], args[3]
        self._submitted[query] = (tick, burst)

    def _on_cpu_tick(self, tick, args, finished) -> None:
        for query in finished:
            submitted, burst = self._submitted.pop(query)
            self.cpu_stretches.append((tick - submitted) / burst)

    # ------------------------------------------------------------- install

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced call."""
        span, folded = self._span, self._folded

        def named(name, observe=None):
            return lambda fn: span(name, fn, observe)

        return [
            (htapsim.sim, "detect", named("gdd.detect", self._on_detect)),
            (htapsim.sim, "break_deadlock", named("gdd.break_deadlock", self._on_break)),
            (htapsim.sim, "collect_global", named("waitgraph.collect", self._on_collect)),
            (htapsim.dtm, "visible", lambda fn: folded("dtm.visible", fn)),
            (htapsim.bench, "parse_sql", named("scenario.parse_sql")),
            (Cluster, "schedule", self._counted),
            (LockTable, "acquire", named("locks.acquire", self._on_acquire)),
            (LockTable, "release_all", named("locks.release_all", self._on_release)),
            (
                LockTable,
                "release_tuple_lock",
                named("locks.release_tuple_lock", self._on_release),
            ),
            (LockTable, "locks_of", named("locks.locks_of")),
            (LockTable, "waiting_requests", named("locks.waiting_requests")),
            (LockTable, "blockers_of", named("locks.blockers_of")),
            (DistributedTxnManager, "begin", named("dtm.begin")),
            (DistributedTxnManager, "current_snapshot", named("dtm.current_snapshot")),
            (DistributedTxnManager, "plan_commit", named("dtm.plan_commit")),
            (DistributedTxnManager, "mark_committed", named("dtm.mark_committed")),
            (DistributedTxnManager, "mark_aborted", named("dtm.mark_aborted")),
            (SegmentStore, "scan", named("store.scan", self._on_scan)),
            (SegmentStore, "visible_version", lambda fn: folded("store.visible_version", fn)),
            (SegmentStore, "insert_version", named("store.insert_version")),
            (SegmentStore, "stamp_and_append", named("store.stamp_and_append")),
            (CpuScheduler, "submit", named("resgroup.submit", self._on_submit)),
            (CpuScheduler, "tick", named("resgroup.cpu_tick", self._on_cpu_tick)),
            (CpuScheduler, "has_work", named("resgroup.has_work")),
            (AdmissionControl, "admit", named("resgroup.admit", self._on_admit)),
            (AdmissionControl, "complete", named("resgroup.complete", self._on_complete)),
            (MemoryLedger, "charge", named("resgroup.charge")),
            (MemoryLedger, "release", named("resgroup.release")),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer call made inside the block."""
        originals = []
        try:
            for owner, attr, wrap in self._targets():
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
