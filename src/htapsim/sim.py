"""Deterministic discrete-event simulator of the cluster.

One coordinator (site -1) plus N segments, a logical tick clock, and a single
event loop that runs events in tick order and, within a tick, in the order
they were scheduled.  Sessions execute scenario steps; statements dispatch
per-segment work over simulated messages; blocking is explicit lock-table
state with parked statement parts resumed on grant.  A `Cluster` is built
from its `SimConfig` alone and filled through `create_table` and
`add_session`; identical inputs produce an identical trace.

The two roles of a transaction live in their own modules:
- `segment.py`, the executor side (Greenplum's QE, query executor): each
  site's lock table and parked statement parts, a `Site` (the coordinator)
  or a `Segment` with its heap, commit log and xid mapping;
- `commit.py`, the end of a transaction on the coordinator (Greenplum's QD,
  query dispatcher): a commit under its protocol or an abort, one generator
  that waits on each message round it sends, with fsync accounting.

This module keeps `Cluster`: the event loop, the session driver, the
statement replies and the deadlock detector.  The detector runs as a
periodic background daemon, each run one `_gdd_run` that collects the wait
edges and one `_gdd_verdict` that detects and re-arms, and synchronously
for scripted `detect` steps.
`scenario.build_cluster` is the one place that builds a scenario's cluster,
as `bench.build` is for a workload's.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field
from functools import partial

from . import dtm as dtm_mod
from .commit import abort, commit
from .dtm import DistributedTxnManager, TransactionDescriptor, TxnState
from .gdd import DetectionVerdict, Outcome, break_deadlock, detect
from .resgroup import (
    N_CORES,
    Admission,
    AdmissionControl,
    ChargeResult,
    CpuScheduler,
    MemoryLedger,
    ResourceGroupConfig,
    ResourceGroups,
)
from .segment import BOOTSTRAP_LOCAL_XID, Segment, Site
from .steps import Step
from .store import Predicate, TableDef, route
from .trace import (
    ADMISSION_QUEUE,
    BEGIN,
    COORD,
    DISCARD,
    ISSUE,
    MEM_CANCEL,
    REDUCE,
    STEP_SKIPPED,
    STMT_DONE,
    TICK,
    VALIDATE,
    VERDICT,
    render,
)
from .waitgraph import GlobalWaitForGraph, WaitEdge, collect_global, snapshot_local

MESSAGE_DELAY = 1  # ticks per message on a link without its own delay
GLOBAL_MEMORY = 1000.0  # memory units that resource groups divide

# Per-transaction paths read these members as module constants: reading one
# off its Enum class costs several times as much as reading a global.
_ABORTED = TxnState.ABORTED
_ADMISSION_QUEUE = Admission.QUEUE
_CHARGE_CANCELLED = ChargeResult.CANCELLED


@dataclass
class SimConfig:
    n_segments: int = 3
    seed: int = 0  # read by nothing: the simulator draws no random numbers
    link_delays: dict = field(default_factory=dict)  # (src, dst) -> ticks
    # ticks between the detector daemon's runs; None runs no daemon, and a
    # scripted `detect` step still runs the detector
    gdd_period: int | None = 100
    legacy_locking: bool = False
    force_2pc: bool = False
    # issue order: strict (False) issues the lowest `seq` of all sessions'
    # next steps and waits while its session is busy; eager (True) issues each
    # session's next step as soon as that session is free.  In both, an
    # aborted transaction's remaining steps are dropped up to the next begin.
    eager: bool = False
    # ticks between a detector run's snapshots of its sites' wait edges, one
    # site after another, the coordinator first; 0 collects every site at once
    collection_skew: int = 0
    resource_groups: list[ResourceGroupConfig] = field(default_factory=list)
    # record trace events, read once when the cluster is built: their fields
    # are kept in one flat log and only rendered to text when `Cluster.trace`
    # is read; with it off, `Cluster._log` discards them
    trace_enabled: bool = True

    def __post_init__(self) -> None:
        _check_int("n_segments", self.n_segments, 1)
        if self.gdd_period is not None:
            _check_int("gdd_period: detector period", self.gdd_period, 1)
        _check_int("collection_skew", self.collection_skew, 0)
        # segment-to-segment links are legal, though no message takes one
        sites = range(-1, self.n_segments)
        for link, delay in self.link_delays.items():
            if not (isinstance(link, tuple) and len(link) == 2 and all(e in sites for e in link)):
                raise ValueError(f"link_delays: link {link!r} is not two sites of -1..{sites[-1]}")
            if link[0] == link[1]:
                raise ValueError(f"link_delays: link {link} joins a site to itself")
            _check_int(f"link_delays: link {link}: delay", delay, 0)


def _check_int(label: str, value, least: int) -> None:
    """Raise a `ValueError` that starts with `label` unless `value` is an
    int, not a bool, of at least `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{label} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{label} must be >= {least}, not {value}")


class Session:
    def __init__(self, sid: str, group: str | None = None, step_iter=None):
        self.sid = sid
        self.group = group
        # the session's own steps: a bench client's generator, or a scenario
        # session's steps in `seq` order
        self.step_iter = iter(()) if step_iter is None else step_iter
        self._next: Step | None = None  # one-step lookahead, see peek_step
        self.txn: TransactionDescriptor | None = None
        self.stmt: "Statement | None" = None
        self.queued = False  # waiting for an admission slot
        # the transaction's end in flight: the `commit.commit` or `commit.abort`
        # generator, suspended in a round until its last reply.  An abort
        # closes and replaces a commit; a reply to any other end is dropped
        self.end: Generator | None = None
        # aborted txn: drop its remaining steps up to the next begin
        self.skip_until_begin = False
        self.issue = None  # eager order's callback that issues its next step
        self.outcomes: list[str] = []
        self.txn_latencies: list[int] = []
        self.scan_results: list[tuple[int, list]] = []

    @property
    def free(self) -> bool:
        return self.stmt is None and not self.queued and self.end is None

    def peek_step(self) -> Step | None:
        """The next step, or None once the session has none left."""
        if self._next is None:
            self._next = next(self.step_iter, None)
        return self._next

    def pop_step(self) -> Step | None:
        """The next step, taken off the session; None once it has none left."""
        step = self._next
        if step is None:
            return next(self.step_iter, None)
        self._next = None
        return step


class Statement:
    __slots__ = ("session", "step", "txn", "cpu_left", "outstanding", "rows", "count", "dead")

    def __init__(self, session: Session, step: Step):
        self.session = session
        self.step = step
        self.txn = session.txn
        self.cpu_left = 0  # workers of its gang still to finish their burst
        self.outstanding = 0  # segment parts dispatched and not yet replied
        self.rows: list[tuple[int, int]] = []
        self.count = 0
        self.dead = False  # set by `commit.abort`, the only end of a running statement


class Cluster:
    """The simulated cluster plus its event loop."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.clock = 0
        # the event queue: one FIFO bucket of events per tick, and a heap of
        # the ticks that have a bucket; a background event is stored after a
        # None marker, because it does not count in `_fg_pending`
        self._buckets: dict[int, deque] = {}
        self._ticks: list[int] = []
        self._fg_pending = 0
        # trace events not yet rendered, see `trace.render`: a call site
        # records one with `_log((site, kind, *args))`, which extends the list
        # in place or, with tracing off, drops the event
        self._events: list = []
        self._log = self._events.extend if config.trace_enabled else deque(maxlen=0).extend
        self._trace_lines: list[str] = []  # the rendered trace, see `trace`
        self._trace_tick = 0  # the tick of the first events in `_events`

        self.dtm = DistributedTxnManager()
        self.coord = Site(self, COORD)
        self.segments = [Segment(self, s) for s in range(config.n_segments)]
        self.sites: list[Site] = [self.coord, *self.segments]
        # by-id views that `perfbench` reads until it reads results instead;
        # `accounting` is `dtm.transactions` itself, not a copy
        self.lock_tables = {site.id: site.locks for site in self.sites}
        self.stores = {seg.id: seg.store for seg in self.segments}
        self.local_states = {seg.id: seg.states for seg in self.segments}
        self.accounting = self.dtm.transactions

        self.catalog: dict[str, TableDef] = {}
        self.sessions: dict[str, Session] = {}
        # the dxids of the detector's victims, in the order it chose them; a
        # run that finds a deadlock chooses at least one
        self.victims: list[int] = []

        # all four exist iff there are groups, and `add_session` accepts only a
        # group of these, so a session with a group may use each of them
        self.resources: ResourceGroups | None = None
        self.admission: AdmissionControl | None = None
        self.ledger: MemoryLedger | None = None
        self.cpu: CpuScheduler | None = None
        if config.resource_groups:
            self.resources = ResourceGroups(config.resource_groups, GLOBAL_MEMORY, N_CORES)
            self.admission = AdmissionControl(self.resources)
            self.ledger = MemoryLedger(self.resources)
            self.cpu = CpuScheduler(self.resources)

        self._gdd_scheduled = False
        self._progress = 0
        self._gdd_last_progress = -1

        # bench counters
        self.inflight_updates = 0
        self.max_inflight_updates = 0
        self.committed_txns = 0
        self.aborted_txns = 0

    # ---------------------------------------------------------------- setup

    def create_table(self, table: TableDef, rows=()) -> None:
        if table.name in self.catalog:
            raise ValueError(f"duplicate table {table.name!r}")
        self.catalog[table.name] = table
        for seg in self.segments:
            seg.store.create_table(table)
        for values in rows:
            seg = self.segments[route(table.dist_value(values), self.config.n_segments)]
            seg.store.insert_frozen(table.name, tuple(values), BOOTSTRAP_LOCAL_XID)

    def add_session(self, sid: str, group: str | None = None, step_iter=None) -> Session:
        if sid in self.sessions:
            raise ValueError(f"duplicate session id {sid!r}")
        if group is not None and (self.resources is None or group not in self.resources):
            raise ValueError(f"session {sid}: unknown resource group {group!r}")
        session = Session(sid, group, step_iter=step_iter)
        session.issue = partial(self._issue_for_session, session)
        self.sessions[sid] = session
        return session

    # ------------------------------------------------------------ event loop

    @property
    def trace(self) -> list[str]:
        """The text trace, one `tick|site|kind|details` line per event.

        Events recorded since the last read are rendered into the cached list
        and then dropped, so the list returned grows as the run goes on; the
        tick in force at the end of one read is the tick of the next read's
        first events."""
        if self._events:
            lines, self._trace_tick = render(self._events, self._trace_tick)
            self._trace_lines.extend(lines)
            self._events.clear()
        return self._trace_lines

    def schedule(self, delay: int, fn, background: bool = False) -> None:
        """Run `fn` `delay` (>= 0) ticks from now, after every event already
        scheduled for that tick.

        A background event (the detector daemon, a staggered collection, a
        CPU tick) does not count in `_fg_pending`, so the loop goes on issuing
        steps while one is queued.  It still runs: `run` reaches fixpoint
        only once no event of either kind is queued, and moves the clock to
        each.  That is why `_gdd_verdict` and `_cpu_tick` stop re-arming
        once they can do nothing more."""
        tick = self.clock + delay
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = deque()
            heapq.heappush(self._ticks, tick)
        if background:
            bucket.append(None)
        else:
            self._fg_pending += 1
        bucket.append(fn)

    def send(self, src: int, dst: int, fn) -> None:
        delays = self.config.link_delays
        self.schedule(delays.get((src, dst), MESSAGE_DELAY) if delays else MESSAGE_DELAY, fn)

    def run(self, until_tick: int | None = None, stop_when=None) -> None:
        """Drive the loop to fixpoint, a tick bound, or a predicate.

        With a tick bound it returns before any event past the bound and as
        soon as the clock has reached the bound, so after at most one event
        at the bound; the next call goes on from there.  Each time the clock
        moves, a tick mark goes into the trace log."""
        ticks, buckets = self._ticks, self._buckets
        while True:
            if stop_when is not None and stop_when(self):
                return
            if until_tick is not None and self.clock >= until_tick:
                return
            if self._fg_pending == 0:
                if self._try_issue():
                    continue
                if not ticks:
                    return  # fixpoint: nothing pending, nothing issuable
            tick = ticks[0]
            if until_tick is not None and tick > until_tick:
                return
            if tick != self.clock:
                self.clock = tick
                self._log((TICK, tick))
            bucket = buckets[tick]
            # run the bucket's events in a row while none of the checks above
            # can stop the loop; an event may append to the bucket.  The tick
            # goes once its bucket is empty, so an event that raises leaves at
            # most an empty bucket, which the next call drops
            drain = stop_when is None and (until_tick is None or tick < until_tick)
            while bucket:
                fn = bucket.popleft()
                if fn is None:
                    fn = bucket.popleft()  # a background event
                else:
                    self._fg_pending -= 1
                fn()
                if not (drain and self._fg_pending):
                    break
            if not bucket:
                heapq.heappop(ticks)
                del buckets[tick]

    def blocked_sessions(self) -> list[str]:
        """Sessions stuck mid-statement (the stall oracle's blocked set)."""
        return [
            sid
            for sid in sorted(self.sessions)
            if self.sessions[sid].stmt is not None
        ]

    # ------------------------------------------------------------- issuance

    def _try_issue(self) -> bool:
        """Issue what the issue order lets go now; True if anything went.

        Eager order issues each free session's next steps.  Strict order
        takes the lowest `seq` among the sessions' next steps: a `detect` runs
        at once, a step of a session skipping after an abort is traced as
        `step_skipped` and dropped, and any other step waits until its session
        is free.  `parse_scenario` rejects duplicate `seq`s, so only a
        `Scenario` built in code can tie; a tie goes to the lower session id.
        """
        if self.config.eager:
            issued = False
            for sid in sorted(self.sessions):
                while self._issue_for_session(self.sessions[sid]):
                    issued = True
            return issued
        while True:
            waiting = [s for s in self.sessions.values() if s.peek_step() is not None]
            if not waiting:
                return False
            session = min(waiting, key=lambda s: (s.peek_step().seq, s.sid))
            step = session.peek_step()
            if session.skip_until_begin and step.kind not in ("begin", "detect"):
                self._log(("driver", STEP_SKIPPED, step.seq, session.sid))
                session.pop_step()
                continue
            if step.kind != "detect" and not session.free:
                return False
            self._issue_step(session, session.pop_step())
            return True

    def _issue_for_session(self, session: Session) -> bool:
        """Issue the session's next step if it is free, first dropping what
        is left of an aborted transaction."""
        if not session.free:
            return False
        step = session.pop_step()
        while session.skip_until_begin and step is not None and step.kind != "begin":
            step = session.pop_step()
        if step is None:
            return False
        self._issue_step(session, step)
        return True

    def _issue_step(self, session: Session, step: Step) -> None:
        if step.kind == "detect":
            self._detect_on(self.collect_graph())
            return
        self._log(("driver", ISSUE, step.seq, session.sid, step.raw))
        if step.kind == "begin":
            session.skip_until_begin = False
            if session.txn is not None:
                raise RuntimeError(
                    f"session {session.sid}: begin inside an open transaction"
                )
            self._do_begin(session)
            return
        if session.txn is None:
            raise RuntimeError(
                f"session {session.sid}: statement {step.raw!r} outside a transaction"
            )
        if step.kind == "commit":
            self._start_end(session, commit(self, session))
            return
        if step.kind == "abort":
            self._start_abort(session, "user")
            return
        session.txn.command_id += 1
        stmt = Statement(session, step)
        session.stmt = stmt
        if step.mem is not None and session.group:
            result = self.ledger.charge(session.sid, session.group, step.mem)
            if result is _CHARGE_CANCELLED:
                self._log(("coord", MEM_CANCEL, session.sid, step.mem))
                self._start_abort(session, "memory_cancelled")
                return
        if step.cpu and session.group:
            # one worker per segment: the statement's gang occupies a core on
            # each until the burst completes everywhere.  A CPU tick is queued
            # exactly while the scheduler has work, so an idle one gets one
            if not self.cpu.has_work():
                self.schedule(1, self._cpu_tick, background=True)
            for k in range(self.config.n_segments):
                self.cpu.submit((stmt, k), session.group, step.cpu)
            stmt.cpu_left = self.config.n_segments
            return
        self.coord.resume(self.coord.work(stmt))

    def _do_begin(self, session: Session) -> None:
        if session.group and self.admission.admit(session.sid, session.group) is _ADMISSION_QUEUE:
            session.queued = True
            self._log(("coord", ADMISSION_QUEUE, session.sid))
            return
        self._begin_admitted(session)

    def _begin_admitted(self, session: Session) -> None:
        session.queued = False
        txn = self.dtm.begin(self.clock, session.sid)
        session.txn = txn
        snap = txn.snapshot
        self._log(("coord", BEGIN, session.sid, txn.dxid, snap.in_progress, snap.max_committed))
        self._session_freed(session)

    def _dispatch_parts(self, stmt: Statement) -> None:
        """Send the statement's parts from the coordinator: an insert to the
        segments its rows route to, in segment order; a statement whose
        predicate pins the distribution key to that key's segment; any other
        to every segment."""
        step = stmt.step
        table = self.catalog[step.table]
        n = self.config.n_segments
        if step.kind == "insert":
            rows_at: dict[int, list | None] = {}
            for values in step.rows:
                rows_at.setdefault(route(table.dist_value(values), n), []).append(
                    tuple(values)
                )
            rows_at = dict(sorted(rows_at.items()))
        else:
            pinned = step.pred.pinned_key(table) if step.pred is not None else None
            segs = range(n) if pinned is None else [route(pinned, n)]
            rows_at = dict.fromkeys(segs)
        if step.kind == "update":
            self.inflight_updates += 1
            self.max_inflight_updates = max(
                self.max_inflight_updates, self.inflight_updates
            )
        stmt.outstanding = len(rows_at)
        for s, rows in rows_at.items():
            seg = self.segments[s]
            self.send(COORD, s, partial(seg.resume, seg.work(stmt, rows)))

    # ------------------------------------------------ segment-side replies

    def _part_reply(self, stmt: Statement, count: int, rows, failed: str | None) -> None:
        """A segment part's reply (`Site.reply`), dropped once its statement
        has died.  A failed part aborts the transaction and leaves
        `outstanding` as it is, so `commit.abort` still sees the statement's
        dispatch in flight; the last reply completes the statement."""
        if stmt.dead:
            return
        session = stmt.session
        if failed is not None:
            self._start_abort(session, failed)
            return
        if rows:
            stmt.rows.extend(rows)
        stmt.count += count
        stmt.outstanding -= 1
        if stmt.outstanding:
            return
        if stmt.step.kind == "update":
            self.inflight_updates -= 1
        stmt.rows.sort()
        if stmt.step.kind == "select":
            session.scan_results.append((stmt.step.seq, list(stmt.rows)))
        self._log(("coord", STMT_DONE, session.sid, stmt.step.seq, stmt.count))
        session.stmt = None
        self._progress += 1
        self._session_freed(session)

    def _session_freed(self, session: Session) -> None:
        if self.config.eager:
            self.schedule(0, session.issue)

    # ------------------------------------------------------- transaction end

    def _start_end(self, session: Session, end: Generator) -> None:
        """Make `end` the session's end in flight and run it to its first wait."""
        session.end = end
        next(end, None)

    def _start_abort(self, session: Session, reason: str) -> None:
        """Abort the session's open transaction, closing a commit in flight;
        nothing if an abort is under way.  Every caller has checked that the
        session's transaction is open."""
        if session.end is not None:
            if session.end.gi_code is abort.__code__:
                return  # already aborting
            session.end.close()
        self._start_end(session, abort(self, session, reason))

    def _prepare_veto(self, seg: int, txn: TransactionDescriptor) -> bool:
        return False  # test hook, given a segment id: patched to inject prepare failures

    # ------------------------------------------------------ deadlock breaking

    def abort_transaction(self, dxid: int, reason: str = "deadlock_victim") -> None:
        txn = self.dtm.transactions.get(dxid)
        session = self.sessions.get(txn.sid) if txn is not None else None
        if session is None or session.txn is not txn:
            return
        self._start_abort(session, reason)

    # ------------------------------------------------------------ gdd daemon

    def _ensure_gdd_scheduled(self) -> None:
        if self.config.gdd_period is None or self._gdd_scheduled:
            return
        self._gdd_scheduled = True
        self.schedule(self.config.gdd_period, self._gdd_run, background=True)

    def _gdd_run(self) -> None:
        """One run of the detector daemon, while a session is blocked:
        collect every site's wait edges, then `_gdd_verdict`.  With a
        collection skew the run snapshots one site every `collection_skew`
        ticks into its own edge list: a lock wait during the collection can
        arm the next run before this one ends, and each must see a whole
        graph."""
        self._gdd_scheduled = False
        if not self.blocked_sessions():
            return  # re-armed by the next lock wait
        skew = self.config.collection_skew
        if not skew:
            self._gdd_verdict(self.collect_graph())
            return
        edges: list[WaitEdge] = []
        for i, site in enumerate(self.sites):
            self.schedule(
                skew * i,
                lambda s=site: edges.extend(snapshot_local(s.locks)),
                background=True,
            )
        self.schedule(
            skew * len(self.sites),
            lambda: self._gdd_verdict(GlobalWaitForGraph(edges)),
            background=True,
        )

    def _gdd_verdict(self, graph: GlobalWaitForGraph) -> None:
        """Detect on the run's graph, then re-arm after a deadlock or once a
        statement has completed since the last re-arm; otherwise detection
        cannot help, so the daemon stops (the run loop surfaces the stall)."""
        verdict = self._detect_on(graph)
        if verdict.outcome is Outcome.DEADLOCK or self._progress != self._gdd_last_progress:
            self._gdd_last_progress = self._progress
            self._ensure_gdd_scheduled()

    def collect_graph(self) -> GlobalWaitForGraph:
        return collect_global([site.locks for site in self.sites])

    def _detect_on(self, graph: GlobalWaitForGraph) -> DetectionVerdict:
        verdict = detect(graph, self.dtm.is_live)
        for step in verdict.steps:
            self._log(("gdd", REDUCE, step))
        self._log(
            ("gdd", VERDICT, verdict.outcome, tuple(verdict.residual_edges), verdict.victims)
        )
        if verdict.outcome is Outcome.DEADLOCK:
            self.victims += verdict.victims
            self._log(("gdd", VALIDATE))
            break_deadlock(verdict, self)
        elif verdict.outcome is Outcome.STALE:
            self._log(("gdd", DISCARD))
        return verdict

    # ------------------------------------------------------------- cpu ticks

    def _cpu_tick(self) -> None:
        for stmt, _ in self.cpu.tick():
            stmt.cpu_left -= 1
            if stmt.cpu_left == 0 and not stmt.dead:
                self.schedule(0, partial(self.coord.resume, self.coord.work(stmt)))
        if self.cpu.has_work():
            self.schedule(1, self._cpu_tick, background=True)

    # --------------------------------------------------------------- results

    def session_outcome(self, sid: str) -> str:
        """`stalled` while the session has a statement in flight, waits for
        admission or has a step not yet issued; `open` while its transaction
        has begun and not ended; otherwise the outcome of its last
        transaction, or `idle` if it finished none."""
        session = self.sessions[sid]
        if session.stmt is not None or session.queued or session.peek_step() is not None:
            return "stalled"
        if session.txn is not None:
            return "open"
        if session.outcomes:
            return session.outcomes[-1]
        return "idle"

    def final_verdict(self) -> str:
        return "deadlock" if self.victims else "clean"

    def state_digest(self) -> str:
        """Canonical serialization of committed visible state, for dual-run diffs."""
        snap = self.dtm.current_snapshot()
        parts = []
        for name in sorted(self.catalog):
            table = self.catalog[name]
            rows = []
            for seg in self.segments:
                rows.extend(
                    v.values for _, v in seg.store.scan(table, Predicate(), seg.visibility(snap))
                )
            rows.sort()
            parts.append(f"{name}:{rows}")
        return ";".join(parts)

    def metrics_csv(self) -> str:
        lines = ["dxid,protocol,msg_prepare,msg_commit,fsyncs,latency_ticks"]
        prepare, commit, fsyncs = dtm_mod.MSG_PREPARE, dtm_mod.MSG_COMMIT, dtm_mod.FSYNCS
        for dxid in sorted(self.dtm.transactions):
            txn = self.dtm.transactions[dxid]
            protocol = txn.protocol.value if txn.protocol else (
                "aborted" if txn.state is _ABORTED else "open"
            )
            counted = txn.counted
            lines.append(
                f"{dxid},{protocol},{counted(prepare)},{counted(commit)},"
                f"{sum([counted(kind) for kind in fsyncs])},{txn.latency_ticks}"
            )
        return "\n".join(lines) + "\n"

