"""Deterministic discrete-event simulator of the cluster.

One coordinator (site -1) plus N segments, a logical tick clock, and a single
event loop that runs events in tick order and, within a tick, in the order
they were scheduled.  Sessions execute scenario steps; statements dispatch
per-segment work over simulated messages; blocking is explicit lock-table
state with parked statement parts resumed on grant.  Each site's own state is
one object, a `Site` (the coordinator) or a `Segment`; `Cluster` keeps the
event loop and the message rounds.  The deadlock detector runs
as a periodic background task (and synchronously for scripted `detect`
steps); commit protocols are message exchanges with fsync accounting.
Identical (config, scenario) produces an identical trace.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from functools import partial

from . import dtm as dtm_mod
from .dtm import (
    CommitAccounting,
    DistributedTxnManager,
    Protocol,
    TransactionDescriptor,
    TxnState,
    XidMapping,
)
from .gdd import (
    DetectionVerdict,
    GddConfig,
    Outcome,
    ReductionStep,
    break_deadlock,
    detect,
)
from .locks import AcquireResult, LockMode, LockTable, LockTag, TagKind
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
from .scenario import Scenario, Step
from .store import Predicate, SegmentStore, TableDef, route
from .waitgraph import GlobalWaitForGraph, WaitEdge, collect_global, snapshot_local

COORD = -1
BOOTSTRAP_LOCAL_XID = 0  # preloaded rows belong to this always-committed xid
MESSAGE_DELAY = 1  # ticks per message on a link without its own delay
GLOBAL_MEMORY = 1000.0  # memory units that resource groups divide

# the relation lock each statement kind takes, on the coordinator and on every
# segment it reaches; legacy locking overrides "update" (see Site.work)
RELATION_LOCK_MODE = {
    "update": LockMode.ROW_EXCLUSIVE,
    "insert": LockMode.ROW_EXCLUSIVE,
    "select": LockMode.ACCESS_SHARE,
    "lock": LockMode.ACCESS_EXCLUSIVE,
}


@dataclass
class SimConfig:
    n_segments: int = 3
    seed: int = 0  # read by nothing: the simulator draws no random numbers
    link_delays: dict = field(default_factory=dict)  # (src, dst) -> ticks
    gdd_enabled: bool = True
    gdd: GddConfig = field(default_factory=GddConfig)
    legacy_locking: bool = False
    force_2pc: bool = False
    # issue order: strict (False) issues the lowest `seq` of all sessions'
    # next steps and waits while its session is busy; eager (True) issues each
    # session's next step as soon as that session is free.  In both, an
    # aborted transaction's remaining steps are dropped up to the next begin.
    eager: bool = False
    collection_skew: int = 0  # ticks between per-segment graph snapshots
    resource_groups: list[ResourceGroupConfig] = field(default_factory=list)
    # record trace events; their fields are kept in one flat log and only
    # rendered to text when `Cluster.trace` is read
    trace_enabled: bool = True


def _render_events(log: list) -> list[str]:
    """The `tick|site|kind|details` trace lines of a `Cluster._trace` log."""
    lines = []
    i, end = 0, len(log)
    while i < end:
        n, tick, site, kind, template = log[i : i + 5]
        args = log[i + 5 : i + 5 + n]
        i += 5 + n
        if type(site) is not str:
            site = "coord" if site == COORD else f"seg{site}"
        details = template.format(*args) if type(template) is str else template(*args)
        lines.append(f"{tick}|{site}|{kind}|{details}")
    return lines


def _begin_details(sid: str, dxid: int, snap) -> str:
    return (
        f"session={sid} dxid={dxid} in_progress={list(snap.in_progress)} "
        f"max_committed={snap.max_committed}"
    )


def _lock_wait_details(dxid: int, tag: LockTag, mode: str, blockers: frozenset) -> str:
    return f"dxid={dxid} tag={tag} mode={mode} blockers={sorted(blockers)}"


def _verdict_details(outcome: str, residual: tuple, victims: tuple) -> str:
    return (
        f"outcome={outcome} residual={[str(e) for e in residual]} "
        f"victims={list(victims)}"
    )


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
        self.round: _Round | None = None  # commit/abort round in flight
        # aborted txn: drop its remaining steps up to the next begin
        self.skip_until_begin = False
        self.outcomes: list[str] = []
        self.txn_latencies: list[int] = []
        self.scan_results: list[tuple[int, list]] = []

    @property
    def free(self) -> bool:
        return self.stmt is None and not self.queued and self.round is None

    def peek_step(self) -> Step | None:
        """The next step, or None once the session has none left."""
        if self._next is None:
            self._next = next(self.step_iter, None)
        return self._next

    def pop_step(self) -> Step | None:
        step = self.peek_step()
        self._next = None
        return step


class Statement:
    def __init__(self, session: Session, step: Step):
        self.session = session
        self.step = step
        self.txn = session.txn
        self.cpu_left = 0  # workers of its gang still to finish their burst
        self.outstanding = 0  # segment parts dispatched and not yet replied
        self.rows: list[tuple[int, int]] = []
        self.count = 0
        self.dead = False

    def live(self) -> bool:
        return not (self.dead or self.txn.is_finished())


@dataclass(eq=False)
class _Round:
    """One exchange that ends a transaction: a prepare, commit or abort round.

    `awaiting` holds the sites still to reply, and `then` runs once all have.
    The round in flight is `session.round`; a reply to any other round (one
    that was replaced, as a prepare round by its abort, or one that finished)
    is dropped.
    """

    session: Session
    awaiting: set[int]
    then: Callable[[], None]
    abort: bool = False


class Site:
    """One site's lock table and the statement parts parked on it; the
    coordinator is a `Site` and each segment a `Segment`.

    A part (`work`) is a generator that yields the `(tag, dxid)` of each lock
    grant it waits for.  `resume` parks it under that key, and `wake` resumes
    it, with the lock granted, once the grant comes.
    """

    def __init__(self, cluster: Cluster, id: int):
        self.cluster = cluster
        self.id = id
        self.locks = LockTable(id)
        self.parked: dict[tuple, Generator] = {}

    def acquire_or_park(self, txn: TransactionDescriptor, tag: LockTag, mode) -> bool:
        """Request `tag` in `mode` for `txn`; True if granted.  Otherwise
        trace the wait and arm the detector: the part then yields
        `(tag, txn.dxid)` and `resume` parks it."""
        cl = self.cluster
        result, blockers = self.locks.acquire(txn.dxid, tag, mode, cl.clock)
        if result is AcquireResult.GRANTED:
            return True
        blocked_by = frozenset([b.txn for b in blockers])
        cl._trace(self.id, "lock_wait", _lock_wait_details, txn.dxid, tag, mode.name, blocked_by)
        cl._ensure_gdd_scheduled()
        return False

    def resume(self, part: Generator) -> None:
        """Run `part` to its next wait, parked under the key it yields, or to its end."""
        key = next(part, None)
        if key is not None:
            self.parked[key] = part

    def wake(self, promoted) -> None:
        """Trace each grant in `promoted` and schedule the part parked on it."""
        cl = self.cluster
        for req in promoted:
            cl._trace(
                self.id, "lock_grant", "dxid={} tag={} mode={}", req.txn, req.tag, req.mode.name
            )
            part = self.parked.pop((req.tag, req.txn), None)
            if part is not None:
                cl.schedule(0, partial(self.resume, part))

    def work(self, stmt: Statement, rows=None):
        """This site's share of `stmt`, run as a generator.

        The coordinator's share takes the statement's relation lock there and
        then fans the statement out to the segments; a segment's share takes
        the relation lock there and then inserts `rows` (an insert's rows
        routed to this segment), scans, locks or updates (`Segment.update`).
        After every wait the part stops if its statement has died meanwhile.
        """
        cl = self.cluster
        txn, step = stmt.txn, stmt.step
        if not stmt.live():
            return
        mode = RELATION_LOCK_MODE[step.kind]
        if step.kind == "update" and cl.config.legacy_locking:
            mode = LockMode.EXCLUSIVE  # legacy locking: one writer per table
        tag = LockTag(TagKind.RELATION, self.id, step.table)
        if not self.acquire_or_park(txn, tag, mode):
            yield tag, txn.dxid
            if not stmt.live():
                return
        if self.id == COORD:
            cl._dispatch_parts(stmt)
        elif step.kind == "update":
            yield from self.update(stmt)
        elif step.kind == "insert":
            local = self.local_xid(txn)
            for values in rows:
                self.store.insert_version(step.table, values, local, txn.command_id)
            cl._trace(self.id, "insert", "dxid={} rows={}", txn.dxid, len(rows))
            cl._segment_part_done(self, stmt, len(rows), wrote=bool(rows))
        elif step.kind == "select":
            vis = self.visibility(txn.snapshot, txn)
            found = self.store.scan(cl.catalog[step.table], step.pred or Predicate(), vis)
            found_rows = [v.values for _, v in found]
            cl._segment_part_done(self, stmt, len(found_rows), rows=found_rows)
        else:  # lock
            cl._trace(self.id, "relation_locked", "dxid={} {}", txn.dxid, step.table)
            cl._segment_part_done(self, stmt, 0)


class Segment(Site):
    """A segment: a site that also holds its heap (`store`), its commit log
    (`states`, local xid -> "in_progress", "committed" or "aborted"), its
    local-to-distributed xid `mapping` and the next local xid to hand out."""

    def __init__(self, cluster: Cluster, id: int):
        super().__init__(cluster, id)
        self.store = SegmentStore(id)
        self.states: dict[int, str] = {BOOTSTRAP_LOCAL_XID: "committed"}
        self.mapping = XidMapping(id)
        self.mapping.record(BOOTSTRAP_LOCAL_XID, 0)
        self.next_local_xid = 1

    def local_xid(self, txn: TransactionDescriptor) -> int:
        """Assign a local xid (and the transaction self-lock) on first write."""
        local = txn.local_xids.get(self.id)
        if local is not None:
            return local
        local = self.next_local_xid
        self.next_local_xid = local + 1
        txn.local_xids[self.id] = local
        self.states[local] = "in_progress"
        self.mapping.record(local, txn.dxid)
        cl = self.cluster
        tag = LockTag(TagKind.TRANSACTION, self.id, local)
        self.locks.acquire(txn.dxid, tag, LockMode.EXCLUSIVE, cl.clock)
        cl._trace(self.id, "assign_local_xid", "dxid={} local={}", txn.dxid, local)
        return local

    def visibility(self, snapshot, txn: TransactionDescriptor | None = None):
        """The visibility test of `snapshot` on this segment, as read by
        `txn` (None: an observer outside any transaction)."""
        mapping, states = self.mapping, self.states
        # `dtm_mod.visible` is looked up at each call, so tracers can wrap it
        return lambda version: dtm_mod.visible(version, snapshot, mapping, txn, states)

    def update(self, stmt: Statement):
        """An update's share here: stamp the versions its scan returned.

        Each slot is one loop, as in PostgreSQL's `heap_update`: if an
        in-progress transaction stamped the version, queue on the tuple lock
        and then on the stamper's transaction lock, and look at the version's
        stamper again after each wait.  A tuple lock granted by a wake counts
        as held, and is released once the slot is stamped, only if that
        second look finds the stamper still running.

        The scan's version is not read again after a wait, because under
        snapshot isolation it stays the newest version of its chain that the
        statement sees: the snapshot and command id are fixed for the
        statement, a version appended later is written by a transaction the
        snapshot does not see, and `stamp_and_append` writes `xmax` into the
        very version object the scan returned.  A READ COMMITTED re-check
        would follow the chain here instead.
        """
        cl = self.cluster
        txn, step = stmt.txn, stmt.step
        store = self.store
        vis = self.visibility(txn.snapshot, txn)
        pred = step.pred or Predicate()
        stamped = 0
        for slot, version in store.scan(cl.catalog[step.table], pred, vis):
            tuple_granted = tuple_held = False
            while True:
                local = self.local_xid(txn)
                stamper = version.xmax_local
                if stamper == local:
                    break  # stamped by an earlier command of this transaction
                state = self.states.get(stamper, "aborted") if stamper else "unstamped"
                if state == "committed":
                    # first updater won and committed; we lose
                    cl._segment_stmt_failed(self, stmt, "serialization")
                    return
                if state != "in_progress":
                    new_values = (version.values[0], step.set_c2)
                    store.stamp_and_append(
                        step.table, slot, version, new_values, local, txn.command_id
                    )
                    stamped += 1
                    cl._trace(self.id, "stamp", "dxid={} {}:{}", txn.dxid, step.table, slot)
                    if tuple_held:
                        self.wake(self.locks.release_tuple_lock(txn.dxid, tuple_tag))
                    break
                # stamper still in progress: queue on the tuple, then on its txn lock
                tuple_tag = LockTag(TagKind.TUPLE, self.id, (step.table, slot))
                if not tuple_granted:
                    tuple_granted = True
                    if not self.acquire_or_park(txn, tuple_tag, LockMode.EXCLUSIVE):
                        yield tuple_tag, txn.dxid
                        if not stmt.live():
                            return
                        continue  # a woken grant is held only if a stamper runs
                tuple_held = True
                xact_tag = LockTag(TagKind.TRANSACTION, self.id, stamper)
                if not self.acquire_or_park(txn, xact_tag, LockMode.SHARE):
                    yield xact_tag, txn.dxid
                    if not stmt.live():
                        return
                # granted: the stamper has finished, so look at its outcome
        cl._segment_part_done(self, stmt, stamped, wrote=stamped > 0)


class Cluster:
    """The simulated cluster plus its event loop."""

    def __init__(self, config: SimConfig, scenario: Scenario | None = None):
        self.config = config
        self.clock = 0
        # the event queue: one FIFO bucket of events per tick, and a heap of
        # the ticks that have a bucket; a background event is stored after a
        # None marker, because it does not count in `_fg_pending`
        self._buckets: dict[int, deque] = {}
        self._ticks: list[int] = []
        self._fg_pending = 0
        self._events: list = []  # trace events not yet rendered, see `_trace`
        self._trace_lines: list[str] = []  # the rendered trace, see `trace`

        self.dtm = DistributedTxnManager()
        self.coord = Site(self, COORD)
        self.segments = [Segment(self, s) for s in range(config.n_segments)]
        self.sites: list[Site] = [self.coord, *self.segments]
        # by-id views that `perfbench` reads until it reads results instead
        self.lock_tables = {site.id: site.locks for site in self.sites}
        self.stores = {seg.id: seg.store for seg in self.segments}
        self.local_states = {seg.id: seg.states for seg in self.segments}

        self.catalog: dict[str, TableDef] = {}
        self.sessions: dict[str, Session] = {}
        self.verdicts: list[DetectionVerdict] = []
        self.accounting: dict[int, CommitAccounting] = {}
        self.txn_sessions: dict[int, Session] = {}

        self.resources: ResourceGroups | None = None
        self.admission: AdmissionControl | None = None
        self.ledger: MemoryLedger | None = None
        self.cpu: CpuScheduler | None = None
        self._cpu_tick_scheduled = False
        groups = list(config.resource_groups)
        if scenario is not None:
            groups = groups + list(scenario.groups)
        if groups:
            self.resources = ResourceGroups(groups, GLOBAL_MEMORY, N_CORES)
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

        if scenario is not None:
            self._load_scenario(scenario)

    # ---------------------------------------------------------------- setup

    def _load_scenario(self, scenario: Scenario) -> None:
        for spec in scenario.tables:
            self.create_table(spec.table, spec.rows)
        own: dict[str, list[Step]] = {sdef.sid: [] for sdef in scenario.sessions}
        for step in sorted(scenario.steps, key=lambda s: s.seq):
            own[step.session].append(step)
        for sdef in scenario.sessions:
            self.add_session(sdef.sid, sdef.group, step_iter=iter(own[sdef.sid]))

    def create_table(self, table: TableDef, rows=()) -> None:
        self.catalog[table.name] = table
        for seg in self.segments:
            seg.store.create_table(table)
        for values in rows:
            seg = self.segments[route(table.dist_value(values), self.config.n_segments)]
            seg.store.insert_frozen(table.name, tuple(values), BOOTSTRAP_LOCAL_XID)

    def add_session(self, sid: str, group: str | None = None, step_iter=None) -> Session:
        if group is not None and self.resources is not None and group not in self.resources:
            raise ValueError(f"session {sid}: unknown resource group {group!r}")
        session = Session(sid, group, step_iter=step_iter)
        self.sessions[sid] = session
        return session

    # ------------------------------------------------------------ event loop

    def _trace(self, site, kind: str, template, *args) -> None:
        """Record one trace event as the fields (len(args), tick, site, kind,
        template, *args) at the end of the flat log `_events`, and nothing at
        all unless `trace_enabled` is set.

        Nothing is formatted here: reading `trace` renders the event.  The
        arguments must be values that no later step changes (ints, strings,
        frozensets, tuples, lock tags, frozen records).  `template` is a
        `str.format` template or, where the details need more than formatting,
        a function of the arguments that returns them.
        """
        if self.config.trace_enabled:
            self._events += (len(args), self.clock, site, kind, template, *args)

    @property
    def trace(self) -> list[str]:
        """The text trace, one `tick|site|kind|details` line per event.

        Events recorded since the last read are rendered into the cached list
        and then dropped, so the list returned grows as the run goes on."""
        if self._events:
            self._trace_lines.extend(_render_events(self._events))
            self._events.clear()
        return self._trace_lines

    def schedule(self, delay: int, fn, background: bool = False) -> None:
        """Run `fn` `delay` (>= 0) ticks from now, after every event already
        scheduled for that tick.  The loop stops at fixpoint only once no
        foreground event is pending; background events never hold it open."""
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
        delay = self.config.link_delays.get((src, dst), MESSAGE_DELAY)
        self.schedule(delay, fn)

    def run(self, until_tick: int | None = None, stop_when=None) -> None:
        """Drive the loop to fixpoint, a tick bound, or a predicate.

        With a tick bound it returns before any event past the bound and as
        soon as the clock has reached the bound, so after at most one event
        at the bound; the next call goes on from there."""
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
            bucket = buckets[tick]
            fn = bucket.popleft()
            if fn is None:
                fn = bucket.popleft()  # a background event
            else:
                self._fg_pending -= 1
            if not bucket:
                heapq.heappop(ticks)
                del buckets[tick]
            self.clock = tick
            fn()

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
                self._trace(
                    "driver", "step_skipped", "seq={} session={}", step.seq, session.sid
                )
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
            self.run_detector()
            return
        self._trace(
            "driver", "issue", "seq={} session={} sql={}", step.seq, session.sid, step.raw
        )
        if step.kind == "begin":
            session.skip_until_begin = False
            if session.txn is not None:
                raise RuntimeError(
                    f"session {session.sid}: begin inside an open transaction"
                )
            self._do_begin(session)
            return
        if session.txn is None or session.txn.is_finished():
            raise RuntimeError(
                f"session {session.sid}: statement {step.raw!r} outside a transaction"
            )
        if step.kind == "commit":
            self._start_commit(session)
            return
        if step.kind == "abort":
            self._start_abort(session, "user")
            return
        session.txn.command_id += 1
        stmt = Statement(session, step)
        session.stmt = stmt
        if step.mem is not None and self.ledger is not None and session.group:
            result = self.ledger.charge(session.sid, session.group, step.mem)
            if result is ChargeResult.CANCELLED:
                self._trace(
                    "coord", "mem_cancel", "session={} bytes={}", session.sid, step.mem
                )
                self._start_abort(session, "memory_cancelled")
                return
        if step.cpu and self.cpu is not None and session.group:
            # one worker per segment: the statement's gang occupies a core on
            # each until the burst completes everywhere
            for k in range(self.config.n_segments):
                self.cpu.submit((stmt, k), session.group, step.cpu)
            stmt.cpu_left = self.config.n_segments
            self._ensure_cpu_tick()
            return
        self.coord.resume(self.coord.work(stmt))

    def _do_begin(self, session: Session) -> None:
        if self.admission is not None and session.group:
            if self.admission.admit(session.sid, session.group) is Admission.QUEUE:
                session.queued = True
                self._trace("coord", "admission_queue", "session={}", session.sid)
                return
        self._begin_admitted(session)

    def _begin_admitted(self, session: Session) -> None:
        session.queued = False
        txn = self.dtm.begin(self.clock)
        session.txn = txn
        self.txn_sessions[txn.dxid] = session
        self.accounting[txn.dxid] = CommitAccounting()
        # no transaction lock on the coordinator: only a segment's local xid
        # is ever waited on (see `Segment.update`)
        self.coord.locks.register_txn(txn.dxid)
        self._trace("coord", "begin", _begin_details, session.sid, txn.dxid, txn.snapshot)
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
            seg.locks.register_txn(stmt.txn.dxid)
            self.send(COORD, s, partial(seg.resume, seg.work(stmt, rows)))

    # ------------------------------------------------ segment-side replies

    def _segment_part_done(self, seg: Segment, stmt, count, rows=None, wrote=False) -> None:
        if stmt.dead:
            return
        self.send(seg.id, COORD, lambda: self._part_reply(stmt, seg.id, count, rows, wrote))

    def _segment_stmt_failed(self, seg: Segment, stmt, reason: str) -> None:
        if stmt.dead:
            return
        txn = stmt.txn
        self._trace(seg.id, "stmt_conflict", "dxid={} reason={}", txn.dxid, reason)

        def deliver():
            if stmt.dead or txn.is_finished():
                return
            self._start_abort(stmt.session, reason)

        self.send(seg.id, COORD, deliver)

    def _part_reply(self, stmt, seg, count, rows, wrote) -> None:
        if stmt.dead:
            return
        if wrote:
            stmt.txn.write_segments.add(seg)
        if rows:
            stmt.rows.extend(rows)
        stmt.count += count
        stmt.outstanding -= 1
        if stmt.outstanding == 0:
            self._complete_stmt(stmt)

    def _complete_stmt(self, stmt: Statement) -> None:
        session = stmt.session
        if stmt.step.kind == "update":
            self.inflight_updates -= 1
        stmt.rows.sort()
        if stmt.step.kind == "select":
            session.scan_results.append((stmt.step.seq, list(stmt.rows)))
        self._trace(
            "coord",
            "stmt_done",
            "session={} seq={} count={}",
            session.sid,
            stmt.step.seq,
            stmt.count,
        )
        session.stmt = None
        self._progress += 1
        self._session_freed(session)

    def _session_freed(self, session: Session) -> None:
        if self.config.eager:
            self.schedule(0, lambda: self._issue_for_session(session))

    # ------------------------------------------------ commit and abort rounds

    def _touched_segments(self, txn: TransactionDescriptor) -> list[Segment]:
        """The segments where `txn` has a local xid or a lock request."""
        return [
            seg
            for seg in self.segments
            if seg.id in txn.local_xids or seg.locks.has_requests(txn.dxid)
        ]

    def _start_commit(self, session: Session) -> None:
        """Commit in rounds: under 2PC a prepare round, then the commit round.

        One-phase commit is the commit round alone, over its one write
        segment; a read-only commit is a commit round with no site to wait
        for, so it finishes at once.  Touched segments that wrote nothing end
        the transaction locally first; those messages are not counted.
        """
        txn = session.txn
        protocol = self.dtm.plan_commit(txn, self.config.force_2pc)
        self.accounting[txn.dxid].protocol = protocol
        touched = self._touched_segments(txn)
        writers = [self.segments[s] for s in sorted(txn.write_segments)]
        self._trace(
            "coord",
            "commit_start",
            "session={} dxid={} protocol={} write_segments={}",
            session.sid,
            txn.dxid,
            protocol.value,
            [seg.id for seg in writers],
        )

        def commit() -> None:
            for seg in touched:
                if seg.id not in txn.write_segments:
                    self.send(COORD, seg.id, lambda s=seg: self._segment_end(s, txn))
            self._send_round(
                session,
                writers,
                dtm_mod.MSG_COMMIT,
                self._segment_end,
                lambda: self._finish_txn(session, committed=True),
            )

        def prepared() -> None:
            self._fsync(self.coord, txn, dtm_mod.FSYNC_COORD_COMMIT)
            commit()

        if protocol is Protocol.TWO_PHASE:
            self._send_round(
                session, writers, dtm_mod.MSG_PREPARE, self._segment_prepare, prepared
            )
        else:
            commit()

    def _start_abort(self, session: Session, reason: str) -> None:
        txn = session.txn
        if txn is None or txn.is_finished():
            return
        if session.round is not None and session.round.abort:
            return
        stmt = session.stmt
        if stmt is not None:
            if stmt.step.kind == "update" and stmt.outstanding:
                self.inflight_updates -= 1  # undo the dispatch's increment
            stmt.dead = True
            session.stmt = None
        for site in self.sites:
            for key in [k for k in site.parked if k[1] == txn.dxid]:
                del site.parked[key]
        touched = self._touched_segments(txn)
        self._trace(
            "coord", "abort_start", "session={} dxid={} reason={}", session.sid, txn.dxid, reason
        )
        self._send_round(
            session,
            touched,
            None,
            self._segment_end,
            lambda: self._finish_txn(session, committed=False, reason=reason),
            abort=True,
        )

    def _send_round(self, session, segments, msg, at_site, then, abort=False) -> None:
        """Start a round: send `msg` to each segment in order, where
        `at_site(segment, txn, round)` runs; `then` runs once every segment
        has replied, at once if there is none.  Abort messages are not counted
        (`msg` is None).  The round replaces the session's round in flight."""
        txn = session.txn
        rnd = _Round(session, {seg.id for seg in segments}, then, abort)
        session.round = rnd
        for seg in segments:
            if msg is not None:
                self.accounting[txn.dxid].count_message(msg)
            self.send(COORD, seg.id, lambda s=seg: at_site(s, txn, rnd))
        if not segments:
            then()

    def _reply(self, rnd: _Round, site: int, msg: str | None, ok: bool = True) -> None:
        """A site's reply to `rnd`, counted as `msg`; dropped unless `rnd` is
        the round in flight.  A vetoed prepare (`ok` False) aborts instead."""
        session = rnd.session
        if session.round is not rnd:
            return
        dxid = session.txn.dxid
        if not ok:
            self._trace("coord", "prepare_failed", "dxid={} seg={}", dxid, site)
            self._start_abort(session, "prepare_failed")
            return
        if msg is not None:
            self.accounting[dxid].count_message(msg)
        rnd.awaiting.discard(site)
        if not rnd.awaiting:
            rnd.then()

    def _segment_prepare(self, seg: Segment, txn: TransactionDescriptor, rnd: _Round) -> None:
        if self._prepare_veto(seg.id, txn):
            self._trace(seg.id, "prepare_fail", "dxid={}", txn.dxid)
            self.send(seg.id, COORD, lambda: self._reply(rnd, seg.id, None, ok=False))
            return
        self._fsync(seg, txn, dtm_mod.FSYNC_SEGMENT_PREPARE)
        self._trace(seg.id, "prepared", "dxid={}", txn.dxid)
        self.send(seg.id, COORD, lambda: self._reply(rnd, seg.id, dtm_mod.MSG_PREPARE_OK))

    def _prepare_veto(self, seg: int, txn: TransactionDescriptor) -> bool:
        return False  # test hook, given a segment id: patched to inject prepare failures

    def _segment_end(
        self, seg: Segment, txn: TransactionDescriptor, rnd: _Round | None = None
    ) -> None:
        """End `txn` on one segment: record its local outcome, release its
        locks and wake their waiters.

        With no round this is the local end of a segment that the commit
        round does not visit.  In a commit round the segment first makes its
        commit durable; in a commit or abort round it then replies.
        """
        committed = rnd is None or not rnd.abort
        if rnd is not None and committed:
            self._fsync(seg, txn, dtm_mod.FSYNC_SEGMENT_COMMIT)
        s = seg.id
        local = txn.local_xids.get(s)
        if local is not None:
            seg.states[local] = "committed" if committed else "aborted"
        promoted = seg.locks.release_all(txn.dxid, self.clock)
        if rnd is None:
            self._trace(s, "end_local", "dxid={}", txn.dxid)
        elif committed:
            onephase = self.accounting[txn.dxid].protocol is Protocol.ONE_PHASE
            self._trace(s, "commit_local", "dxid={} onephase={}", txn.dxid, onephase)
        else:
            self._trace(s, "abort_local", "dxid={}", txn.dxid)
        seg.wake(promoted)
        if rnd is not None:
            reply = dtm_mod.MSG_COMMIT_OK if committed else None
            self.send(s, COORD, lambda: self._reply(rnd, s, reply))

    def _fsync(self, site: Site, txn, kind: str) -> None:
        self.accounting[txn.dxid].count_fsync(kind)
        self._trace(site.id, "fsync", "dxid={} kind={}", txn.dxid, kind)

    def _finish_txn(self, session: Session, committed: bool, reason: str = "") -> None:
        txn = session.txn
        if committed:
            self.dtm.mark_committed(txn.dxid)
            self.committed_txns += 1
            session.outcomes.append("committed")
        else:
            self.dtm.mark_aborted(txn.dxid)
            self.aborted_txns += 1
            session.outcomes.append(f"aborted:{reason}" if reason else "aborted")
        acc = self.accounting[txn.dxid]
        acc.latency_ticks = self.clock - txn.begin_tick
        session.txn_latencies.append(acc.latency_ticks)
        self.coord.wake(self.coord.locks.release_all(txn.dxid, self.clock))
        self._trace(
            "coord",
            "txn_end",
            "session={} dxid={} outcome={}",
            session.sid,
            txn.dxid,
            session.outcomes[-1],
        )
        if self.ledger is not None:
            self.ledger.release(session.sid)
        if self.admission is not None and session.group:
            freed = self.admission.complete(session.sid, session.group)
            if freed is not None:
                waiter = self.sessions[freed]
                self.schedule(0, lambda: self._begin_admitted(waiter))
        session.txn = None
        session.round = None
        self._progress += 1
        if not committed and reason != "user":
            session.skip_until_begin = True
        self._session_freed(session)

    # ------------------------------------------------------ deadlock breaking

    def txn_is_live(self, dxid: int) -> bool:
        return self.dtm.is_live(dxid)

    def abort_transaction(self, dxid: int, reason: str = "deadlock_victim") -> None:
        session = self.txn_sessions.get(dxid)
        if session is None or session.txn is None or session.txn.dxid != dxid:
            return
        self._start_abort(session, reason)

    # ------------------------------------------------------------ gdd daemon

    def _ensure_gdd_scheduled(self) -> None:
        if not self.config.gdd_enabled or self._gdd_scheduled:
            return
        self._gdd_scheduled = True
        self.schedule(self.config.gdd.period, self._gdd_run, background=True)

    def _gdd_run(self) -> None:
        self._gdd_scheduled = False
        if not self.blocked_sessions():
            return  # re-armed by the next lock wait
        if self.config.collection_skew > 0:
            self._collect_staggered()
            return
        verdict = self.run_detector()
        self._reschedule_after(verdict)

    def _reschedule_after(self, verdict: DetectionVerdict) -> None:
        if verdict.outcome is Outcome.DEADLOCK or self._progress != self._gdd_last_progress:
            self._gdd_last_progress = self._progress
            self._ensure_gdd_scheduled()
        # otherwise: no progress since the last clean run; detection cannot
        # help, so stop re-arming (the run loop will surface the stall)

    def _collect_staggered(self) -> None:
        """Spread per-segment snapshots over time (asynchronous collection).

        Each collection gathers into its own edge list: a lock wait during a
        collection can start the next one before this one finishes, and each
        must still see a whole graph."""
        edges: list[WaitEdge] = []
        skew = self.config.collection_skew
        for i, site in enumerate(self.sites):
            self.schedule(
                skew * i,
                lambda s=site: edges.extend(snapshot_local(s.locks)),
                background=True,
            )
        self.schedule(
            skew * len(self.sites),
            lambda: self._finish_staggered(edges),
            background=True,
        )

    def _finish_staggered(self, edges: list[WaitEdge]) -> None:
        verdict = self._detect_on(GlobalWaitForGraph(edges))
        self._reschedule_after(verdict)

    def collect_graph(self) -> GlobalWaitForGraph:
        return collect_global([site.locks for site in self.sites])

    def run_detector(self) -> DetectionVerdict:
        return self._detect_on(self.collect_graph())

    def _detect_on(self, graph: GlobalWaitForGraph) -> DetectionVerdict:
        verdict = detect(graph, self.txn_is_live)
        for step in verdict.steps:
            self._trace("gdd", "reduce", ReductionStep.describe, step)
        self._trace(
            "gdd",
            "verdict",
            _verdict_details,
            verdict.outcome.value,
            tuple(verdict.residual_edges),
            verdict.victims,
        )
        self.verdicts.append(verdict)
        if verdict.outcome is Outcome.DEADLOCK:
            self._trace("gdd", "validate", "frozen check: residual transactions all live")
            break_deadlock(verdict, self)
        elif verdict.outcome is Outcome.STALE:
            self._trace("gdd", "discard", "stale graph: a residual transaction finished")
        return verdict

    # ------------------------------------------------------------- cpu ticks

    def _ensure_cpu_tick(self) -> None:
        if self.cpu is None or self._cpu_tick_scheduled:
            return
        self._cpu_tick_scheduled = True
        self.schedule(1, self._cpu_tick, background=True)

    def _cpu_tick(self) -> None:
        self._cpu_tick_scheduled = False
        for stmt, _ in self.cpu.tick():
            stmt.cpu_left -= 1
            if stmt.cpu_left == 0 and not stmt.dead:
                self.schedule(0, partial(self.coord.resume, self.coord.work(stmt)))
        if self.cpu.has_work():
            self._ensure_cpu_tick()

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
        if any(v.outcome is Outcome.DEADLOCK for v in self.verdicts):
            return "deadlock"
        return "clean"

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
        for dxid in sorted(self.accounting):
            acc = self.accounting[dxid]
            protocol = acc.protocol.value if acc.protocol else (
                "aborted"
                if self.dtm.transactions[dxid].state is TxnState.ABORTED
                else "open"
            )
            lines.append(
                f"{dxid},{protocol},{acc.messages[dtm_mod.MSG_PREPARE]},"
                f"{acc.messages[dtm_mod.MSG_COMMIT]},{sum(acc.fsyncs.values())},"
                f"{acc.latency_ticks}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class ScenarioResult:
    outcomes: dict[str, str]
    verdict: str
    victims: list[str]
    trace: list[str]
    metrics_csv: str
    stalled: list[str]
    scans: dict[str, list]

    def expectations_met(self, expect) -> tuple[bool, list[str]]:
        problems = []
        if expect is None:
            return True, problems
        if expect.verdict is not None and expect.verdict != self.verdict:
            problems.append(f"verdict {self.verdict}, expected {expect.verdict}")
        if expect.victims and sorted(set(expect.victims)) != sorted(set(self.victims)):
            problems.append(f"victims {self.victims}, expected {expect.victims}")
        for sid, want in sorted(expect.outcomes.items()):
            got = self.outcomes.get(sid, "missing")
            matched = got == want if ":" in want else got.split(":")[0] == want
            if not matched:
                problems.append(f"session {sid}: outcome {got}, expected {want}")
        return not problems, problems


def run_scenario(scenario: Scenario, config: SimConfig | None = None) -> ScenarioResult:
    config = config or SimConfig()
    cluster = Cluster(config, scenario)
    cluster.run()
    victims = []
    for verdict in cluster.verdicts:
        for dxid in verdict.victims:
            session = cluster.txn_sessions.get(dxid)
            if session is not None and session.sid not in victims:
                victims.append(session.sid)
    outcomes = {sid: cluster.session_outcome(sid) for sid in sorted(cluster.sessions)}
    return ScenarioResult(
        outcomes=outcomes,
        verdict=cluster.final_verdict(),
        victims=victims,
        trace=cluster.trace,
        metrics_csv=cluster.metrics_csv(),
        stalled=[sid for sid, o in sorted(outcomes.items()) if o == "stalled"],
        scans={
            sid: list(cluster.sessions[sid].scan_results)
            for sid in sorted(cluster.sessions)
        },
    )
