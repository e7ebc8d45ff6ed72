"""Deterministic discrete-event simulator of the cluster.

One coordinator (site -1) plus N segments, a logical tick clock, and a single
event loop ordered by (tick, sequence number).  Sessions execute scenario
steps; statements dispatch per-segment work over simulated messages; blocking
is explicit lock-table state with parked continuations resumed on grant.  The
deadlock detector runs as a periodic background task (and synchronously for
scripted `detect` steps); commit protocols are message exchanges with fsync
accounting.  Identical (seed, config, scenario) produces an identical trace.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from . import dtm as dtm_mod
from .dtm import (
    CommitAccounting,
    DistributedTxnManager,
    Protocol,
    TransactionDescriptor,
    TxnState,
    XidMapping,
)
from .gdd import DetectionVerdict, GddConfig, Outcome, break_deadlock, detect
from .locks import AcquireResult, LockMode, LockTable, LockTag, TagKind
from .resgroup import (
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
from .waitgraph import GlobalWaitForGraph, collect_global, snapshot_local

COORD = -1
BOOTSTRAP_LOCAL_XID = 0  # preloaded rows belong to this always-committed xid

# the relation lock each statement kind takes, on the coordinator and on every
# segment it reaches; legacy locking overrides "update" (see _lock_relation)
RELATION_LOCK_MODE = {
    "update": LockMode.ROW_EXCLUSIVE,
    "insert": LockMode.ROW_EXCLUSIVE,
    "select": LockMode.ACCESS_SHARE,
    "lock": LockMode.ACCESS_EXCLUSIVE,
}


@dataclass
class SimConfig:
    n_segments: int = 3
    seed: int = 0
    message_delay: int = 1
    link_delays: dict = field(default_factory=dict)  # (src, dst) -> ticks
    gdd_enabled: bool = True
    gdd: GddConfig = field(default_factory=GddConfig)
    legacy_locking: bool = False
    force_2pc: bool = False
    eager: bool = False  # sessions issue as soon as free, seq only breaks ties
    collection_skew: int = 0  # ticks between per-segment graph snapshots
    resource_groups: list[ResourceGroupConfig] = field(default_factory=list)
    global_memory: float = 1000.0
    n_cores: int = 32
    trace_enabled: bool = True


class Session:
    def __init__(self, sid: str, group: str | None = None, step_iter=None):
        self.sid = sid
        self.group = group
        self.steps: list[Step] = []
        self.step_iter = step_iter  # generator source for bench workloads
        self.next_idx = 0
        self.txn: TransactionDescriptor | None = None
        self.stmt: "Statement | None" = None
        self.queued = False  # waiting for an admission slot
        self.round: _Round | None = None  # commit/abort round in flight
        self.skip_until_begin = False  # aborted txn: drop its remaining steps
        self.terminal = False
        self.outcomes: list[str] = []
        self.txn_latencies: list[int] = []
        self.scan_results: list[tuple[int, list]] = []

    @property
    def free(self) -> bool:
        return (
            not self.terminal
            and self.stmt is None
            and not self.queued
            and self.round is None
        )

    def peek_step(self) -> Step | None:
        if self.step_iter is not None:
            if not self.steps:
                try:
                    self.steps.append(next(self.step_iter))
                except StopIteration:
                    return None
            return self.steps[0]
        if self.next_idx < len(self.steps):
            return self.steps[self.next_idx]
        return None

    def pop_step(self) -> Step:
        if self.step_iter is not None:
            if not self.steps:
                self.steps.append(next(self.step_iter))
            return self.steps.pop(0)
        step = self.steps[self.next_idx]
        self.next_idx += 1
        return step

    def skip_to_next_txn(self) -> None:
        """After an abort, drop the remainder of the transaction's steps."""
        self.skip_until_begin = True
        while True:
            step = self.peek_step()
            if step is None:
                if self.step_iter is None:
                    self.terminal = True
                return
            if step.kind == "begin":
                self.skip_until_begin = False
                return
            self.pop_step()


class Statement:
    def __init__(self, session: Session, step: Step):
        self.session = session
        self.step = step
        self.outstanding = 0
        self.rows: list[tuple[int, int]] = []
        self.count = 0
        self.dead = False


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


class _UpdatePart:
    """Resumable per-segment update execution.

    Stages: relation lock -> target scan -> per-slot stamping with the tuple
    lock / transaction lock dance.  Parked at whichever acquire blocked;
    resuming re-enters the same stage (the grant is already in the table).
    """

    def __init__(self, cluster, seg, stmt, txn, table, pred, set_c2):
        self.cluster = cluster
        self.seg = seg
        self.stmt = stmt
        self.txn = txn
        self.table = table
        self.pred = pred or Predicate()
        self.set_c2 = set_c2
        self.targets: list[int] | None = None
        self.idx = 0
        self.held_tuple_tag: LockTag | None = None
        self.stamped = 0

    def run(self) -> None:
        cl = self.cluster
        if self.stmt.dead or self.txn.is_finished():
            return
        if not cl._lock_relation(self.seg, self.stmt, self.txn, self):
            return
        if self.targets is None:
            vis = cl._visibility(self.seg, self.txn)
            self.targets = [
                slot
                for slot, _ in cl.stores[self.seg].scan(self.table, self.pred, vis)
            ]
        while self.idx < len(self.targets):
            outcome = self._try_slot(self.targets[self.idx])
            if outcome == "parked":
                return
            if outcome == "conflict":
                cl._segment_stmt_failed(self.seg, self.stmt, self.txn, "serialization")
                return
            self.idx += 1
        cl._segment_part_done(
            self.seg, self.stmt, self.txn, self.stamped, wrote=self.stamped > 0
        )

    def _try_slot(self, slot: int) -> str:
        cl = self.cluster
        store = cl.stores[self.seg]
        vis = cl._visibility(self.seg, self.txn)
        version = store.visible_version(self.table.name, slot, vis)
        if version is None:
            return "done"  # nothing visible to stamp under our snapshot
        local = cl._ensure_local_xid(self.seg, self.txn)
        if version.xmax_local == 0:
            self._stamp(store, slot, version, local)
            return "done"
        stamper = version.xmax_local
        if stamper == local:
            return "done"  # stamped by an earlier command of this transaction
        state = cl.local_states[self.seg].get(stamper, "aborted")
        if state == "committed":
            return "conflict"  # first updater won and committed; we lose
        if state == "aborted":
            self._stamp(store, slot, version, local)
            return "done"
        # stamper still in progress: queue on the tuple, then on its txn lock
        tuple_tag = LockTag(TagKind.TUPLE, self.seg, (self.table.name, slot))
        if self.held_tuple_tag != tuple_tag:
            if not cl._acquire_or_park(
                self.seg, self.txn, tuple_tag, LockMode.EXCLUSIVE, self
            ):
                return "parked"
            self.held_tuple_tag = tuple_tag
        xact_tag = LockTag(TagKind.TRANSACTION, self.seg, stamper)
        if not cl._acquire_or_park(self.seg, self.txn, xact_tag, LockMode.SHARE, self):
            return "parked"
        # transaction lock granted: the stamper finished; re-examine the slot
        return self._try_slot(slot)

    def _stamp(self, store, slot, version, local) -> None:
        cl = self.cluster
        new_values = (version.values[0], self.set_c2)
        store.stamp_and_append(
            self.table.name, slot, version, new_values, local, self.txn.command_id
        )
        self.stamped += 1
        cl._trace(self.seg, "stamp", f"dxid={self.txn.dxid} {self.table.name}:{slot}")
        if self.held_tuple_tag is not None:
            promoted = cl.lock_tables[self.seg].release_tuple_lock(
                self.txn.dxid, self.held_tuple_tag
            )
            self.held_tuple_tag = None
            cl._schedule_promotions(self.seg, promoted)


class _SimplePart:
    """Per-segment execution for insert / select / lock statements."""

    def __init__(self, cluster, seg, stmt, txn, kind, table, pred=None, rows=None):
        self.cluster = cluster
        self.seg = seg
        self.stmt = stmt
        self.txn = txn
        self.kind = kind
        self.table = table
        self.pred = pred or Predicate()
        self.rows = rows or []

    def run(self) -> None:
        cl = self.cluster
        if self.stmt.dead or self.txn.is_finished():
            return
        if not cl._lock_relation(self.seg, self.stmt, self.txn, self):
            return
        if self.kind == "insert":
            local = cl._ensure_local_xid(self.seg, self.txn)
            for values in self.rows:
                cl.stores[self.seg].insert_version(
                    self.table.name, values, local, self.txn.command_id
                )
            cl._trace(self.seg, "insert", f"dxid={self.txn.dxid} rows={len(self.rows)}")
            cl._segment_part_done(
                self.seg, self.stmt, self.txn, len(self.rows), wrote=bool(self.rows)
            )
        elif self.kind == "select":
            vis = cl._visibility(self.seg, self.txn)
            found = cl.stores[self.seg].scan(self.table, self.pred, vis)
            rows = [v.values for _, v in found]
            cl._segment_part_done(self.seg, self.stmt, self.txn, len(rows), rows=rows)
        else:  # lock
            cl._trace(self.seg, "relation_locked", f"dxid={self.txn.dxid} {self.table.name}")
            cl._segment_part_done(self.seg, self.stmt, self.txn, 0)


class _CoordStage:
    """Coordinator-side relation-lock stage of a statement, parkable."""

    def __init__(self, cluster, stmt: Statement):
        self.cluster = cluster
        self.stmt = stmt

    def run(self) -> None:
        cl = self.cluster
        stmt = self.stmt
        txn = stmt.session.txn
        if stmt.dead or txn is None or txn.is_finished():
            return
        if not cl._lock_relation(COORD, stmt, txn, self):
            return
        cl._dispatch_parts(stmt)


class Cluster:
    """The simulated cluster plus its event loop."""

    def __init__(self, config: SimConfig, scenario: Scenario | None = None):
        self.config = config
        self.rng = random.Random(config.seed)
        self.clock = 0
        self._heap: list = []
        self._seq = 0
        self._fg_pending = 0
        self.trace: list[str] = []

        self.dtm = DistributedTxnManager()
        self.dtm.committed.add(0)  # bootstrap writer of preloaded rows
        self.sites = [COORD] + list(range(config.n_segments))
        self.lock_tables = {s: LockTable(s) for s in self.sites}
        self.stores = {s: SegmentStore(s) for s in range(config.n_segments)}
        self.mappings = {s: XidMapping(s) for s in range(config.n_segments)}
        self.local_states: dict[int, dict[int, str]] = {
            s: {BOOTSTRAP_LOCAL_XID: "committed"} for s in range(config.n_segments)
        }
        self._next_local_xid = {s: 1 for s in range(config.n_segments)}
        self._parked: dict[int, dict[tuple, object]] = {s: {} for s in self.sites}

        self.catalog: dict[str, TableDef] = {}
        self.sessions: dict[str, Session] = {}
        self._global_steps: list[Step] = []
        self._cursor = 0
        self.verdicts: list[DetectionVerdict] = []
        self.accounting: dict[int, CommitAccounting] = {}
        self.txn_sessions: dict[int, Session] = {}

        self.resources: ResourceGroups | None = None
        self.admission: AdmissionControl | None = None
        self.ledger: MemoryLedger | None = None
        self.cpu: CpuScheduler | None = None
        self._cpu_tick_scheduled = False
        self._cpu_parked: dict[str, Statement] = {}
        self._cpu_pending: dict[str, int] = {}
        groups = list(config.resource_groups)
        if scenario is not None:
            groups = groups + list(scenario.groups)
        if groups:
            self.resources = ResourceGroups(groups, config.global_memory, config.n_cores)
            self.admission = AdmissionControl(self.resources)
            self.ledger = MemoryLedger(self.resources)
            self.cpu = CpuScheduler(self.resources)

        self._gdd_scheduled = False
        self._progress = 0
        self._gdd_last_progress = -1
        self._pending_local_graphs: dict[int, object] = {}

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
        for sdef in scenario.sessions:
            self.add_session(sdef.sid, sdef.group)
        for step in scenario.steps:
            self._global_steps.append(step)
            if self.config.eager:
                self.sessions[step.session].steps.append(step)
        self._global_steps.sort(key=lambda s: s.seq)

    def create_table(self, table: TableDef, rows=()) -> None:
        self.catalog[table.name] = table
        for store in self.stores.values():
            store.create_table(table)
        for values in rows:
            seg = route(table.dist_value(values), self.config.n_segments)
            self.stores[seg].insert_version(
                table.name, tuple(values), BOOTSTRAP_LOCAL_XID, 0
            )
        for seg in range(self.config.n_segments):
            self.mappings[seg].record(BOOTSTRAP_LOCAL_XID, 0)

    def add_session(self, sid: str, group: str | None = None, step_iter=None) -> Session:
        if group is not None and self.resources is not None and group not in self.resources:
            raise ValueError(f"session {sid}: unknown resource group {group!r}")
        session = Session(sid, group, step_iter=step_iter)
        self.sessions[sid] = session
        return session

    # ------------------------------------------------------------ event loop

    def _trace(self, site, kind: str, details: str) -> None:
        if self.config.trace_enabled:
            name = (
                "coord"
                if site == COORD
                else (site if isinstance(site, str) else f"seg{site}")
            )
            self.trace.append(f"{self.clock}|{name}|{kind}|{details}")

    def schedule(self, delay: int, fn, background: bool = False) -> None:
        self._seq += 1
        if not background:
            self._fg_pending += 1
        heapq.heappush(self._heap, (self.clock + delay, self._seq, background, fn))

    def send(self, src: int, dst: int, fn) -> None:
        delay = self.config.link_delays.get((src, dst), self.config.message_delay)
        self.schedule(delay, fn)

    def _pop_and_run(self) -> None:
        tick, _, background, fn = heapq.heappop(self._heap)
        self.clock = max(self.clock, tick)
        if not background:
            self._fg_pending -= 1
        fn()

    def run(self, until_tick: int | None = None, stop_when=None) -> None:
        """Drive the loop to fixpoint, a tick bound, or a predicate."""
        while True:
            if stop_when is not None and stop_when(self):
                return
            if until_tick is not None and self.clock >= until_tick:
                return
            if self._fg_pending == 0:
                if self._try_issue():
                    continue
                if not self._heap:
                    return  # fixpoint: nothing pending, nothing issuable
            if until_tick is not None and self._heap and self._heap[0][0] > until_tick:
                return
            self._pop_and_run()

    def blocked_sessions(self) -> list[str]:
        """Sessions stuck mid-statement (the stall oracle's blocked set)."""
        return [
            sid
            for sid in sorted(self.sessions)
            if self.sessions[sid].stmt is not None
        ]

    # ------------------------------------------------------------- issuance

    def _try_issue(self) -> bool:
        if self.config.eager:
            issued = False
            for sid in sorted(self.sessions):
                while self._issue_for_session(self.sessions[sid]):
                    issued = True
                    if not self.sessions[sid].free:
                        break
            return issued
        # strict global order: only the lowest unissued seq may go
        while self._cursor < len(self._global_steps):
            step = self._global_steps[self._cursor]
            session = self.sessions[step.session]
            if step.kind == "detect":
                self._cursor += 1
                self.run_detector()
                return True
            if session.terminal or (
                session.skip_until_begin and step.kind != "begin"
            ):
                self._trace(
                    "driver", "step_skipped", f"seq={step.seq} session={step.session}"
                )
                self._cursor += 1
                continue
            if not session.free:
                return False
            session.skip_until_begin = False
            self._cursor += 1
            self._issue_step(session, step)
            return True
        return False

    def _issue_for_session(self, session: Session) -> bool:
        if not session.free:
            return False
        step = session.peek_step()
        if step is None:
            return False
        session.pop_step()
        if step.kind == "detect":
            self.run_detector()
            return True
        self._issue_step(session, step)
        return True

    def _pending_steps_of(self, sid: str) -> bool:
        if self.config.eager:
            return self.sessions[sid].peek_step() is not None
        return any(s.session == sid for s in self._global_steps[self._cursor:])

    def _issue_step(self, session: Session, step: Step) -> None:
        self._trace(
            "driver", "issue", f"seq={step.seq} session={session.sid} sql={step.raw}"
        )
        if step.kind == "begin":
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
                    "coord", "mem_cancel", f"session={session.sid} bytes={step.mem}"
                )
                self._start_abort(session, "memory_cancelled")
                return
        if step.cpu and self.cpu is not None and session.group:
            # one worker per segment: the statement's gang occupies a core on
            # each until the burst completes everywhere
            for k in range(self.config.n_segments):
                self.cpu.submit(f"{session.sid}/{k}", session.group, step.cpu)
            self._cpu_pending[session.sid] = self.config.n_segments
            self._cpu_parked[session.sid] = stmt
            self._ensure_cpu_tick()
            return
        self._stmt_acquire_coord(stmt)

    def _do_begin(self, session: Session) -> None:
        if self.admission is not None and session.group:
            if self.admission.admit(session.sid, session.group) is Admission.QUEUE:
                session.queued = True
                self._trace("coord", "admission_queue", f"session={session.sid}")
                return
        self._begin_admitted(session)

    def _begin_admitted(self, session: Session) -> None:
        session.queued = False
        txn = self.dtm.begin(self.clock)
        session.txn = txn
        self.txn_sessions[txn.dxid] = session
        self.accounting[txn.dxid] = CommitAccounting()
        txn.local_xids[COORD] = txn.dxid  # the coordinator's local id is the dxid
        table = self.lock_tables[COORD]
        table.register_txn(txn.dxid)
        table.acquire(
            txn.dxid,
            LockTag(TagKind.TRANSACTION, COORD, txn.dxid),
            LockMode.EXCLUSIVE,
            self.clock,
        )
        self._trace(
            "coord",
            "begin",
            f"session={session.sid} dxid={txn.dxid} "
            f"in_progress={sorted(txn.snapshot.in_progress)} "
            f"max_committed={txn.snapshot.max_committed}",
        )
        self._session_freed(session)

    def _stmt_acquire_coord(self, stmt: Statement) -> None:
        """Take the coordinator relation lock, then fan out to segments."""
        _CoordStage(self, stmt).run()

    def _dispatch_parts(self, stmt: Statement) -> None:
        step = stmt.step
        txn = stmt.session.txn
        table = self.catalog[step.table]
        if step.kind == "update":
            self.inflight_updates += 1
            self.max_inflight_updates = max(
                self.max_inflight_updates, self.inflight_updates
            )
        if step.kind in ("update", "select"):
            pinned = step.pred.pinned_key(table) if step.pred is not None else None
            targets = (
                [route(pinned, self.config.n_segments)]
                if pinned is not None
                else list(range(self.config.n_segments))
            )
            stmt.outstanding = len(targets)
            for seg in targets:
                part = (
                    _UpdatePart(self, seg, stmt, txn, table, step.pred, step.set_c2)
                    if step.kind == "update"
                    else _SimplePart(self, seg, stmt, txn, "select", table, step.pred)
                )
                self._register_txn_at(seg, txn)
                self.send(COORD, seg, part.run)
        elif step.kind == "insert":
            by_seg: dict[int, list] = {}
            for values in step.rows:
                by_seg.setdefault(
                    route(table.dist_value(values), self.config.n_segments), []
                ).append(tuple(values))
            stmt.outstanding = len(by_seg)
            for seg in sorted(by_seg):
                part = _SimplePart(self, seg, stmt, txn, "insert", table, rows=by_seg[seg])
                self._register_txn_at(seg, txn)
                self.send(COORD, seg, part.run)
        elif step.kind == "lock":
            targets = list(range(self.config.n_segments))
            stmt.outstanding = len(targets)
            for seg in targets:
                part = _SimplePart(self, seg, stmt, txn, "lock", table)
                self._register_txn_at(seg, txn)
                self.send(COORD, seg, part.run)

    def _register_txn_at(self, seg: int, txn: TransactionDescriptor) -> None:
        if not self.lock_tables[seg].is_registered(txn.dxid):
            self.lock_tables[seg].register_txn(txn.dxid)

    # -------------------------------------------------- segment-side helpers

    def _ensure_local_xid(self, seg: int, txn: TransactionDescriptor) -> int:
        """Assign a local xid (and the transaction self-lock) on first write."""
        local = txn.local_xids.get(seg)
        if local is not None:
            return local
        local = self._next_local_xid[seg]
        self._next_local_xid[seg] = local + 1
        txn.local_xids[seg] = local
        self.local_states[seg][local] = "in_progress"
        self.mappings[seg].record(local, txn.dxid)
        self.lock_tables[seg].acquire(
            txn.dxid,
            LockTag(TagKind.TRANSACTION, seg, local),
            LockMode.EXCLUSIVE,
            self.clock,
        )
        self._trace(seg, "assign_local_xid", f"dxid={txn.dxid} local={local}")
        return local

    def _visibility(self, seg: int, txn: TransactionDescriptor | None, snapshot=None):
        snap = (
            snapshot
            if snapshot is not None
            else (txn.snapshot if txn is not None else self.dtm.current_snapshot())
        )
        mapping = self.mappings[seg]
        states = self.local_states[seg]
        return lambda version: dtm_mod.visible(
            version,
            snap,
            mapping,
            txn,
            local_committed=lambda lx: states.get(lx) == "committed",
            dxid_committed=self.dtm.is_committed,
        )

    def _lock_relation(self, site, stmt: Statement, txn, cont) -> bool:
        """Take the statement's relation lock at `site`, or park `cont` on it.

        Legacy locking makes updates take EXCLUSIVE, one writer per table.
        """
        kind = stmt.step.kind
        mode = RELATION_LOCK_MODE[kind]
        if kind == "update" and self.config.legacy_locking:
            mode = LockMode.EXCLUSIVE
        tag = LockTag(TagKind.RELATION, site, stmt.step.table)
        return self._acquire_or_park(site, txn, tag, mode, cont)

    def _acquire_or_park(self, site, txn, tag, mode, cont) -> bool:
        result, blockers = self.lock_tables[site].acquire(
            txn.dxid, tag, mode, self.clock
        )
        if result is AcquireResult.GRANTED:
            return True
        self._parked[site][(tag, txn.dxid)] = cont
        self._trace(
            site,
            "lock_wait",
            f"dxid={txn.dxid} tag={tag} mode={mode.name} "
            f"blockers={sorted({b.txn for b in blockers})}",
        )
        self._ensure_gdd_scheduled()
        return False

    def _schedule_promotions(self, site, promoted) -> None:
        for req in promoted:
            self._trace(
                site, "lock_grant", f"dxid={req.txn} tag={req.tag} mode={req.mode.name}"
            )
            cont = self._parked[site].pop((req.tag, req.txn), None)
            if cont is not None:
                self.schedule(0, cont.run)

    def _drop_parked(self, txn: TransactionDescriptor) -> None:
        for site in self.sites:
            for key in [k for k in self._parked[site] if k[1] == txn.dxid]:
                del self._parked[site][key]

    def _segment_part_done(self, seg, stmt, txn, count, rows=None, wrote=False) -> None:
        if stmt.dead:
            return
        self.send(seg, COORD, lambda: self._part_reply(stmt, seg, count, rows, wrote))

    def _segment_stmt_failed(self, seg, stmt, txn, reason: str) -> None:
        if stmt.dead:
            return
        self._trace(seg, "stmt_conflict", f"dxid={txn.dxid} reason={reason}")

        def deliver():
            if stmt.dead or txn.is_finished():
                return
            self._start_abort(stmt.session, reason)

        self.send(seg, COORD, deliver)

    def _part_reply(self, stmt, seg, count, rows, wrote) -> None:
        if stmt.dead:
            return
        txn = stmt.session.txn
        if wrote:
            txn.write_segments.add(seg)
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
            f"session={session.sid} seq={stmt.step.seq} count={stmt.count}",
        )
        session.stmt = None
        self._progress += 1
        self._session_freed(session)

    def _session_freed(self, session: Session) -> None:
        if self.config.eager and not session.terminal:
            self.schedule(0, lambda: self._issue_for_session(session))

    # ------------------------------------------------ commit and abort rounds

    def _touched_segments(self, txn: TransactionDescriptor) -> list[int]:
        touched = {s for s in txn.local_xids if s != COORD}
        for s in range(self.config.n_segments):
            if self.lock_tables[s].has_requests(txn.dxid):
                touched.add(s)
        return sorted(touched)

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
        writers = sorted(txn.write_segments)
        self._trace(
            "coord",
            "commit_start",
            f"session={session.sid} dxid={txn.dxid} protocol={protocol.value} "
            f"write_segments={writers}",
        )

        def commit() -> None:
            for seg in touched:
                if seg not in txn.write_segments:
                    self.send(COORD, seg, lambda s=seg: self._segment_end(s, txn))
            self._send_round(
                session,
                writers,
                dtm_mod.MSG_COMMIT,
                self._segment_end,
                lambda: self._finish_txn(session, committed=True),
            )

        def prepared() -> None:
            self._fsync(COORD, txn, dtm_mod.FSYNC_COORD_COMMIT)
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
        if session.stmt is not None:
            if session.stmt.step.kind == "update":
                self.inflight_updates -= 1
            session.stmt.dead = True
            session.stmt = None
        self._drop_parked(txn)
        self._cpu_parked.pop(session.sid, None)
        self._cpu_pending.pop(session.sid, None)
        touched = self._touched_segments(txn)
        self._trace(
            "coord",
            "abort_start",
            f"session={session.sid} dxid={txn.dxid} reason={reason}",
        )
        self._send_round(
            session,
            touched,
            None,
            self._segment_end,
            lambda: self._finish_txn(session, committed=False, reason=reason),
            abort=True,
        )

    def _send_round(self, session, sites, msg, at_site, then, abort=False) -> None:
        """Start a round: send `msg` to each site in order, where
        `at_site(site, txn, round)` runs; `then` runs once every site has
        replied, at once if there is none.  Abort messages are not counted
        (`msg` is None).  The round replaces the session's round in flight."""
        txn = session.txn
        rnd = _Round(session, set(sites), then, abort)
        session.round = rnd
        for site in sites:
            if msg is not None:
                self.accounting[txn.dxid].count_message(msg)
            self.send(COORD, site, lambda s=site: at_site(s, txn, rnd))
        if not sites:
            then()

    def _reply(self, rnd: _Round, site: int, msg: str | None, ok: bool = True) -> None:
        """A site's reply to `rnd`, counted as `msg`; dropped unless `rnd` is
        the round in flight.  A vetoed prepare (`ok` False) aborts instead."""
        session = rnd.session
        if session.round is not rnd:
            return
        dxid = session.txn.dxid
        if not ok:
            self._trace("coord", "prepare_failed", f"dxid={dxid} seg={site}")
            self._start_abort(session, "prepare_failed")
            return
        if msg is not None:
            self.accounting[dxid].count_message(msg)
        rnd.awaiting.discard(site)
        if not rnd.awaiting:
            rnd.then()

    def _segment_prepare(self, seg: int, txn: TransactionDescriptor, rnd: _Round) -> None:
        if self._prepare_veto(seg, txn):
            self._trace(seg, "prepare_fail", f"dxid={txn.dxid}")
            self.send(seg, COORD, lambda: self._reply(rnd, seg, None, ok=False))
            return
        self._fsync(seg, txn, dtm_mod.FSYNC_SEGMENT_PREPARE)
        self._trace(seg, "prepared", f"dxid={txn.dxid}")
        self.send(seg, COORD, lambda: self._reply(rnd, seg, dtm_mod.MSG_PREPARE_OK))

    def _prepare_veto(self, seg: int, txn: TransactionDescriptor) -> bool:
        return False  # test hook: patched to inject prepare failures

    def _segment_end(
        self, seg: int, txn: TransactionDescriptor, rnd: _Round | None = None
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
        local = txn.local_xids.get(seg)
        if local is not None:
            self.local_states[seg][local] = "committed" if committed else "aborted"
        promoted = self.lock_tables[seg].release_all(txn.dxid, self.clock)
        if rnd is None:
            self._trace(seg, "end_local", f"dxid={txn.dxid}")
        elif committed:
            onephase = self.accounting[txn.dxid].protocol is Protocol.ONE_PHASE
            self._trace(seg, "commit_local", f"dxid={txn.dxid} onephase={onephase}")
        else:
            self._trace(seg, "abort_local", f"dxid={txn.dxid}")
        self._schedule_promotions(seg, promoted)
        if rnd is not None:
            reply = dtm_mod.MSG_COMMIT_OK if committed else None
            self.send(seg, COORD, lambda: self._reply(rnd, seg, reply))

    def _fsync(self, site, txn, kind: str) -> None:
        self.accounting[txn.dxid].count_fsync(kind)
        self._trace(site, "fsync", f"dxid={txn.dxid} kind={kind}")

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
        promoted = self.lock_tables[COORD].release_all(txn.dxid, self.clock)
        self._schedule_promotions(COORD, promoted)
        self._trace(
            "coord",
            "txn_end",
            f"session={session.sid} dxid={txn.dxid} outcome={session.outcomes[-1]}",
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
            session.skip_to_next_txn()
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
        blocked = any(
            self.sessions[sid].stmt is not None for sid in sorted(self.sessions)
        )
        if not blocked:
            return  # re-armed by the next lock wait
        if self.config.collection_skew > 0:
            self._collect_staggered()
            return
        verdict = self.run_detector(forced=False)
        self._reschedule_after(verdict)

    def _reschedule_after(self, verdict: DetectionVerdict) -> None:
        if verdict.outcome is Outcome.DEADLOCK or self._progress != self._gdd_last_progress:
            self._gdd_last_progress = self._progress
            self._ensure_gdd_scheduled()
        # otherwise: no progress since the last clean run; detection cannot
        # help, so stop re-arming (the run loop will surface the stall)

    def _collect_staggered(self) -> None:
        """Spread per-segment snapshots over time (asynchronous collection)."""
        self._pending_local_graphs = {}
        skew = self.config.collection_skew
        for i, site in enumerate(self.sites):
            self.schedule(
                skew * i,
                lambda s=site: self._pending_local_graphs.__setitem__(
                    s, snapshot_local(self.lock_tables[s])
                ),
                background=True,
            )
        self.schedule(
            skew * len(self.sites), self._finish_staggered, background=True
        )

    def _finish_staggered(self) -> None:
        graph = GlobalWaitForGraph(dict(self._pending_local_graphs))
        self._pending_local_graphs = {}
        verdict = self._detect_on(graph)
        self._reschedule_after(verdict)

    def collect_graph(self) -> GlobalWaitForGraph:
        return collect_global([self.lock_tables[s] for s in self.sites])

    def run_detector(self, forced: bool = False) -> DetectionVerdict:
        return self._detect_on(self.collect_graph())

    def _detect_on(self, graph: GlobalWaitForGraph) -> DetectionVerdict:
        verdict = detect(graph, self.txn_is_live, self.config.gdd.victim_policy)
        for step in verdict.steps:
            self._trace("gdd", "reduce", step.describe())
        self._trace(
            "gdd",
            "verdict",
            f"outcome={verdict.outcome.value} "
            f"residual={[str(e) for e in verdict.residual_edges]} "
            f"victims={list(verdict.victims)}",
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
        finished = self.cpu.tick()
        for qid in finished:
            sid = qid.rsplit("/", 1)[0]
            left = self._cpu_pending.get(sid)
            if left is None:
                continue  # statement was torn down while its gang ran
            if left > 1:
                self._cpu_pending[sid] = left - 1
                continue
            del self._cpu_pending[sid]
            stmt = self._cpu_parked.pop(sid, None)
            if stmt is not None and not stmt.dead:
                self.schedule(0, lambda s=stmt: self._stmt_acquire_coord(s))
        if self.cpu.has_work():
            self._ensure_cpu_tick()

    # --------------------------------------------------------------- results

    def session_outcome(self, sid: str) -> str:
        session = self.sessions[sid]
        if session.stmt is not None:
            return "stalled"
        if session.outcomes:
            return session.outcomes[-1]
        if session.queued or self._pending_steps_of(sid):
            return "stalled"
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
            for seg in range(self.config.n_segments):
                vis = self._visibility(seg, None, snap)
                rows.extend(
                    v.values for _, v in self.stores[seg].scan(table, Predicate(), vis)
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
