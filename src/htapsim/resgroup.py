"""Simulated resource isolation: admission, three-layer memory, CPU scheduling.

CPU is a tick-sliced core pool, not OS cgroups.  A group is either pinned to a
cpuset (hard cap: its queries only ever run on those cores) or weighted by
cpu-rate-limit shares over the remaining cores (soft: idle share capacity is
redistributed to whoever is runnable).  A started burst runs to completion,
so the scheduler files each running task under the tick its burst ends (see
`CpuScheduler`).  Memory charges walk slot quota, then group shared quota,
then global shared; a query is cancelled only when all three layers are
exhausted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

N_CORES = 32  # cores that CPU rates and cpusets divide


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ResourceGroupConfig:
    name: str
    concurrency: int
    memory_limit: float  # percent of global memory
    memory_shared_quota: float = 20.0  # percent of group memory
    cpu_rate_limit: int | None = None  # percent shares (soft)
    cpuset: frozenset[int] | None = None  # simulated cores (hard)

    def __post_init__(self):
        if self.concurrency < 1:
            raise ConfigError(f"group {self.name}: concurrency must be >= 1")
        if not (0 < self.memory_limit <= 100):
            raise ConfigError(f"group {self.name}: memory limit out of (0,100]")
        if not (0 < self.memory_shared_quota <= 100):
            raise ConfigError(f"group {self.name}: shared quota out of (0,100]")
        if (self.cpu_rate_limit is None) == (self.cpuset is None):
            raise ConfigError(
                f"group {self.name}: exactly one of cpu_rate_limit/cpuset required"
            )
        if self.cpu_rate_limit is not None and not (0 < self.cpu_rate_limit <= 100):
            raise ConfigError(f"group {self.name}: cpu rate limit out of (0,100]")
        if self.cpuset is not None and not self.cpuset:
            raise ConfigError(f"group {self.name}: empty cpuset")


def group_set_fault(
    configs: list[ResourceGroupConfig], n_cores: int = N_CORES
) -> tuple[int, str] | None:
    """The first fault of `configs` taken as a set, as (index of the group at
    fault, message), or None.  The checks: duplicate names, memory limits
    above 100% in all, a cpuset that overlaps an earlier one or leaves
    0..n_cores-1, and share groups when the cpusets take every core, since a
    share-group task could then never start."""
    names: set[str] = set()
    for i, g in enumerate(configs):
        if g.name in names:
            return i, f"duplicate group name {g.name!r}"
        names.add(g.name)
    memory = 0.0
    for i, g in enumerate(configs):
        memory += g.memory_limit
        if memory > 100 + 1e-9:
            return i, "group memory limits exceed 100% of global memory"
    used_cores: set[int] = set()
    for i, g in enumerate(configs):
        if g.cpuset is None:
            continue
        if g.cpuset & used_cores:
            return i, f"group {g.name}: cpuset overlaps another group"
        if any(c < 0 or c >= n_cores for c in g.cpuset):
            return i, f"group {g.name}: cpuset outside 0..{n_cores - 1}"
        used_cores |= g.cpuset
    if len(used_cores) == n_cores:
        for i, g in enumerate(configs):
            if g.cpu_rate_limit is not None:
                return i, f"group {g.name}: cpusets leave no core for CPU_RATE_LIMIT"
    return None


@dataclass
class GroupMemory:
    total: float
    shared: float
    slot_quota: float


class ResourceGroups:
    """Validated set of groups plus derived memory geometry."""

    def __init__(
        self,
        configs: list[ResourceGroupConfig],
        global_memory: float,
        n_cores: int = N_CORES,
    ):
        fault = group_set_fault(configs, n_cores)
        if fault is not None:
            raise ConfigError(fault[1])
        self.configs = {g.name: g for g in configs}
        self.global_memory = global_memory
        self.n_cores = n_cores
        self.memory: dict[str, GroupMemory] = {}
        for g in configs:
            total = global_memory * g.memory_limit / 100.0
            shared = total * g.memory_shared_quota / 100.0
            slot_quota = (total - shared) / g.concurrency
            self.memory[g.name] = GroupMemory(total, shared, slot_quota)
        # global shared pool: whatever the group limits leave unassigned
        self.global_shared = global_memory * (
            1.0 - sum(g.memory_limit for g in configs) / 100.0
        )

    def __contains__(self, name: str) -> bool:
        return name in self.configs

    def slot_quota(self, name: str) -> float:
        return self.memory[name].slot_quota


class Admission(Enum):
    RUN = "run"
    QUEUE = "queue"


class AdmissionControl:
    """Per-group concurrency slots with a FIFO wait queue."""

    def __init__(self, groups: ResourceGroups):
        self.groups = groups
        self.active: dict[str, list] = {name: [] for name in groups.configs}
        self.queued: dict[str, deque] = {name: deque() for name in groups.configs}

    def admit(self, query, group: str) -> Admission:
        if group not in self.groups:
            raise ConfigError(f"unknown resource group {group!r}")
        cfg = self.groups.configs[group]
        if len(self.active[group]) < cfg.concurrency:
            self.active[group].append(query)
            return Admission.RUN
        self.queued[group].append(query)
        return Admission.QUEUE

    def complete(self, query, group: str):
        """Release a slot; returns the dequeued query now admitted, if any."""
        if query in self.active[group]:
            self.active[group].remove(query)
        elif query in self.queued[group]:
            self.queued[group].remove(query)
            return None
        if self.queued[group] and len(self.active[group]) < self.groups.configs[group].concurrency:
            nxt = self.queued[group].popleft()
            self.active[group].append(nxt)
            return nxt
        return None


class ChargeResult(Enum):
    OK = "ok"
    CANCELLED = "cancelled"


@dataclass
class _QueryCharges:
    slot: float = 0.0
    group_shared: float = 0.0
    global_shared: float = 0.0


class MemoryLedger:
    """Three-layer memory accounting: slot -> group shared -> global shared."""

    def __init__(self, groups: ResourceGroups):
        self.groups = groups
        self.charges: dict[object, _QueryCharges] = {}
        self.query_group: dict[object, str] = {}
        self.group_shared_used: dict[str, float] = {n: 0.0 for n in groups.configs}
        self.global_shared_used = 0.0

    def charge(self, query, group: str, amount: float) -> ChargeResult:
        if amount < 0:
            raise ValueError("memory charge must be non-negative")
        mem = self.groups.memory[group]
        rec = self.charges.setdefault(query, _QueryCharges())
        self.query_group[query] = group
        take_slot = min(amount, max(0.0, mem.slot_quota - rec.slot))
        rest = amount - take_slot
        take_group = min(rest, max(0.0, mem.shared - self.group_shared_used[group]))
        rest -= take_group
        take_global = min(
            rest, max(0.0, self.groups.global_shared - self.global_shared_used)
        )
        rest -= take_global
        if rest > 1e-9:
            # all three layers exhausted: cancel and release everything
            self.release(query)
            return ChargeResult.CANCELLED
        rec.slot += take_slot
        rec.group_shared += take_group
        self.group_shared_used[group] += take_group
        self.global_shared_used += take_global
        rec.global_shared += take_global
        return ChargeResult.OK

    def release(self, query) -> None:
        rec = self.charges.pop(query, None)
        if rec is None:
            return
        group = self.query_group.pop(query)
        self.group_shared_used[group] -= rec.group_shared
        self.global_shared_used -= rec.global_shared

    def usage_of(self, query) -> float:
        rec = self.charges.get(query)
        if rec is None:
            return 0.0
        return rec.slot + rec.group_shared + rec.global_shared

    def check_conservation(self) -> None:
        total_slot = sum(r.slot for r in self.charges.values())
        total_group = sum(r.group_shared for r in self.charges.values())
        total_global = sum(r.global_shared for r in self.charges.values())
        if abs(total_group - sum(self.group_shared_used.values())) > 1e-6:
            raise AssertionError("group shared ledger out of balance")
        if abs(total_global - self.global_shared_used) > 1e-6:
            raise AssertionError("global shared ledger out of balance")
        # slot usage is tracked only per query; nonnegative by construction
        if total_slot < -1e-9:
            raise AssertionError("negative slot usage")


@dataclass(eq=False)
class _Task:
    query: object
    group: str
    burst: int


class CpuScheduler:
    """Weighted core pool with hard cpuset partitions.

    Queries submit bursts (whole ticks of CPU demand).  A started burst keeps
    its core until it finishes; free cores are handed out each tick, cpuset
    groups first on their own cores, then share groups on the shared cores by
    smallest virtual time (vtime grows by burst/weight, so long-run core-ticks
    converge to the share ratio).

    Because a started burst runs to completion, the `tick()` call that ends
    it is known when it starts: each running task is filed under that call's
    number, in start order, and `tick()` pops the current call's list, as the
    cluster's event queue files events by tick (R. Brown's calendar queue).
    Preempting a running task would have to take it out of its list again.
    """

    def __init__(self, groups: ResourceGroups):
        self.groups = groups
        self.n_cores = groups.n_cores
        self.cpuset_groups = {
            name: cfg.cpuset
            for name, cfg in sorted(groups.configs.items())
            if cfg.cpuset is not None
        }
        self.share_groups = {
            name: cfg.cpu_rate_limit
            for name, cfg in sorted(groups.configs.items())
            if cfg.cpu_rate_limit is not None
        }
        self.shared_cores = self.n_cores - sum(
            len(cores) for cores in self.cpuset_groups.values()
        )
        self.waiting: dict[str, deque[_Task]] = {
            name: deque() for name in sorted(groups.configs)
        }
        self.running: dict[_Task, None] = {}  # in start order
        self._ticks = 0  # `tick()` calls so far
        self._ends: dict[int, list[_Task]] = {}  # ending call -> tasks, in start order
        # tasks in `running` per group, and of all share groups together
        self.group_running: dict[str, int] = {n: 0 for n in sorted(groups.configs)}
        self.share_running = 0
        self.vtime: dict[str, float] = {name: 0.0 for name in self.share_groups}
        self.group_core_ticks: dict[str, int] = {n: 0 for n in sorted(groups.configs)}

    def submit(self, query, group: str, burst: int) -> None:
        if burst < 1:
            raise ValueError("burst must be at least one tick")
        if group not in self.waiting:
            raise ConfigError(f"unknown resource group {group!r}")
        self.waiting[group].append(_Task(query, group, burst))

    def has_work(self) -> bool:
        return bool(self.running) or any(self.waiting.values())

    def _start(self, task: _Task) -> None:
        self.running[task] = None
        self.group_running[task.group] += 1
        end = self._ticks + task.burst
        ending = self._ends.get(end)
        if ending is None:
            self._ends[end] = [task]
        else:
            ending.append(task)

    def tick(self) -> list[object]:
        """Advance one tick; returns queries whose bursts completed."""
        self._ticks += 1
        finished = []
        for task in self._ends.pop(self._ticks, ()):
            del self.running[task]
            self.group_running[task.group] -= 1
            if task.group in self.share_groups:
                self.share_running -= 1
            finished.append(task.query)

        # hard partitions: each cpuset group fills only its own cores
        for name, cores in self.cpuset_groups.items():
            waiting = self.waiting[name]
            while waiting and self.group_running[name] < len(cores):
                self._start(waiting.popleft())

        # shared cores: smallest virtual time first among runnable share groups
        free = self.shared_cores - self.share_running
        if free > 0 and any(self.waiting[n] for n in self.share_groups):
            floor = min(
                self.vtime[n]
                for n in self.share_groups
                if self.waiting[n] or self.group_running[n]
            )
            while free > 0:
                candidates = [n for n in self.share_groups if self.waiting[n]]
                if not candidates:
                    break
                name = min(candidates, key=lambda n: (self.vtime[n], n))
                task = self.waiting[name].popleft()
                # returning groups must not replay accumulated idle credit
                self.vtime[name] = max(self.vtime[name], floor)
                self.vtime[name] += task.burst / self.share_groups[name]
                self._start(task)
                self.share_running += 1
                free -= 1

        for name, n in self.group_running.items():
            self.group_core_ticks[name] += n
        return finished

    def grantable_waiting(self) -> int:
        """Waiting tasks that could run now given the hard caps."""
        n = 0
        for name, cores in self.cpuset_groups.items():
            room = len(cores) - self.group_running[name]
            n += min(room, len(self.waiting[name]))
        shared_room = self.shared_cores - self.share_running
        share_waiting = sum(len(self.waiting[n]) for n in self.share_groups)
        n += min(shared_room, share_waiting)
        return n
