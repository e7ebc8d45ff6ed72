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
        # counts are ints and memory percentages numbers; a bool is neither
        counts = [("concurrency", self.concurrency), ("cpu_rate_limit", self.cpu_rate_limit)]
        for field, value in counts + [("cpuset core", core) for core in self.cpuset or ()]:
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ConfigError(f"group {self.name}: {field} must be an integer, not {value!r}")
        for field in ("memory_limit", "memory_shared_quota"):
            if isinstance(getattr(self, field), bool):
                raise ConfigError(f"group {self.name}: {field} must be a number, not a bool")
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


class Admission(Enum):
    RUN = "run"
    QUEUE = "queue"


# Per-transaction paths read these members as module constants: reading one
# off its Enum class costs several times as much as reading a global.
_RUN, _QUEUE = Admission.RUN, Admission.QUEUE


class AdmissionControl:
    """Per-group concurrency slots, counted in `running`, with a FIFO wait
    queue; a query ends only once admitted, and `complete` hands its slot
    straight to the group's first queued query."""

    def __init__(self, groups: ResourceGroups):
        self.groups = groups
        self.running: dict[str, int] = dict.fromkeys(groups.configs, 0)
        self.queued: dict[str, deque] = {name: deque() for name in groups.configs}

    def admit(self, query, group: str) -> Admission:
        if group not in self.groups:
            raise ConfigError(f"unknown resource group {group!r}")
        if self.running[group] < self.groups.configs[group].concurrency:
            self.running[group] += 1
            return _RUN
        self.queued[group].append(query)
        return _QUEUE

    def complete(self, group: str):
        """Free the slot of a query of `group` that was admitted; returns the
        queued query that takes it, if any."""
        queue = self.queued[group]
        if queue:
            return queue.popleft()
        self.running[group] -= 1
        return None


class ChargeResult(Enum):
    OK = "ok"
    CANCELLED = "cancelled"


_OK, _CANCELLED = ChargeResult.OK, ChargeResult.CANCELLED


@dataclass
class _QueryCharges:
    group: str
    slot: float = 0.0
    group_shared: float = 0.0
    global_shared: float = 0.0


class MemoryLedger:
    """Three-layer memory accounting: slot -> group shared -> global shared."""

    def __init__(self, groups: ResourceGroups):
        self.groups = groups
        self.charges: dict[object, _QueryCharges] = {}
        self.group_shared_used: dict[str, float] = {n: 0.0 for n in groups.configs}
        self.global_shared_used = 0.0

    def charge(self, query, group: str, amount: float) -> ChargeResult:
        if not amount >= 0:  # NaN too
            raise ValueError(f"memory charge must be non-negative, not {amount!r}")
        mem = self.groups.memory[group]
        rec = self.charges.setdefault(query, _QueryCharges(group))
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
            return _CANCELLED
        rec.slot += take_slot
        rec.group_shared += take_group
        self.group_shared_used[group] += take_group
        self.global_shared_used += take_global
        rec.global_shared += take_global
        return _OK

    def release(self, query) -> None:
        rec = self.charges.pop(query, None)
        if rec is None:
            return
        self.group_shared_used[rec.group] -= rec.group_shared
        self.global_shared_used -= rec.global_shared

    def check_conservation(self) -> None:
        """Each shared layer's total matches its charges, and no usage is
        negative; each comparison is written so that a NaN fails it."""
        total_slot = sum(r.slot for r in self.charges.values())
        total_group = sum(r.group_shared for r in self.charges.values())
        total_global = sum(r.global_shared for r in self.charges.values())
        if not abs(total_group - sum(self.group_shared_used.values())) <= 1e-6:
            raise AssertionError("group shared ledger out of balance")
        if not abs(total_global - self.global_shared_used) <= 1e-6:
            raise AssertionError("global shared ledger out of balance")
        # slot usage is tracked only per query; nonnegative by construction
        if not total_slot >= -1e-9:
            raise AssertionError("negative slot usage")


@dataclass(eq=False, slots=True)
class _Task:
    query: object
    group: str
    burst: int


class CpuScheduler:
    """Weighted core pool with hard cpuset partitions.

    Queries submit bursts (whole ticks of CPU demand).  A started burst keeps
    its core until it finishes; free cores are handed out each tick, cpuset
    groups first on their own cores, then share groups on the shared cores.

    The shared-core pick, per worker: the runnable share group (one with a
    waiting task) of smallest virtual time, ties going to the lowest group
    name.  The group's vtime then grows by burst/weight, so long-run
    core-ticks converge to the share ratio.  The runnable groups are listed
    once per tick, in name order, and a group leaves the list when its
    queue empties.  A share group that submits with no task waiting or
    running is first raised to the smallest vtime of the share groups that
    have one, as CFS's `place_entity` places a waking entity against
    `min_vruntime`, so a group returning from idle replays no credit.

    Because a started burst runs to completion, the `tick()` call that ends
    it is known when it starts: each running task is filed under that call's
    number, in start order, and `tick()` pops the current call's list, as the
    cluster's event queue files events by tick (R. Brown's calendar queue).
    These lists, `_ends`, are the one record of the running tasks: a task is
    in one from the tick that starts it until the `tick()` that ends it, and
    a burst lasts at least one tick.  Preempting a running task would take it
    out of the one list it is in.

    So one tick costs O(bursts that end + bursts that start), plus a pass
    over the cpuset groups and, when a shared core is free, one listing of
    the runnable share groups; nothing is done per running task.
    `_shared_free` counts the shared cores no task holds.  No ledger of CPU
    used is kept: the core-ticks a group runs in a tick are its
    `group_running` after that tick, so `_ends` and `group_running` are the
    only records a running burst has.
    """

    def __init__(self, groups: ResourceGroups):
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
        self.shared_cores = groups.n_cores - sum(
            len(cores) for cores in self.cpuset_groups.values()
        )
        self._shared_free = self.shared_cores
        self.waiting: dict[str, deque[_Task]] = {
            name: deque() for name in sorted(groups.configs)
        }
        self._ticks = 0  # `tick()` calls so far
        self._ends: dict[int, list[_Task]] = {}  # ending call -> tasks, in start order
        # running tasks per group
        self.group_running: dict[str, int] = {n: 0 for n in sorted(groups.configs)}
        self.vtime: dict[str, float] = {name: 0.0 for name in self.share_groups}

    def submit(self, query, group: str, burst: int) -> None:
        if type(burst) is not int or burst < 1:
            raise ValueError(f"burst must be at least one tick, as an int, not {burst!r}")
        queue = self.waiting.get(group)
        if queue is None:
            raise ConfigError(f"unknown resource group {group!r}")
        if group in self.vtime and not queue and not self.group_running[group]:
            # an idle share group returns at the smallest vtime of the busy ones
            vtime = self.vtime
            busy = [
                vtime[name]
                for name in self.share_groups
                if self.waiting[name] or self.group_running[name]
            ]
            if busy:
                vtime[group] = max(vtime[group], min(busy))
        queue.append(_Task(query, group, burst))

    def has_work(self) -> bool:
        return bool(self._ends) or any(self.waiting.values())

    def tick(self) -> list[object]:
        """Advance one tick; returns queries whose bursts completed."""
        self._ticks = now = self._ticks + 1
        finished = []
        running, ends = self.group_running, self._ends
        weights = self.share_groups
        free = self._shared_free
        for task in ends.pop(now, ()):
            name = task.group
            running[name] -= 1
            if name in weights:
                free += 1
            finished.append(task.query)

        # hard partitions: each cpuset group fills only its own cores
        for name, cores in self.cpuset_groups.items():
            waiting = self.waiting[name]
            while waiting and running[name] < len(cores):
                task = waiting.popleft()
                running[name] += 1
                ends.setdefault(now + task.burst, []).append(task)

        # shared cores: smallest virtual time first among runnable share groups
        if free > 0:
            queues, vtime = self.waiting, self.vtime
            # in name order, so `min` gives a tie to the lowest name
            runnable = [name for name in weights if queues[name]]
            while runnable:
                if len(runnable) > 1:
                    name = min(runnable, key=vtime.__getitem__)
                else:  # most ticks of `mixed-htap`: one group has a queue
                    name = runnable[0]
                queue = queues[name]
                task = queue.popleft()
                if not queue:
                    runnable.remove(name)
                burst = task.burst
                vtime[name] += burst / weights[name]
                running[name] += 1
                ends.setdefault(now + burst, []).append(task)
                free -= 1
                if free == 0:
                    break
        self._shared_free = free
        return finished
