import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from htapsim.resgroup import (
    Admission,
    AdmissionControl,
    ChargeResult,
    ConfigError,
    CpuScheduler,
    MemoryLedger,
    ResourceGroupConfig,
    ResourceGroups,
    group_set_fault,
)


def shares(name, concurrency=10, mem=35, quota=20, cpu=20):
    return ResourceGroupConfig(
        name, concurrency, mem, quota, cpu_rate_limit=cpu
    )


def pinned(name, cores, concurrency=10, mem=15, quota=20):
    return ResourceGroupConfig(
        name, concurrency, mem, quota, cpuset=frozenset(cores)
    )


def usage_of(ledger, query) -> float:
    """The memory `query` holds over its slot and the two shared layers."""
    rec = ledger.charges.get(query)
    if rec is None:
        return 0.0
    return rec.slot + rec.group_shared + rec.global_shared


def counted_tick(sched, core_ticks):
    """`sched.tick()`, adding each group's core-ticks in that tick, its
    `group_running` after it, to `core_ticks`; returns what `tick()` did."""
    finished = sched.tick()
    for name, n in sched.group_running.items():
        core_ticks[name] = core_ticks.get(name, 0) + n
    return finished


def grantable_waiting(sched) -> int:
    """Waiting tasks that could run now given the hard caps."""
    n = 0
    for name, cores in sched.cpuset_groups.items():
        room = len(cores) - sched.group_running[name]
        n += min(room, len(sched.waiting[name]))
    shared_room = sched.shared_cores - sum(
        sched.group_running[n] for n in sched.share_groups
    )
    share_waiting = sum(len(sched.waiting[n]) for n in sched.share_groups)
    n += min(shared_room, share_waiting)
    return n


class TestConfigValidation:
    def test_worked_example_slot_quota(self):
        # 1000 total, 35% limit -> 350; 20% shared -> 70; 280 / 10 = 28
        groups = ResourceGroups([shares("olap")], global_memory=1000.0)
        mem = groups.memory["olap"]
        assert mem.total == 350.0
        assert mem.shared == 70.0
        assert mem.slot_quota == 28.0

    def test_concurrency_must_be_positive(self):
        with pytest.raises(ConfigError):
            shares("g", concurrency=0)

    def test_exactly_one_cpu_setting(self):
        with pytest.raises(ConfigError):
            ResourceGroupConfig("g", 1, 10, 20)
        with pytest.raises(ConfigError):
            ResourceGroupConfig(
                "g", 1, 10, 20, cpu_rate_limit=10, cpuset=frozenset({0})
            )

    def test_memory_limits_cannot_exceed_100(self):
        with pytest.raises(ConfigError):
            ResourceGroups([shares("a", mem=60), shares("b", mem=50)], 1000.0)

    def test_overlapping_cpusets_rejected(self):
        with pytest.raises(ConfigError):
            ResourceGroups(
                [pinned("a", range(0, 4)), pinned("b", range(3, 8))], 1000.0
            )

    def test_share_group_needs_a_core_the_cpusets_leave(self):
        """With every core in a cpuset, a share group's tasks could never
        start, and a run with such a task in it would never end."""
        with pytest.raises(ConfigError, match="no core for CPU_RATE_LIMIT"):
            ResourceGroups(
                [pinned("p", range(0, 16)), shares("s"), pinned("q", range(16, 32))],
                1000.0,
            )
        assert group_set_fault(
            [pinned("p", range(0, 4)), shares("s")], n_cores=4
        ) == (1, "group s: cpusets leave no core for CPU_RATE_LIMIT")
        # one core left is enough, and cpusets alone may take every core
        ResourceGroups([pinned("p", range(0, 31)), shares("s")], 1000.0)
        ResourceGroups([pinned("p", range(0, 32))], 1000.0)

    @pytest.mark.parametrize(
        "config, message",
        [
            (dict(memory_limit=0, cpu_rate_limit=10), "memory limit out of"),
            (dict(memory_limit=101, cpu_rate_limit=10), "memory limit out of"),
            (dict(memory_shared_quota=0, cpu_rate_limit=10), "shared quota out of"),
            (dict(cpu_rate_limit=0), "cpu rate limit out of"),
            (dict(cpu_rate_limit=101), "cpu rate limit out of"),
            (dict(cpuset=frozenset()), "empty cpuset"),
            (dict(concurrency=1.5, cpu_rate_limit=10), "concurrency must be an integer, not 1.5"),
            (dict(concurrency=True, cpu_rate_limit=10), "concurrency must be an integer, not True"),
            (dict(cpu_rate_limit=20.5), "cpu_rate_limit must be an integer, not 20.5"),
            (dict(cpuset=frozenset({1.5})), "cpuset core must be an integer, not 1.5"),
            (
                dict(memory_limit=True, cpu_rate_limit=10),
                "memory_limit must be a number, not a bool",
            ),
            (
                dict(memory_shared_quota=True, cpu_rate_limit=10),
                "memory_shared_quota must be a number, not a bool",
            ),
        ],
        ids=["no memory", "memory above 100", "no shared quota", "no cpu", "cpu above 100",
             "empty cpuset", "fractional concurrency", "boolean concurrency",
             "fractional cpu", "fractional core", "boolean memory", "boolean shared quota"],
    )
    def test_out_of_range_config_rejected(self, config, message):
        fields = dict(name="g", concurrency=1, memory_limit=10) | config
        with pytest.raises(ConfigError, match=f"group g: {message}"):
            ResourceGroupConfig(**fields)

    def test_global_shared_is_the_unassigned_remainder(self):
        groups = ResourceGroups([shares("a", mem=35), shares("b", mem=15)], 1000.0)
        assert groups.global_shared == pytest.approx(500.0)


class TestAdmission:
    def make(self, concurrency=2):
        groups = ResourceGroups(
            [shares("g", concurrency=concurrency), shares("other", mem=10)], 1000.0
        )
        return AdmissionControl(groups)

    def test_below_concurrency_runs(self):
        adm = self.make(2)
        assert adm.admit("q1", "g") is Admission.RUN
        assert adm.admit("q2", "g") is Admission.RUN

    def test_at_concurrency_queues_then_dequeues_fifo(self):
        adm = self.make(2)
        adm.admit("q1", "g")
        adm.admit("q2", "g")
        assert adm.admit("q3", "g") is Admission.QUEUE
        assert adm.admit("q4", "g") is Admission.QUEUE
        assert adm.complete("g") == "q3"
        assert adm.complete("g") == "q4"
        assert adm.complete("g") is None

    def test_groups_are_independent(self):
        adm = self.make(1)
        adm.admit("q1", "g")
        assert adm.admit("q2", "g") is Admission.QUEUE
        assert adm.admit("x1", "other") is Admission.RUN

    def test_unknown_group_rejected(self):
        adm = self.make()
        with pytest.raises(ConfigError):
            adm.admit("q", "nope")


class TestMemoryLedger:
    def make(self):
        groups = ResourceGroups([shares("g")], global_memory=1000.0)
        return groups, MemoryLedger(groups)

    def test_overuse_spills_into_group_shared(self):
        groups, ledger = self.make()
        assert ledger.charge("q", "g", 30.0) is ChargeResult.OK  # slot 28 + 2 shared
        assert ledger.group_shared_used["g"] == pytest.approx(2.0)
        assert ledger.global_shared_used == 0.0

    def test_spill_chain_reaches_global_shared(self):
        groups, ledger = self.make()
        # slot 28 + group shared 70 exhausted; the rest lands in global shared
        assert ledger.charge("q", "g", 150.0) is ChargeResult.OK
        assert ledger.group_shared_used["g"] == pytest.approx(70.0)
        assert ledger.global_shared_used == pytest.approx(52.0)

    def test_cancelled_only_when_all_layers_exhausted(self):
        groups, ledger = self.make()
        # headroom: 28 slot + 70 group shared + 650 global shared = 748
        assert ledger.charge("q", "g", 748.0) is ChargeResult.OK
        assert ledger.charge("q2", "g", 28.0) is ChargeResult.OK  # own slot
        assert ledger.charge("q2", "g", 1.0) is ChargeResult.CANCELLED

    def test_cancel_releases_all_charges(self):
        groups, ledger = self.make()
        ledger.charge("q", "g", 100.0)
        assert ledger.charge("q", "g", 10_000.0) is ChargeResult.CANCELLED
        assert usage_of(ledger, "q") == 0.0
        assert ledger.group_shared_used["g"] == 0.0
        assert ledger.global_shared_used == 0.0

    def test_usage_of_sums_the_three_layers(self):
        groups, ledger = self.make()
        assert usage_of(ledger, "q") == 0.0
        ledger.charge("q", "g", 150.0)  # slot 28, group shared 70, global 52
        assert usage_of(ledger, "q") == pytest.approx(150.0)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda ledger: ledger.group_shared_used.update(g=1.0), "group shared ledger"),
            (lambda ledger: setattr(ledger, "global_shared_used", 1.0), "global shared ledger"),
            (lambda ledger: setattr(ledger.charges["q"], "slot", -1.0), "negative slot usage"),
            (lambda ledger: ledger.group_shared_used.update(g=math.nan), "group shared ledger"),
            (lambda ledger: setattr(ledger, "global_shared_used", math.nan), "global shared ledger"),
            (lambda ledger: setattr(ledger.charges["q"], "slot", math.nan), "negative slot usage"),
        ],
        ids=[
            "group shared", "global shared", "slot",
            "group shared NaN", "global shared NaN", "slot NaN",
        ],
    )
    def test_conservation_check_rejects_a_corrupted_ledger(self, corrupt, message):
        groups, ledger = self.make()
        ledger.charge("q", "g", 10.0)
        ledger.check_conservation()
        corrupt(ledger)
        with pytest.raises(AssertionError, match=message):
            ledger.check_conservation()

    def test_negative_charge_rejected(self):
        """A NaN charge used to pass, leaving NaN in both shared layers, so
        that a later charge that fit was cancelled."""
        groups, ledger = self.make()
        for amount in (-1.0, math.nan):
            with pytest.raises(ValueError, match="memory charge must be non-negative"):
                ledger.charge("q", "g", amount)
        assert ledger.charge("q", "g", 30.0) is ChargeResult.OK  # 28 slot, 2 group shared
        ledger.check_conservation()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.floats(0, 400)), max_size=30))
    def test_conservation_and_cancellation_minimality(self, charges):
        groups = ResourceGroups([shares("g"), shares("h", mem=15)], 1000.0)
        ledger = MemoryLedger(groups)
        for qid, amount in charges:
            query = f"q{qid}"
            group = "g" if qid % 2 == 0 else "h"
            headroom_before = self._headroom(ledger, groups, query, group)
            result = ledger.charge(query, group, amount)
            if result is ChargeResult.CANCELLED:
                # only cancelled when the three layers really could not fit it
                assert amount > headroom_before + 1e-9
                assert usage_of(ledger, query) == 0.0
            ledger.check_conservation()

    @staticmethod
    def _headroom(ledger, groups, query, group):
        mem = groups.memory[group]
        rec = ledger.charges.get(query)
        slot_used = rec.slot if rec else 0.0
        return (
            max(0.0, mem.slot_quota - slot_used)
            + (mem.shared - ledger.group_shared_used[group])
            + (groups.global_shared - ledger.global_shared_used)
        )


class TestCpuScheduler:
    def saturate(self, sched, name, n, burst=1, start=0):
        for i in range(n):
            sched.submit(f"{name}-{start + i}", name, burst)

    def test_bad_submit_rejected(self):
        sched = CpuScheduler(ResourceGroups([shares("a")], 1000.0))
        with pytest.raises(ValueError, match="burst must be at least one tick"):
            sched.submit("q", "a", 0)
        with pytest.raises(ConfigError, match="unknown resource group 'b'"):
            sched.submit("q", "b", 1)
        assert not sched.has_work()

    def test_a_burst_that_is_not_an_int_is_rejected(self):
        """A fractional burst would be filed under a tick `tick()` never
        pops, so its task would hold its core for ever; a bool or an
        integral float is refused too, as scenario files refuse them."""
        sched = CpuScheduler(ResourceGroups([shares("a")], 1000.0))
        for burst in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="as an int, not"):
                sched.submit("q", "a", burst)
        assert not sched.has_work()

    def test_a_burst_counts_one_core_tick_per_tick_it_runs(self):
        """A 3-tick burst on an idle scheduler starts in tick 1 and ends in
        tick 4: its group reads 1, 2 and 3 core-ticks after ticks 1-3, and
        still 3 after the tick that ends it."""
        sched = CpuScheduler(ResourceGroups([shares("a")], 1000.0))
        sched.submit("q", "a", 3)
        core_ticks, read = {}, []
        for _ in range(4):
            finished = counted_tick(sched, core_ticks)
            read.append(core_ticks["a"])
        assert read == [1, 2, 3, 3]
        assert finished == ["q"]
        assert not sched.has_work()

    @pytest.mark.parametrize(
        "burst",
        [
            lambda name, n: 1 + n % 3,
            lambda name, n: 40 if name == "a" else 1,
            lambda name, n: 1 if name == "a" else 40,
        ],
        ids=["cycle-1-3", "a-40-b-1", "a-1-b-40"],
    )
    def test_share_ratio_converges_one_to_three(self, burst):
        """Weights 20:60, both groups always queued: their core-ticks
        converge to 1:3 whatever lengths their bursts have."""
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=20), shares("b", mem=10, cpu=60)],
            1000.0,
            n_cores=32,
        )
        sched = CpuScheduler(groups)
        counter = {"a": 0, "b": 0}
        core_ticks = {}
        for tick in range(10_000):
            for name in ("a", "b"):
                while len(sched.waiting[name]) < 64:
                    counter[name] += 1
                    sched.submit(f"{name}{counter[name]}", name, burst(name, counter[name]))
            counted_tick(sched, core_ticks)
        ratio = core_ticks["a"] / core_ticks["b"]
        assert abs(ratio - 1 / 3) < 0.05 / 3 * 5  # 1:3 within 5%

    def test_lone_share_group_gets_all_cores(self):
        groups = ResourceGroups([shares("a", mem=10, cpu=20)], 1000.0, n_cores=32)
        sched = CpuScheduler(groups)
        core_ticks = {}
        for tick in range(1000):
            self.saturate(sched, "a", 64 - len(sched.waiting["a"]), start=tick * 64)
            counted_tick(sched, core_ticks)
        assert core_ticks["a"] >= 0.99 * 32 * 1000

    def test_cpuset_throughput_independent_of_other_load(self):
        def run(with_noise):
            groups = ResourceGroups(
                [pinned("oltp", range(0, 4)), pinned("olap", range(4, 32))],
                1000.0,
                n_cores=32,
            )
            sched = CpuScheduler(groups)
            done = 0
            n = 0
            for tick in range(2000):
                while len(sched.waiting["oltp"]) < 8:
                    sched.submit(f"o{n}", "oltp", 2)
                    n += 1
                if with_noise:
                    while len(sched.waiting["olap"]) < 64:
                        sched.submit(f"a{tick}-{len(sched.waiting['olap'])}", "olap", 50)
                done += len([q for q in sched.tick() if q.startswith("o")])
            return done

        assert run(with_noise=True) == run(with_noise=False)

    def test_work_conservation(self):
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=30), pinned("p", range(0, 4), mem=10)],
            1000.0,
            n_cores=8,
        )
        sched = CpuScheduler(groups)
        rng = random.Random(3)
        for tick in range(500):
            for name in ("a", "p"):
                for _ in range(rng.randrange(3)):
                    sched.submit(f"{name}{tick}-{_}", name, rng.randrange(1, 4))
            sched.tick()
            # no grantable waiting task while capacity for it sits idle
            assert grantable_waiting(sched) == 0

    def test_share_group_cannot_use_pinned_cores(self):
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=100), pinned("p", range(0, 16), mem=10)],
            1000.0,
            n_cores=32,
        )
        sched = CpuScheduler(groups)
        for i in range(64):
            sched.submit(f"a{i}", "a", 1)
        sched.tick()
        assert sched.group_running["a"] == 16  # only the shared half of the machine

    def test_returning_group_replays_no_idle_credit(self):
        """One core, equal shares: `b` runs alone for 100 ticks, then `a`
        returns.  Over the next 100 ticks each gets about half the core,
        rather than `a` taking all of it to spend the credit it banked."""
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=20), shares("b", mem=10, cpu=20)], 1000.0, n_cores=1
        )
        sched = CpuScheduler(groups)
        core_ticks = {}
        for tick in range(200):
            names = ("b",) if tick < 100 else ("a", "b")
            for name in names:
                if not sched.waiting[name]:
                    sched.submit(f"{name}{tick}", name, 1)
            counted_tick(sched, core_ticks)
            if tick == 99:
                assert core_ticks == {"a": 0, "b": 100}
        assert 45 <= core_ticks["a"] <= 55
        assert 145 <= core_ticks["b"] <= 155

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from("abp"), st.integers(1, 6)),
                st.just("tick"),
            ),
            max_size=80,
        )
    )
    def test_running_counts_match_a_recount_after_every_tick(self, ops):
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=30), shares("b", mem=10, cpu=10),
             pinned("p", range(0, 3), mem=10)],
            1000.0,
            n_cores=8,
        )
        sched = CpuScheduler(groups)
        for n, op in enumerate(ops + ["tick"] * 8):
            if op != "tick":
                sched.submit(f"q{n}", op[0], op[1])
                continue
            sched.tick()
            recount = {name: 0 for name in "abp"}
            for tasks in sched._ends.values():
                for task in tasks:
                    recount[task.group] += 1
            assert sched.group_running == recount


class ReferenceScheduler:
    """`CpuScheduler` as it was before running tasks were filed by the tick
    their burst ends: every tick decrements every running task, and the
    shared cores' candidates are built for every pick.  A share group that
    submits while idle is raised to the smallest vtime of the busy ones."""

    class Task:
        def __init__(self, query, group, remaining):
            self.query, self.group, self.remaining = query, group, remaining

    def __init__(self, groups):
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
        self.waiting = {name: deque() for name in sorted(groups.configs)}
        self.running = []
        self.group_running = {n: 0 for n in sorted(groups.configs)}
        self.vtime = {name: 0.0 for name in self.share_groups}

    def submit(self, query, group, burst):
        if group in self.share_groups and not (
            self.waiting[group] or self.group_running[group]
        ):
            busy = [
                self.vtime[n]
                for n in self.share_groups
                if self.waiting[n] or self.group_running[n]
            ]
            if busy:
                self.vtime[group] = max(self.vtime[group], min(busy))
        self.waiting[group].append(self.Task(query, group, burst))

    def _start(self, task):
        self.running.append(task)
        self.group_running[task.group] += 1

    def tick(self):
        finished = []
        still = []
        for task in self.running:
            task.remaining -= 1
            if task.remaining <= 0:
                finished.append(task.query)
                self.group_running[task.group] -= 1
            else:
                still.append(task)
        self.running = still
        for name, cores in self.cpuset_groups.items():
            waiting = self.waiting[name]
            while waiting and self.group_running[name] < len(cores):
                self._start(waiting.popleft())
        free = self.shared_cores - sum(self.group_running[n] for n in self.share_groups)
        while free > 0:
            candidates = [n for n in self.share_groups if self.waiting[n]]
            if not candidates:
                break
            name = min(candidates, key=lambda n: (self.vtime[n], n))
            task = self.waiting[name].popleft()
            self.vtime[name] += task.remaining / self.share_groups[name]
            self._start(task)
            free -= 1
        return finished


def scheduler_ops(names: str, max_burst: int):
    """Ops for `run_side_by_side`: a submit of `count` bursts of one length
    to a group, as (group, burst, count), or a number of ticks."""
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(names), st.integers(1, max_burst), st.integers(1, 4)),
            st.integers(1, 6),
        ),
        max_size=60,
    )


def run_side_by_side(groups, ops):
    """Run `ops` on `CpuScheduler` and `ReferenceScheduler` side by side:
    after every tick, the same finished queries in the same order, the same
    running tasks with the same ticks left, in start order within each end
    tick, and the same per-group counts and vtimes."""
    sched, ref = CpuScheduler(groups), ReferenceScheduler(groups)

    def tick():
        assert sched.tick() == ref.tick()
        assert [
            (end - sched._ticks, t.query)
            for end in sorted(sched._ends)
            for t in sched._ends[end]
        ] == [
            (t.remaining, t.query)
            for t in sorted(ref.running, key=lambda t: t.remaining)
        ]
        assert sched.group_running == ref.group_running
        assert sched.vtime == ref.vtime
        assert sched.has_work() == bool(ref.running or any(ref.waiting.values()))

    n = 0
    for op in ops:
        if isinstance(op, int):
            for _ in range(op):
                tick()
            continue
        group, burst, count = op
        for _ in range(count):
            n += 1
            sched.submit(f"q{n}", group, burst)
            ref.submit(f"q{n}", group, burst)
    while sched.has_work():  # drain: every burst ends after its length
        tick()


@settings(max_examples=300, deadline=None)
@given(scheduler_ops("abp", 12))
def test_end_tick_lists_match_per_task_decrement(ops):
    """Side by side with `ReferenceScheduler`, with share groups of unequal
    weight and a cpuset group."""
    groups = ResourceGroups(
        [shares("a", mem=10, cpu=30), shares("b", mem=10, cpu=10),
         pinned("p", range(0, 3), mem=10)],
        1000.0,
        n_cores=8,
    )
    run_side_by_side(groups, ops)


@settings(max_examples=300, deadline=None)
@given(scheduler_ops("abc", 2))
def test_equal_weights_tie_to_the_lowest_name(ops):
    """Side by side with `ReferenceScheduler`, with three share groups of
    equal weight on two cores: short bursts keep their vtimes level, and a
    group back from idle is raised on submit to a busy group's vtime, so
    about a third of the picks with more than one runnable group are ties."""
    groups = ResourceGroups(
        [shares(name, mem=10, cpu=20) for name in "abc"], 1000.0, n_cores=2
    )
    run_side_by_side(groups, ops)
