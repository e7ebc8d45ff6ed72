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


class TestConfigValidation:
    def test_worked_example_slot_quota(self):
        # 1000 total, 35% limit -> 350; 20% shared -> 70; 280 / 10 = 28
        groups = ResourceGroups([shares("olap")], global_memory=1000.0)
        mem = groups.memory["olap"]
        assert mem.total == 350.0
        assert mem.shared == 70.0
        assert groups.slot_quota("olap") == 28.0

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
        assert adm.complete("q1", "g") == "q3"
        assert adm.complete("q2", "g") == "q4"
        assert adm.complete("q3", "g") is None

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
        assert ledger.usage_of("q") == 0.0
        assert ledger.group_shared_used["g"] == 0.0
        assert ledger.global_shared_used == 0.0

    def test_negative_charge_rejected(self):
        groups, ledger = self.make()
        with pytest.raises(ValueError):
            ledger.charge("q", "g", -1.0)

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
                assert ledger.usage_of(query) == 0.0
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

    def test_share_ratio_converges_one_to_three(self):
        groups = ResourceGroups(
            [shares("a", mem=10, cpu=20), shares("b", mem=10, cpu=60)],
            1000.0,
            n_cores=32,
        )
        sched = CpuScheduler(groups)
        counter = {"a": 0, "b": 0}
        for tick in range(10_000):
            for name in ("a", "b"):
                while len(sched.waiting[name]) < 64:
                    counter[name] += 1
                    sched.submit(f"{name}{counter[name]}", name, 1 + (counter[name] % 3))
            sched.tick()
        ratio = sched.group_core_ticks["a"] / sched.group_core_ticks["b"]
        assert abs(ratio - 1 / 3) < 0.05 / 3 * 5  # 1:3 within 5%

    def test_lone_share_group_gets_all_cores(self):
        groups = ResourceGroups([shares("a", mem=10, cpu=20)], 1000.0, n_cores=32)
        sched = CpuScheduler(groups)
        for tick in range(1000):
            self.saturate(sched, "a", 64 - len(sched.waiting["a"]), start=tick * 64)
            sched.tick()
        assert sched.group_core_ticks["a"] >= 0.99 * 32 * 1000

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
            assert sched.grantable_waiting() == 0

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
        running = [t for t in sched.running if t.group == "a"]
        assert len(running) == 16  # only the shared half of the machine

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
        core_ticks = {name: 0 for name in "abp"}
        for n, op in enumerate(ops + ["tick"] * 8):
            if op != "tick":
                sched.submit(f"q{n}", op[0], op[1])
                continue
            sched.tick()
            recount = {name: 0 for name in "abp"}
            for task in sched.running:
                recount[task.group] += 1
            assert sched.group_running == recount
            for name in core_ticks:
                core_ticks[name] += recount[name]
            assert sched.group_core_ticks == core_ticks


class ReferenceScheduler:
    """`CpuScheduler` as it was before running tasks were filed by the tick
    their burst ends: every tick decrements every running task, and the
    shared cores' candidates and vtime floor are built on every tick."""

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
        self.group_core_ticks = {n: 0 for n in sorted(groups.configs)}

    def submit(self, query, group, burst):
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
        active_vtimes = [
            self.vtime[n]
            for n in self.share_groups
            if self.waiting[n] or self.group_running[n]
        ]
        floor = min(active_vtimes) if active_vtimes else 0.0
        free = self.shared_cores - sum(self.group_running[n] for n in self.share_groups)
        while free > 0:
            candidates = [n for n in self.share_groups if self.waiting[n]]
            if not candidates:
                break
            name = min(candidates, key=lambda n: (self.vtime[n], n))
            task = self.waiting[name].popleft()
            self.vtime[name] = max(self.vtime[name], floor)
            self.vtime[name] += task.remaining / self.share_groups[name]
            self._start(task)
            free -= 1
        for name, n in self.group_running.items():
            self.group_core_ticks[name] += n
        return finished


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from("abp"), st.integers(1, 12), st.integers(1, 4)),
            st.integers(1, 6),
        ),
        max_size=60,
    )
)
def test_end_tick_lists_match_per_task_decrement(ops):
    """Side by side with `ReferenceScheduler`: after every tick, the same
    finished queries in the same order, the same running tasks in the same
    order, and the same per-group counts, core-ticks and vtimes.  An op is
    a submit of `count` bursts of one length to a group, or some ticks."""
    groups = ResourceGroups(
        [shares("a", mem=10, cpu=30), shares("b", mem=10, cpu=10),
         pinned("p", range(0, 3), mem=10)],
        1000.0,
        n_cores=8,
    )
    sched, ref = CpuScheduler(groups), ReferenceScheduler(groups)

    def tick():
        assert sched.tick() == ref.tick()
        assert [t.query for t in sched.running] == [t.query for t in ref.running]
        assert sched.group_running == ref.group_running
        assert sched.group_core_ticks == ref.group_core_ticks
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
