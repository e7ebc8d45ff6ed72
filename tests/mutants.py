"""Check that the tests still catch known defects, one mutant at a time.

    python3 tests/mutants.py [name ...]

Each entry of `MUTANTS` is a defect written into the code as exact text
edits, with the tests that must fail on it.  The script copies `src`,
`tests`, `scenarios` and `pyproject.toml` to a temporary directory, then
for each mutant (all of them, or those named) applies its edits there, runs
its tests with pytest in a subprocess and puts the file back.  It prints
`killed` when the tests fail, `survived` when they pass and `error` when
pytest ends any other way, and exits 1 unless every mutant is killed.
First it runs the chosen mutants' tests on the unmutated copy, and exits 2
if they fail there, since a kill then shows nothing.

An edit's old text must match its file exactly once, so a mutant that no
longer fits the code stops the script rather than passing unseen.  Kills
are judged without `tests/test_pins.py`: a golden hash catches any change
in behaviour, so it says nothing about whether the other tests would.
Hypothesis runs with a fixed seed, so each verdict is reproducible.  Only
the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "pyproject.toml")
PINS = "tests/test_pins.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (old, new), old matching once
    reason: str
    tests: tuple[str, ...]  # pytest ids that must fail


ORACLE = "tests/test_oracle.py"
LIVENESS = f"{ORACLE}::test_gdd_restores_liveness_on_deadlocking_scenarios"
COMMIT = "tests/test_sim.py::TestCommitProtocols"

MUTANTS = [
    Mutant(
        "abort-keeps-parked-parts",
        "src/htapsim/commit.py",
        (("        site.parked.pop(txn.dxid, None)\n", "        pass\n"),),
        "an aborted transaction's waiting parts stay parked, so a later grant"
        " resumes a dead statement's part; `check_parked` sees the dead part",
        (LIVENESS,),
    ),
    Mutant(
        "horizon-at-next-dxid",
        "src/htapsim/dtm.py",
        (
            (
                "        return next(iter(self._live.values()), self.next_dxid)",
                "        return self.next_dxid",
            ),
        ),
        "chains are pruned at the newest dxid, dropping versions that live"
        " snapshots still see",
        ("tests/test_store.py::test_pruning_at_the_horizon_keeps_every_live_snapshots_scans",),
    ),
    Mutant(
        "truncate-at-the-horizon",
        "src/htapsim/dtm.py",
        (
            (
                "        while oldest in entries and entries[oldest] < horizon:\n",
                "        while oldest in entries and entries[oldest] <= horizon:\n",
            ),
        ),
        "a segment truncates the mapping of the writer at the horizon, which the"
        " snapshot whose xmin it is sees as running, so its versions fall back"
        " to local commit status",
        (
            "tests/test_dtm.py::TestTruncation"
            "::test_truncation_stops_at_the_first_entry_at_or_above_the_horizon",
            f"{ORACLE}::test_updates_stamp_the_newest_version_their_snapshot_sees",
            "tests/test_store.py::test_pruning_at_the_horizon_keeps_every_live_snapshots_scans",
            f"{COMMIT}::test_one_phase_commit_window_snapshot_sees_txn_in_progress",
        ),
    ),
    Mutant(
        "settled-at-the-horizon",
        "src/htapsim/segment.py",
        (("entries.get(xid, -1) < horizon", "entries.get(xid, -1) <= horizon"),),
        "a writer at the horizon counts as settled, though the snapshot whose"
        " xmin it is does not see it",
        ("tests/test_store.py::test_pruning_at_the_horizon_keeps_every_live_snapshots_scans",),
    ),
    Mutant(
        "reevaluate-grants-one",
        "src/htapsim/locks.py",
        (
            (
                "                promoted.append(req)\n",
                "                promoted.append(req)\n                break\n",
            ),
        ),
        "a release promotes only the first waiter it may grant",
        ("tests/test_locks.py::TestReleaseAll::test_two_compatible_waiters_both_promoted",),
    ),
    Mutant(
        "release-all-unsorted",
        "src/htapsim/locks.py",
        (("        if len(woken) > 1:\n            woken.sort(key=_born)\n", ""),),
        "promotions come in the order the transaction made its requests, not"
        " in the order its tags were born",
        ("tests/test_locks.py::TestReleaseAll::test_promotions_come_in_queue_creation_order",),
    ),
    Mutant(
        "idle-group-keeps-credit",
        "src/htapsim/resgroup.py",
        (("                vtime[group] = max(vtime[group], min(busy))\n", "                pass\n"),),
        "a share group back from idle replays the credit it built while idle",
        ("tests/test_resgroup.py::TestCpuScheduler::test_returning_group_replays_no_idle_credit",),
    ),
    Mutant(
        "dead-part-takes-its-lock",
        "src/htapsim/segment.py",
        (
            ("        if stmt.dead:\n            return\n        tag = ", "        tag = "),
            (
                "            yield txn.dxid\n            if stmt.dead:\n                return\n",
                "            yield txn.dxid\n        if stmt.dead:\n            return\n",
            ),
        ),
        "a part that reaches its site after its statement died takes the"
        " relation lock before it stops, leaving a request for the ended"
        " transaction there",
        (f"{ORACLE}::test_victims_commit_or_abort_exactly_once_per_cycle",),
    ),
    Mutant(
        "legacy-update-takes-row-exclusive",
        "src/htapsim/segment.py",
        (
            (
                '"update": (LockMode.ROW_EXCLUSIVE, LockMode.EXCLUSIVE),',
                '"update": (LockMode.ROW_EXCLUSIVE, LockMode.ROW_EXCLUSIVE),',
            ),
        ),
        "legacy locking takes an update's table in ROW EXCLUSIVE, as the"
        " detector mode does, so two updates of one table run at once instead"
        " of one writer at a time",
        (
            "tests/test_sim.py::TestLegacyLocking"
            "::test_legacy_mode_serializes_updates_on_one_relation",
        ),
    ),
    Mutant(
        "commit-round-first-writer-only",
        "src/htapsim/commit.py",
        (
            (
                "    yield from _round(cl, session, writers, _MSG_COMMIT, _segment_commit)\n",
                "    yield from _round(cl, session, writers[:1], _MSG_COMMIT, _segment_commit)\n",
            ),
        ),
        "the commit round visits only the first writer, so the other writers"
        " keep the transaction in progress and hold its locks",
        (
            f"{COMMIT}::test_two_segment_write_counts",
            f"{COMMIT}::test_three_segment_write_counts",
        ),
    ),
    Mutant(
        "last-writer-ended-locally",
        "src/htapsim/commit.py",
        (
            ("    for seg in others:\n", "    for seg in others + writers[-1:]:\n"),
            (
                "    yield from _round(cl, session, writers, _MSG_COMMIT, _segment_commit)\n",
                "    yield from _round(cl, session, writers[:-1], _MSG_COMMIT, _segment_commit)\n",
            ),
        ),
        "the last writer gets the uncounted local end of a segment that wrote"
        " nothing instead of the commit round, so its commit is never made"
        " durable or acknowledged, and a one-phase commit sends no message",
        (
            f"{COMMIT}::test_single_segment_insert_takes_one_phase",
            f"{COMMIT}::test_two_segment_write_counts",
            f"{COMMIT}::test_three_segment_write_counts",
        ),
    ),
    Mutant(
        "begin-admitted-wrong-session",
        "src/htapsim/commit.py",
        (("cl._begin_admitted(waiter)", "cl._begin_admitted(session)"),),
        "a finished transaction's admission slot begins a transaction for its"
        " own session instead of the session queued for the slot",
        ("tests/test_sim.py::TestResourceIntegration::test_admission_respects_concurrency_one",),
    ),
    Mutant(
        "reply-skips-commit-ok",
        "src/htapsim/commit.py",
        (
            (
                "    if msg is not None:\n        txn.count(msg)\n    next(end, None)\n",
                "    if msg is not None and msg != dtm_mod.MSG_COMMIT_OK:\n"
                "        txn.count(msg)\n    next(end, None)\n",
            ),
        ),
        "a segment's commit acknowledgement is not counted as a message",
        (
            f"{COMMIT}::test_single_segment_insert_takes_one_phase",
            f"{COMMIT}::test_two_segment_write_counts",
        ),
    ),
    Mutant(
        "abort-any-txn-of-the-session",
        "src/htapsim/sim.py",
        (
            (
                "        if session is None or session.txn is not txn:\n",
                "        if session is None or session.txn is None:\n",
            ),
        ),
        "a verdict's victim that has already ended aborts whatever transaction"
        " its session runs now",
        ("tests/test_sim.py::TestAbortTransaction::test_stale_or_unknown_dxid_aborts_nothing",),
    ),
    Mutant(
        "local-xid-before-the-first-write",
        "src/htapsim/segment.py",
        (
            ("            tuple_held = False\n            local = self.local_xid(txn)\n",
             "            tuple_held = False\n"),
            ("        stamped = 0\n", "        stamped = 0\n        local = self.local_xid(txn)\n"),
        ),
        "an update's part takes a local xid before its scan finds a row, so a"
        " segment where it stamps nothing counts as a writer; the random"
        " oracle scenarios miss it, since their updates write on every"
        " segment they reach",
        (f"{COMMIT}::test_two_segment_write_counts",),
    ),
    Mutant(
        "xid-lock-outlives-its-transaction",
        "src/htapsim/commit.py",
        (("            seg.xid_locks.pop(local, None)\n", ""),),
        "a writer's local end leaves its own xid lock reserved when no waiter"
        " filed it in the lock table, so `xid_locks` keeps one entry per"
        " writer for the rest of the run",
        (
            LIVENESS,
            "tests/test_costs.py"
            "::test_lock_acquires_per_finished_transaction_are_flat_in_run_length",
        ),
    ),
    Mutant(
        "xid-lock-transferred-with-a-fresh-number",
        "src/htapsim/segment.py",
        (("_EXCLUSIVE, cl.clock, seq)", "_EXCLUSIVE, cl.clock, self.locks.reserve())"),),
        "the first waiter files the stamper's xid lock under a new arrival"
        " number rather than the one reserved at xid assignment, so the"
        " stamper's end wakes that queue after queues born later",
        (
            "tests/test_sim.py::TestPaperScenarios"
            "::test_a_filed_xid_lock_wakes_in_its_reserved_place",
        ),
    ),
    Mutant(
        "cpu-ties-to-the-highest-name",
        "src/htapsim/resgroup.py",
        (
            (
                "                    name = min(runnable, key=vtime.__getitem__)\n",
                "                    name = min(reversed(runnable), key=vtime.__getitem__)\n",
            ),
        ),
        "of two share groups with equal virtual time, a free core goes to the"
        " one with the highest name",
        ("tests/test_resgroup.py::test_equal_weights_tie_to_the_lowest_name",),
    ),
    Mutant(
        "share-burst-ends-a-tick-late",
        "src/htapsim/resgroup.py",
        (
            (
                "                ends.setdefault(now + burst, [])",
                "                ends.setdefault(now + burst + 1, [])",
            ),
        ),
        "a share group's burst is filed one tick past its end, so it holds"
        " its core and counts one core-tick more than its length",
        (
            "tests/test_resgroup.py::TestCpuScheduler"
            "::test_a_burst_counts_one_core_tick_per_tick_it_runs",
        ),
    ),
    Mutant(
        "r2-drops-solid-edges",
        "src/htapsim/gdd.py",
        (("        if e.kind is EdgeKind.DOTTED:\n", "        if True:\n"),),
        "the local rule R2 drops solid edges too, as if a vertex not blocked on"
        " a segment released there the locks it holds to its transaction's end",
        (
            "tests/test_gdd.py::TestMatchesReference"
            "::test_same_residual_and_steps_in_default_order",
        ),
    ),
    Mutant(
        "build-drops-scenario-groups",
        "src/htapsim/scenario.py",
        (
            (
                "    groups = [*config.resource_groups, *scenario.groups]\n",
                "    groups = list(config.resource_groups)\n",
            ),
        ),
        "a scenario's cluster gets only the config's resource groups, so its"
        " own sessions name groups the cluster does not have",
        ("tests/test_sim.py::TestResourceIntegration::test_scenario_groups_follow_the_configs",),
    ),
    Mutant(
        "daemon-armed-without-a-period",
        "src/htapsim/sim.py",
        (
            (
                "        if self.config.gdd_period is None or self._gdd_scheduled:\n",
                "        if self._gdd_scheduled:\n",
            ),
            (
                "self.schedule(self.config.gdd_period, ",
                "self.schedule(self.config.gdd_period or 100, ",
            ),
        ),
        "with no detector period a lock wait still arms the daemon, at the"
        " default period, so a run meant to keep its deadlocks breaks them",
        (
            "tests/test_sim.py::TestSimConfig"
            "::test_no_period_arms_no_daemon_and_a_detect_step_still_runs",
        ),
    ),
    Mutant(
        "session-steps-in-file-order",
        "src/htapsim/scenario.py",
        (("        sdef.steps.sort(key=lambda s: s.seq)\n", ""),),
        "a session keeps its steps in the order its file lists them, so a"
        " session that lists a step before a lower `seq` runs them out of order",
        ("tests/test_sim.py::test_a_sessions_steps_run_in_seq_order_not_file_order",),
    ),
    Mutant(
        "failed-reply-counts-as-a-reply",
        "src/htapsim/sim.py",
        (
            (
                "        if failed is not None:\n            self._start_abort(session, failed)\n",
                "        if failed is not None:\n            stmt.outstanding -= 1\n"
                "            self._start_abort(session, failed)\n",
            ),
        ),
        "a failed part's reply counts off its statement's outstanding parts"
        " before the abort, so the abort of a lost single-segment update finds"
        " no dispatch in flight and leaves it counted in `inflight_updates`",
        (
            "tests/test_sim.py::TestPartReplies"
            "::test_a_lost_single_segment_update_aborts_and_undoes_its_dispatch",
        ),
    ),
    Mutant(
        "staggered-verdict-skips-the-re-arm",
        "src/htapsim/sim.py",
        (
            (
                "lambda: self._gdd_verdict(GlobalWaitForGraph(edges))",
                "lambda: self._detect_on(GlobalWaitForGraph(edges))",
            ),
        ),
        "a detector run that collects one site at a time detects but never"
        " re-arms the daemon, so a deadlock left after its victim's abort, or"
        " formed during the collection, waits for a lock wait that never comes",
        (f"{ORACLE}::test_gdd_restores_liveness_in_mode[skew3]",),
    ),
    Mutant(
        "cpu-tick-re-armed-only-while-a-task-waits",
        "src/htapsim/sim.py",
        (("        if cpu.has_work():\n", "        if any(cpu.waiting.values()):\n"),),
        "the CPU tick stops re-arming once no task waits, so a burst still"
        " running then never ends and its statement never completes",
        (
            "tests/test_sim.py::TestResourceIntegration::test_cpu_burst_delays_statement",
            "tests/test_sim.py::TestResourceIntegration"
            "::test_a_cpu_tick_is_queued_exactly_while_the_scheduler_has_work",
        ),
    ),
    Mutant(
        "scenario-reader-loaded-with-bench",
        "src/htapsim/bench.py",
        (
            (
                "from .steps import Step, parse_sql  # noqa: F401\n",
                "from .scenario import Step, parse_sql  # noqa: F401\n",
            ),
        ),
        "`bench` takes the statement grammar from the scenario reader again, so"
        " every process that imports htapsim compiles and builds the reader"
        " though no workload reads a scenario",
        ("tests/test_scenario.py::test_importing_htapsim_loads_only_the_simulator_core",),
    ),
]


def apply(text: str, mutant: Mutant) -> str:
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: {old!r} matches {count} times in {mutant.file}")
        text = text.replace(old, new)
    return text


def run_pytest(tree: Path, tests) -> int:
    """Run `tests` in `tree` and return pytest's exit status; no bytecode is
    written, so a file put back within the same second is read afresh."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def run(mutant: Mutant, tree: Path) -> str:
    """Run the mutant's tests in `tree` with its edits applied."""
    path = tree / mutant.file
    original = path.read_text()
    path.write_text(apply(original, mutant))
    try:
        status = run_pytest(tree, mutant.tests)
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; pick from {sorted(known)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = list(dict.fromkeys(test for m in chosen for test in m.tests))
    if any(test.startswith(PINS) for test in tests):
        raise SystemExit(f"kills are judged without {PINS}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="htapsim-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for entry in COPIED:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, tree / entry, ignore=ignore)
            else:
                shutil.copy2(source, tree / entry)
        status = run_pytest(tree, tests)
        if status != 0:
            print(f"the mutants' tests fail without any mutant (pytest exit {status})")
            return 2
        for mutant in chosen:
            start = time.monotonic()
            verdict = run(mutant, tree)
            failed += verdict != "killed"
            print(f"{mutant.name}: {verdict} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
