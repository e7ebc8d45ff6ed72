"""Randomized cross-checks of the detector and of distributed snapshots.

The stall oracle: run a scenario with detection disabled until the event loop
reaches fixpoint; a deadlock exists iff some session is still stuck
mid-statement there.  The detector, run on the frozen lock tables, must agree
exactly.  Snapshot histories are validated against a single-node replay of the
committed writers in dxid order, which is an exact reference when update
predicates pin rows by key.
"""

import random
from collections import Counter

import pytest

from htapsim.dtm import TxnState, expected_accounting, visible
from htapsim.gdd import Outcome, detect, reduce
from htapsim.scenario import Scenario, SessionDef, Step, TableSpec, build_cluster, parse_sql
from htapsim.sim import SimConfig
from htapsim.store import Predicate, TableDef
from test_gdd import reference_reduce
from test_pins import issue_order_runs

# every lock-table change in these runs is followed by check_invariants()
pytestmark = pytest.mark.usefixtures("checked_lock_tables")


def build_scenario(session_texts, tables):
    scenario = Scenario()
    for name, rows in tables:
        scenario.tables.append(TableSpec(TableDef(name), rows))
    seq = 0
    for sid in sorted(session_texts):
        steps = []
        for text in session_texts[sid]:
            seq += 1
            steps.append(parse_sql(text, seq))
        scenario.sessions.append(SessionDef(sid, steps=steps))
    return scenario


def random_scenario(seed: int):
    """Up to 6 transactions, up to 8 statements, contended keys, some LOCKs."""
    rng = random.Random(seed)
    keys = list(range(6))
    n_sessions = rng.randrange(2, 7)
    texts = {}
    for i in range(n_sessions):
        sid = f"s{i}"
        n_stmts = rng.randrange(1, 7)  # plus begin and commit, <= 8 total
        body = []
        for _ in range(n_stmts):
            roll = rng.random()
            if roll < 0.70:
                body.append(
                    f"update t{rng.randrange(2)} set c2={rng.randrange(100)} "
                    f"where c1={rng.choice(keys)}"
                )
            elif roll < 0.80:
                body.append(f"update t{rng.randrange(2)} set c2={rng.randrange(100)}")
            elif roll < 0.90:
                body.append(f"lock t{rng.randrange(2)}")
            else:
                body.append(f"select t{rng.randrange(2)}")
        texts[sid] = ["begin"] + body + ["commit"]
    tables = [(f"t{j}", [(k, 0) for k in keys]) for j in range(2)]
    return build_scenario(texts, tables)


def random_delays(rng):
    sites = [-1, 0, 1, 2]
    return {
        (a, b): rng.randrange(1, 4)
        for a in sites
        for b in sites
        if a != b
    }


# the SimConfig flags that each oracle also runs under, beside the default
# config; strict issue order is left out, since `random_scenario` does not
# deadlock there
ORACLE_MODES = {
    "force_2pc": {"force_2pc": True},
    "legacy_locking": {"legacy_locking": True},
    "skew3": {"collection_skew": 3},
    "skew7": {"collection_skew": 7},
}


def run_to_fixpoint(scenario, seed, gdd_period, stop_when=None, **mode):
    rng = random.Random(seed * 7919 + 13)
    config = SimConfig(
        seed=seed,
        eager=True,
        gdd_period=gdd_period,
        link_delays=random_delays(rng),
        **mode,
    )
    cluster = build_cluster(scenario, config)
    cluster.run(stop_when=stop_when)
    check_registrations(cluster, seed)
    return cluster


def check_registrations(cluster, seed) -> None:
    """At fixpoint, no site's lock table holds a request for a transaction
    that has ended: a part of a dead statement takes no lock, and the
    transaction's end releases every site where it has a request."""
    dtm = cluster.dtm
    for site in cluster.sites:
        ended = {d for d in site.locks._own if not dtm.is_live(d)}
        assert not ended, (seed, site.id, sorted(ended))


N_SCENARIOS = 1000


def oracle_agreement_stats(n_scenarios=N_SCENARIOS, base_seed=1000, **mode):
    agree = 0
    deadlocks = 0
    confluent = 0
    for i in range(n_scenarios):
        seed = base_seed + i
        cluster = run_to_fixpoint(random_scenario(seed), seed, gdd_period=None, **mode)
        stalled = bool(cluster.blocked_sessions())
        graph = cluster.collect_graph()
        verdict = detect(graph, cluster.dtm.is_live)
        assert verdict.outcome in (Outcome.CLEAN, Outcome.DEADLOCK)
        if (verdict.outcome is Outcome.DEADLOCK) == stalled:
            agree += 1
        else:
            raise AssertionError(
                f"seed {seed}: stall oracle {stalled} but detector said "
                f"{verdict.outcome}; residual={verdict.residual_edges} "
                f"blocked={cluster.blocked_sessions()}"
            )
        if stalled:
            deadlocks += 1
        baseline, _ = reduce(graph)
        shuffle_rng = random.Random(seed)
        ok = all(
            reference_reduce(graph.edges(), random.Random(shuffle_rng.randrange(1 << 30)))[0]
            == baseline.edges()
            for _ in range(3)
        )
        assert ok, f"seed {seed}: reduce not confluent"
        confluent += 1
    return agree, deadlocks, confluent


def test_detector_agrees_with_stall_oracle_on_1000_scenarios():
    agree, deadlocks, confluent = oracle_agreement_stats()
    assert agree == N_SCENARIOS
    assert confluent == N_SCENARIOS
    # the generator must actually exercise both outcomes heavily
    assert deadlocks > 50
    assert deadlocks < N_SCENARIOS - 50


@pytest.mark.parametrize("mode", sorted(ORACLE_MODES))
def test_detector_agrees_with_stall_oracle_in_mode(mode):
    """The stall oracle under each flag of ORACLE_MODES, on 150 scenarios."""
    agree, deadlocks, confluent = oracle_agreement_stats(150, **ORACLE_MODES[mode])
    assert agree == confluent == 150
    assert 20 < deadlocks < 130


def check_atomicity(cluster, seed) -> int:
    """At fixpoint, each local xid of each transaction holds the dtm's
    outcome in its segment's commit log, and each committed transaction's
    write segments are those that traced an insert or a stamp for it.
    Returns the local outcomes checked."""
    wrote: dict[int, set[int]] = {}  # dxid -> segments that traced a write
    for line in cluster.trace:
        _, site, kind, details = line.split("|", 3)
        if kind in ("insert", "stamp"):
            dxid = int(details.split()[0].removeprefix("dxid="))
            wrote.setdefault(dxid, set()).add(int(site.removeprefix("seg")))
    checked = 0
    for txn in cluster.dtm.transactions.values():
        local_xids = {seg: lx for seg, lx in enumerate(txn.local_xids) if lx is not None}
        for seg, local in local_xids.items():
            state = cluster.segments[seg].states[local]
            assert state == txn.state.value, (seed, txn.dxid, seg, state)
            checked += 1
        if cluster.dtm.is_committed(txn.dxid):
            traced = tuple(sorted(wrote.get(txn.dxid, ())))
            assert txn.write_segments == traced, (seed, txn.dxid, txn.write_segments, traced)
    return checked


def check_accounting(cluster, seed) -> int:
    """At fixpoint, each committed transaction's descriptor counted the
    messages and fsyncs of `expected_accounting` for its protocol over its
    write segments.  Returns the commits checked."""
    checked = 0
    for txn in cluster.dtm.transactions.values():
        if cluster.dtm.is_committed(txn.dxid):
            k = len(txn.write_segments)
            messages, fsyncs = expected_accounting(txn.protocol, k)
            assert txn.messages == messages, (seed, txn.dxid, txn.protocol, k)
            assert txn.fsyncs == fsyncs, (seed, txn.dxid, txn.protocol, k)
            checked += 1
    return checked


def check_records(cluster) -> bool:
    """The live descriptors and the sessions' open transactions match one to
    one, and each live descriptor's `sid` names the session holding it.
    Returns False, so that `run(stop_when=check_records)` checks after every
    event and runs to fixpoint."""
    live = {t.dxid: t for t in cluster.dtm.transactions.values() if t.state is TxnState.ACTIVE}
    open_txns = {}
    for sid, session in cluster.sessions.items():
        if session.txn is not None:
            assert session.txn.sid == sid, (cluster.clock, sid, session.txn.sid)
            open_txns[session.txn.dxid] = session.txn
    assert open_txns.keys() == live.keys(), (cluster.clock, sorted(open_txns), sorted(live))
    assert all(open_txns[d] is live[d] for d in live), cluster.clock
    return False


def check_parked(cluster) -> bool:
    """A transaction runs one statement at a time, and a statement one part
    per site, so a part waits for at most one grant on its site and parks
    under its dxid.  Checks that fact: every dxid parked on a site is live,
    its statement is not dead, and it has exactly one waiting request in
    that site's lock table; and every waiting request of a transaction whose
    statement runs has its part parked on that site.  Returns False, as
    `check_records` does, to run through `run(stop_when=...)`."""
    for site in cluster.sites:
        waiting = Counter(r.txn for r in site.locks.waiting_requests())
        for dxid in site.parked:
            txn = cluster.dtm.transactions[dxid]
            stmt = cluster.sessions[txn.sid].stmt
            where = (cluster.clock, site.id, dxid)
            assert txn.state is TxnState.ACTIVE, where
            assert stmt is not None and stmt.txn is txn and not stmt.dead, where
            assert waiting[dxid] == 1, (where, waiting[dxid])
        for dxid in waiting:
            txn = cluster.dtm.transactions[dxid]
            stmt = cluster.sessions[txn.sid].stmt
            if stmt is not None and stmt.txn is txn:
                assert dxid in site.parked, (cluster.clock, site.id, dxid)
    return False


def check_each_event(cluster) -> bool:
    """`check_records` and `check_parked`, for `run(stop_when=...)`."""
    return check_records(cluster) or check_parked(cluster)


def liveness_stats(n_scenarios=150, base_seed=5000, **mode):
    """Run scenarios with detection enabled; each must drain, with no session
    left blocked, each terminal outcome a commit or an abort, and every local
    outcome agreeing with its transaction's (`check_atomicity`).  Returns the
    number of scenarios checked, of those with a deadlock verdict, and of
    local outcomes checked.  Transaction records and parked parts are
    checked after every event (`check_each_event`) and commit accounting at
    fixpoint (`check_accounting`)."""
    checked = deadlocked = local_outcomes = 0
    for i in range(n_scenarios):
        seed = base_seed + i
        scenario = random_scenario(seed)
        cluster = run_to_fixpoint(
            scenario, seed, gdd_period=17, stop_when=check_each_event, **mode
        )
        assert cluster.blocked_sessions() == [], f"seed {seed}"
        for sid in sorted(cluster.sessions):
            outcome = cluster.session_outcome(sid)
            assert outcome.split(":")[0] in ("committed", "aborted"), (seed, sid, outcome)
        local_outcomes += check_atomicity(cluster, seed)
        check_accounting(cluster, seed)
        checked += 1
        deadlocked += cluster.final_verdict() == "deadlock"
    return checked, deadlocked, local_outcomes


def test_gdd_restores_liveness_on_deadlocking_scenarios():
    """With detection enabled every scenario drains: no session stays blocked,
    each terminal outcome is a commit or an abort."""
    checked, _, local_outcomes = liveness_stats()
    assert checked == 150
    assert local_outcomes > 500


@pytest.mark.parametrize("mode", sorted(ORACLE_MODES))
def test_gdd_restores_liveness_in_mode(mode):
    """The liveness check under each flag of ORACLE_MODES, on scenarios that
    deadlock often enough for the detector to matter."""
    checked, deadlocked, local_outcomes = liveness_stats(**ORACLE_MODES[mode])
    assert checked == 150
    assert deadlocked > 10
    assert local_outcomes > 500


def test_victims_commit_or_abort_exactly_once_per_cycle():
    """Wherever the detector fired, the victims it chose really aborted."""
    seen_victims = 0
    for i in range(200):
        seed = 9000 + i
        cluster = run_to_fixpoint(random_scenario(seed), seed, gdd_period=17)
        for dxid in cluster.victims:
            txn = cluster.dtm.transactions[dxid]
            assert txn.state.value == "aborted", (seed, dxid)
            seen_victims += 1
    assert seen_victims > 10


# ---------------------------------------------------------------- histories


def history_scenario(seed: int):
    """Writers update fixed key sets (pinned predicates) across segments;
    readers interleave full-table scans.  Returns the scenario plus the
    writers' key/marker plan for the replay reference."""
    rng = random.Random(seed)
    keys = list(range(9))
    overlap = seed % 2 == 1
    n_writers = rng.randrange(2, 5)
    n_readers = rng.randrange(1, 4)
    texts = {}
    plan = {}
    pool = keys[:]
    rng.shuffle(pool)
    for i in range(n_writers):
        sid = f"w{i}"
        if overlap:
            mine = sorted(rng.sample(keys, rng.randrange(2, 4)))
        else:
            take = rng.randrange(2, 4)
            mine, pool = sorted(pool[:take]), pool[take:]
            if not mine:
                mine = [keys[i]]
        marker = 100 + i
        plan[sid] = (mine, marker)
        texts[sid] = (
            ["begin"]
            + [f"update t set c2={marker} where c1={k}" for k in mine]
            + ["commit"]
        )
    for j in range(n_readers):
        sid = f"r{j}"
        texts[sid] = ["begin"] + ["select t"] * rng.randrange(1, 3) + ["commit"]
    scenario = build_scenario(texts, [("t", [(k, 0) for k in keys])])
    return scenario, plan, keys


def replay_reference(snapshot, cluster, plan, keys):
    """Single-node replay: apply every writer visible to the snapshot in dxid
    order over the initial table."""
    state = {k: 0 for k in keys}
    writers = []
    for sid, (mine, marker) in plan.items():
        session = cluster.sessions[sid]
        dxids = [d for d, t in cluster.dtm.transactions.items() if t.sid == session.sid]
        if not dxids:
            continue
        writers.append((dxids[0], mine, marker))
    for dxid, mine, marker in sorted(writers):
        if snapshot.dxid_visible(dxid, cluster.dtm.is_committed(dxid)):
            for k in mine:
                state[k] = marker
    return sorted(state.items())


def scan_all_segments(cluster, snapshot):
    rows = []
    table = cluster.catalog["t"]
    for seg in range(cluster.config.n_segments):
        vis = cluster.segments[seg].visibility(snapshot)
        rows.extend(v.values for _, v in cluster.segments[seg].store.scan(table, Predicate(), vis))
    return sorted(rows)


def check_truncation_invariance(cluster):
    """Truncating every segment's mapping at the horizon of now, ahead of the
    statement horizons the run truncates at, changes no live scan."""
    live = [
        t for t in cluster.dtm.transactions.values()
        if t.state is TxnState.ACTIVE
    ]
    before = {t.dxid: scan_all_segments(cluster, t.snapshot) for t in live}
    for seg in cluster.segments:
        seg.mapping.truncate(cluster.dtm.horizon())
    for t in live:
        assert scan_all_segments(cluster, t.snapshot) == before[t.dxid]


N_HISTORIES = 500


def history_stats(n_histories=N_HISTORIES, base_seed=20_000, **mode):
    torn_violations = 0
    replay_mismatches = 0
    commits = 0
    for i in range(n_histories):
        seed = base_seed + i
        scenario, plan, keys = history_scenario(seed)
        rng = random.Random(seed * 31 + 7)
        config = SimConfig(
            seed=seed,
            eager=True,
            gdd_period=13,
            link_delays=random_delays(rng),
            **mode,
        )
        cluster = build_cluster(scenario, config)
        probe_at = rng.randrange(3, 12)
        cluster.run(stop_when=lambda cl: check_each_event(cl) or cl.clock >= probe_at)
        check_truncation_invariance(cluster)
        cluster.run(stop_when=check_each_event)
        check_truncation_invariance(cluster)
        assert cluster.blocked_sessions() == []
        check_atomicity(cluster, seed)
        check_accounting(cluster, seed)

        committed_writers = {
            sid
            for sid in plan
            if cluster.session_outcome(sid) == "committed"
        }
        commits += len(committed_writers)
        # every reader scan must match the dxid-order replay of the writers
        # visible to its snapshot
        for sid in sorted(cluster.sessions):
            if not sid.startswith("r"):
                continue
            session = cluster.sessions[sid]
            dxids = [d for d, t in cluster.dtm.transactions.items() if t.sid == session.sid]
            if not dxids:
                continue
            snapshot = cluster.dtm.transactions[dxids[0]].snapshot
            expected = [tuple(kv) for kv in replay_reference(snapshot, cluster, plan, keys)]
            for _, rows in session.scan_results:
                if sorted(rows) != expected:
                    replay_mismatches += 1
                # a torn multi-segment write: some but not all of one
                # writer's keys carry its marker
                by_key = dict(rows)
                for wsid, (mine, marker) in plan.items():
                    if len(mine) < 2:
                        continue
                    seen = sum(1 for k in mine if by_key.get(k) == marker)
                    latest = {
                        k: by_key.get(k) for k in mine
                    }
                    overwritten = sum(
                        1 for k in mine
                        if latest[k] not in (0, marker)
                    )
                    if 0 < seen < len(mine) - overwritten:
                        torn_violations += 1
        # final state: a fresh observer agrees with the full replay
        final_snapshot = cluster.dtm.current_snapshot()
        expected = [tuple(kv) for kv in replay_reference(final_snapshot, cluster, plan, keys)]
        assert scan_all_segments(cluster, final_snapshot) == expected, f"seed {seed}"
        for seg in range(cluster.config.n_segments):
            states = cluster.segments[seg].states
            cluster.segments[seg].store.check_chain_invariants(
                lambda lx: states.get(lx, "aborted")
            )
    return torn_violations, replay_mismatches, commits


def test_snapshot_isolation_over_500_histories():
    torn, mismatches, commits = history_stats()
    assert torn == 0
    assert mismatches == 0
    assert commits > 200  # the generator commits plenty of multi-segment writers


@pytest.mark.parametrize("mode", sorted(ORACLE_MODES))
def test_snapshot_isolation_in_mode(mode):
    """The snapshot-isolation replay, with its truncation-invariance and
    chain checks, over 150 histories under each flag of ORACLE_MODES."""
    torn, mismatches, commits = history_stats(150, **ORACLE_MODES[mode])
    assert torn == 0
    assert mismatches == 0
    assert commits > 60


def check_each_stamp(cluster) -> list:
    """Make every `stamp_and_append` of `cluster` first check that its victim
    is the newest version of its chain that the stamping statement's
    snapshot sees; returns the list that each checked stamp is added to."""
    stamps = []
    for segment in cluster.segments:
        seg, store = segment.id, segment.store
        original = store.stamp_and_append

        def checked(table, slot, victim, new_values, local_xid, cid, seg=seg,
                    store=store, original=original):
            mapping, states = cluster.segments[seg].mapping, cluster.segments[seg].states
            txn = cluster.dtm.transactions[mapping.lookup(local_xid)]
            assert txn.command_id == cid
            newest = store.visible_version(
                table, slot, lambda v: visible(v, txn.snapshot, mapping, txn, states)
            )
            assert newest is victim, f"dxid {txn.dxid} stamps {victim}, sees {newest}"
            stamps.append((seg, table, slot))
            return original(table, slot, victim, new_values, local_xid, cid)

        store.stamp_and_append = checked
    return stamps


def test_updates_stamp_the_newest_version_their_snapshot_sees():
    """An update stamps the version its scan returned and does not read the
    chain again after a lock wait.  Under snapshot isolation that version is
    still, at stamp time, the newest one of its chain that the transaction's
    snapshot sees: checked at every stamp of 100 random scenarios in strict
    and eager issue order."""
    stamps = 0
    for seed in range(100):
        scenario, configs = issue_order_runs(seed)
        for config in configs:
            cluster = build_cluster(scenario, config)
            checked = check_each_stamp(cluster)
            cluster.run(until_tick=5000)
            stamps += len(checked)
    assert stamps > 1000
