"""Randomized cross-checks of the detector and of distributed snapshots.

The stall oracle: run a scenario with detection disabled until the event loop
reaches fixpoint; a deadlock exists iff some session is still stuck
mid-statement there.  The detector, run on the frozen lock tables, must agree
exactly.  Snapshot histories are validated against a single-node replay of the
committed writers in dxid order, which is an exact reference when update
predicates pin rows by key.
"""

import random

import pytest

from htapsim.dtm import visible
from htapsim.gdd import GddConfig, Outcome, detect, reduce
from htapsim.scenario import Scenario, SessionDef, Step, TableSpec, parse_sql
from htapsim.sim import Cluster, SimConfig
from htapsim.store import Predicate, TableDef
from test_pins import issue_order_runs

# every lock-table change in these runs is followed by check_invariants()
pytestmark = pytest.mark.usefixtures("checked_lock_tables")


def make_steps(sid, texts):
    return [parse_sql(t, seq=0, session=sid) for t in texts]


def build_scenario(session_texts, tables):
    scenario = Scenario()
    for name, rows in tables:
        scenario.tables.append(TableSpec(TableDef(name), rows))
    seq = 0
    for sid in sorted(session_texts):
        scenario.sessions.append(SessionDef(sid))
        for step in make_steps(sid, session_texts[sid]):
            seq += 1
            step.seq = seq
            scenario.steps.append(step)
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


def run_to_fixpoint(scenario, seed, gdd_enabled):
    rng = random.Random(seed * 7919 + 13)
    config = SimConfig(
        seed=seed,
        eager=True,
        gdd_enabled=gdd_enabled,
        gdd=GddConfig(period=17),
        link_delays=random_delays(rng),
    )
    cluster = Cluster(config, scenario)
    cluster.run()
    return cluster


N_SCENARIOS = 1000


def oracle_agreement_stats(n_scenarios=N_SCENARIOS, base_seed=1000):
    agree = 0
    deadlocks = 0
    confluent = 0
    for i in range(n_scenarios):
        seed = base_seed + i
        cluster = run_to_fixpoint(random_scenario(seed), seed, gdd_enabled=False)
        stalled = bool(cluster.blocked_sessions())
        graph = cluster.collect_graph()
        verdict = detect(graph, cluster.txn_is_live)
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
            reduce(graph, rng=random.Random(shuffle_rng.randrange(1 << 30)))[0].edges()
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


def test_gdd_restores_liveness_on_deadlocking_scenarios():
    """With detection enabled every scenario drains: no session stays blocked,
    each terminal outcome is a commit or an abort."""
    checked = 0
    for i in range(150):
        seed = 5000 + i
        scenario = random_scenario(seed)
        cluster = run_to_fixpoint(scenario, seed, gdd_enabled=True)
        assert cluster.blocked_sessions() == [], f"seed {seed}"
        for sid in sorted(cluster.sessions):
            outcome = cluster.session_outcome(sid)
            assert outcome.split(":")[0] in ("committed", "aborted"), (seed, sid, outcome)
        checked += 1
    assert checked == 150


def test_victims_commit_or_abort_exactly_once_per_cycle():
    """Wherever the detector fired, the victims it chose really aborted."""
    seen_victims = 0
    for i in range(200):
        seed = 9000 + i
        cluster = run_to_fixpoint(random_scenario(seed), seed, gdd_enabled=True)
        for verdict in cluster.verdicts:
            for dxid in verdict.victims:
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
        dxids = [d for d, s in cluster.txn_sessions.items() if s is session]
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
        vis = cluster._visibility(seg, None, snapshot)
        rows.extend(v.values for _, v in cluster.stores[seg].scan(table, Predicate(), vis))
    return sorted(rows)


def check_truncation_invariance(cluster):
    live = [
        t for t in cluster.dtm.transactions.values()
        if not t.is_finished()
    ]
    before = {t.dxid: scan_all_segments(cluster, t.snapshot) for t in live}
    for seg in range(cluster.config.n_segments):
        cluster.dtm.truncate_mapping(cluster.mappings[seg])
    for t in live:
        assert scan_all_segments(cluster, t.snapshot) == before[t.dxid]


N_HISTORIES = 500


def history_stats(n_histories=N_HISTORIES, base_seed=20_000):
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
            gdd_enabled=True,
            gdd=GddConfig(period=13),
            link_delays=random_delays(rng),
        )
        cluster = Cluster(config, scenario)
        probe_at = rng.randrange(3, 12)
        cluster.run(stop_when=lambda cl: cl.clock >= probe_at)
        check_truncation_invariance(cluster)
        cluster.run()
        check_truncation_invariance(cluster)
        assert cluster.blocked_sessions() == []

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
            dxids = [d for d, s in cluster.txn_sessions.items() if s is session]
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
            states = cluster.local_states[seg]
            cluster.stores[seg].check_chain_invariants(
                lambda lx: states.get(lx, "aborted")
            )
    return torn_violations, replay_mismatches, commits


def test_snapshot_isolation_over_500_histories():
    torn, mismatches, commits = history_stats()
    assert torn == 0
    assert mismatches == 0
    assert commits > 200  # the generator commits plenty of multi-segment writers


def check_each_stamp(cluster) -> list:
    """Make every `stamp_and_append` of `cluster` first check that its victim
    is the newest version of its chain that the stamping statement's
    snapshot sees; returns the list that each checked stamp is added to."""
    stamps = []
    for seg, store in cluster.stores.items():
        original = store.stamp_and_append

        def checked(table, slot, victim, new_values, local_xid, cid, seg=seg,
                    store=store, original=original):
            mapping, states = cluster.mappings[seg], cluster.local_states[seg]
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
            cluster = Cluster(config, scenario)
            checked = check_each_stamp(cluster)
            cluster.run(until_tick=5000)
            stamps += len(checked)
    assert stamps > 1000
