import hashlib
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from htapsim import bench, commit
from htapsim.dtm import (
    FSYNC_COORD_COMMIT,
    FSYNC_SEGMENT_COMMIT,
    FSYNC_SEGMENT_PREPARE,
    MSG_COMMIT,
    MSG_COMMIT_OK,
    MSG_PREPARE,
    MSG_PREPARE_OK,
    Protocol,
    expected_accounting,
)
from htapsim.locks import TagKind
from htapsim.resgroup import ConfigError, ResourceGroupConfig
from htapsim.scenario import (
    Expectation,
    Scenario,
    ScenarioResult,
    SessionDef,
    TableSpec,
    build_cluster,
    parse_scenario,
    parse_sql,
    run_scenario,
)
from htapsim.sim import Cluster, SimConfig
from htapsim.store import TableDef
from test_oracle import random_delays, random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# every lock-table change in these runs is followed by check_invariants()
pytestmark = pytest.mark.usefixtures("checked_lock_tables")


def run_file(name, **cfg):
    scenario = parse_scenario((SCENARIOS / name).read_text())
    return scenario, run_scenario(scenario, SimConfig(**cfg))


def run_text(text, **cfg):
    scenario = parse_scenario(text)
    return run_scenario(scenario, SimConfig(**cfg))


SCENARIO_FILES = sorted(p.name for p in SCENARIOS.glob("*.yaml"))


class TestPaperScenarios:
    @pytest.mark.parametrize("skew", [1, 5])
    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_staggered_collection_meets_expectations(self, name, skew):
        scenario, result = run_file(name, collection_skew=skew)
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems

    @pytest.mark.parametrize("skew", [1, 5])
    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_background_detector_with_staggered_collection(self, name, skew):
        """Without the scripted `detect` steps only the periodic detector,
        collecting one site every `skew` ticks, can find the deadlocks."""
        scenario = parse_scenario((SCENARIOS / name).read_text())
        for sdef in scenario.sessions:
            sdef.steps = [s for s in sdef.steps if s.kind != "detect"]
        result = run_scenario(scenario, SimConfig(collection_skew=skew))
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems

    def test_overlapping_staggered_collections_each_see_the_whole_graph(self):
        """A collection over 4 sites 7 ticks apart outlasts the 17-tick
        detector period, so a lock wait during it starts the next one.  Each
        must gather its own edges: when they shared one list, each judged
        part of the graph clean, and s0, s1 and s2 stayed deadlocked."""
        seed = 1005
        config = SimConfig(
            eager=True,
            gdd_period=17,
            collection_skew=7,
            link_delays=random_delays(random.Random(seed * 7919 + 13)),
        )
        cluster = build_cluster(random_scenario(seed), config)
        cluster.run()
        assert cluster.blocked_sessions() == []
        assert cluster.final_verdict() == "deadlock"

    def test_two_txn_deadlock(self):
        scenario, result = run_file("deadlock_two_txn.yaml")
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems
        assert result.victims == ["B"]
        assert result.outcomes["A"] == "committed"

    def test_victim_runs_its_next_transaction_in_strict_order(self):
        """Strict global order skips the victim's steps up to its next begin,
        then runs that transaction."""
        text = (SCENARIOS / "deadlock_two_txn.yaml").read_text().replace(
            "      - {seq: 9, sql: commit}\n",
            "      - {seq: 9, sql: commit}\n"
            "      - {seq: 10, sql: begin}\n"
            "      - {seq: 11, sql: select t1}\n"
            "      - {seq: 12, sql: commit}\n",
        )
        result = run_text(text)
        assert result.outcomes == {"A": "committed", "B": "committed"}
        assert result.victims == ["B"]
        assert result.scans["B"] == [(11, [(1, 11), (3, 10)])]
        skipped = [l.split("|", 3)[3] for l in result.trace if "|driver|step_skipped|" in l]
        assert skipped == ["seq=9 session=B"]

    def test_coordinator_deadlock(self):
        scenario, result = run_file("deadlock_with_coordinator.yaml")
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems
        # the detector saw the four-edge cycle through the coordinator
        verdict_lines = [l for l in result.trace if "|gdd|verdict|" in l]
        assert any("outcome=deadlock" in l for l in verdict_lines)
        deadlock_line = next(l for l in verdict_lines if "outcome=deadlock" in l)
        for fragment in ("1-->2@seg1", "2-->4@seg0", "4-->3@seg-1", "3-->1@seg0"):
            assert fragment in deadlock_line

    def test_dotted_clean_case_trace(self):
        scenario, result = run_file("clean_dotted_edges.yaml")
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems
        reduce_lines = [l.split("|", 3)[3] for l in result.trace if "|gdd|reduce|" in l]
        assert reduce_lines == [
            "global out-degree of 2 is 0: remove vertex 2, drop edges [3-->2@seg1]",
            "local out-degree of 3 on segment 1 is 0: drop dotted edges [1..>3@seg1]",
            "global out-degree of 1 is 0: remove vertex 1, drop edges [3-->1@seg0]",
        ]

    def test_mixed_clean_case_trace(self):
        scenario, result = run_file("clean_mixed_edges.yaml")
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems
        reduce_lines = [l.split("|", 3)[3] for l in result.trace if "|gdd|reduce|" in l]
        assert reduce_lines == [
            "global out-degree of 2 is 0: remove vertex 2, drop edges [3-->2@seg1]",
            "local out-degree of 3 on segment 1 is 0: drop dotted edges [1..>3@seg1]",
            "global out-degree of 1 is 0: remove vertex 1, drop edges [3-->1@seg0]",
            "global out-degree of 3 is 0: remove vertex 3, drop edges [4-->3@seg1]",
        ]

    def test_a_filed_xid_lock_wakes_in_its_reserved_place(self):
        """At tick 13 B's abort on seg1 wakes D, waiting on B's transaction
        lock there, and A, waiting on a tuple lock.  B's xid lock was filed
        in the lock table only when D came to wait on it, but under the
        number reserved when B got its xid, before the tuple lock's queue
        was born, so D's grant comes first."""
        _, result = run_file("clean_mixed_edges.yaml")
        assert [l for l in result.trace if l.startswith("13|seg1|lock_grant|")] == [
            "13|seg1|lock_grant|dxid=4 tag=transaction:2@seg1 mode=SHARE",
            "13|seg1|lock_grant|dxid=1 tag=tuple:('t1', 0)@seg1 mode=EXCLUSIVE",
        ]

    def test_empty_scenario(self):
        result = run_text("")
        assert result.outcomes == {}
        assert result.verdict == "clean"


class TestSimConfig:
    def test_no_period_arms_no_daemon_and_a_detect_step_still_runs(self):
        """With `gdd_period=None` a lock wait schedules no detector run: the
        two-transaction deadlock without its `detect` step stays stalled and
        no detector run is traced.  The scripted `detect` step still runs the
        detector, once, and breaks the deadlock."""
        scenario, result = run_file("deadlock_two_txn.yaml", gdd_period=None)
        ok, problems = result.expectations_met(scenario.expect)
        assert ok, problems
        assert sum("|gdd|verdict|" in l for l in result.trace) == 1

        for sdef in scenario.sessions:
            sdef.steps = [s for s in sdef.steps if s.kind != "detect"]
        cluster = build_cluster(scenario, SimConfig(gdd_period=None))
        cluster.run()
        assert any("|lock_wait|" in l for l in cluster.trace)
        assert cluster.blocked_sessions() == ["A", "B"]
        assert not any("|gdd|" in l for l in cluster.trace)
        assert not cluster._ticks  # nothing left to run, the daemon included

    def test_period_must_be_positive(self):
        assert SimConfig(gdd_period=1).gdd_period == 1
        with pytest.raises(ValueError, match="detector period must be >= 1, not 0"):
            SimConfig(gdd_period=0)

    def test_negative_link_delay_rejected(self):
        assert SimConfig(link_delays={(0, -1): 0}).link_delays == {(0, -1): 0}
        with pytest.raises(ValueError, match=r"link \(0, -1\): delay must be >= 0, not -1"):
            SimConfig(link_delays={(-1, 0): 1, (0, -1): -1})

    def test_negative_collection_skew_rejected(self):
        assert SimConfig(collection_skew=0).collection_skew == 0
        with pytest.raises(ValueError, match="collection_skew must be >= 0, not -1"):
            SimConfig(collection_skew=-1)

    def test_no_segments_rejected(self):
        assert SimConfig(n_segments=1).n_segments == 1
        with pytest.raises(ValueError, match="n_segments must be >= 1, not 0"):
            SimConfig(n_segments=0)

    def test_negative_segment_count_rejected(self):
        with pytest.raises(ValueError, match="n_segments must be >= 1, not -2"):
            SimConfig(n_segments=-2)

    def test_fractional_period_rejected(self):
        """A period of 2.5 used to put a verdict at tick 7.5 in the trace."""
        with pytest.raises(ValueError, match=r"gdd_period: .* must be an integer, not 2\.5"):
            SimConfig(gdd_period=2.5)

    def test_fractional_segment_count_rejected(self):
        """2.0 segments used to fail with a `TypeError` from `range` only
        once the cluster was built."""
        with pytest.raises(ValueError, match=r"n_segments must be an integer, not 2\.0"):
            SimConfig(n_segments=2.0)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"n_segments": True}, "n_segments"),
            ({"collection_skew": True}, "collection_skew"),
            ({"link_delays": {(-1, 0): True}}, r"link_delays: link \(-1, 0\): delay"),
        ],
        ids=["n_segments", "collection_skew", "link_delay"],
    )
    def test_boolean_tick_count_rejected(self, fields, field):
        """A bool used to run as 1."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, not True"):
            SimConfig(**fields)

    def test_link_to_a_missing_site_rejected(self):
        """A link to a segment the cluster lacks used to be ignored; links
        between segments stay legal."""
        links = {(-1, 2): 1, (2, -1): 2, (0, 2): 3}
        assert SimConfig(link_delays=links).link_delays == links
        for link in [(0, 7), (-2, 0), (0, 3), (0, 1, 2)]:
            with pytest.raises(ValueError, match=r"link_delays: link \(.*\) is not two sites"):
                SimConfig(link_delays={link: 5})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"link_delays": None}, "link_delays must be a dict, not None"),
            ({"link_delays": [((0, 1), 2)]}, r"link_delays must be a dict, not \[\(\(0, 1\), 2\)\]"),
            ({"resource_groups": None}, "resource_groups must be a list of ResourceGroupConfig, not None"),
            ({"resource_groups": "g"}, "resource_groups must be a list of ResourceGroupConfig, not 'g'"),
            ({"resource_groups": ["g"]}, r"resource_groups must be a list of ResourceGroupConfig, not \['g'\]"),
        ],
        ids=["links-none", "links-list", "groups-none", "groups-str", "groups-of-str"],
    )
    def test_malformed_container_rejected(self, fields, message):
        """`link_delays=None` or a list of pairs used to fail with an
        `AttributeError`, `resource_groups=None` only once `build_cluster`
        ran, and a string inside `Cluster`."""
        with pytest.raises(ValueError, match=message):
            SimConfig(**fields)

    def test_link_from_a_site_to_itself_rejected(self):
        """No message goes from a site to itself, so such a delay used to be
        ignored."""
        for link in [(0, 0), (-1, -1)]:
            with pytest.raises(ValueError, match=re.escape(f"link {link} joins a site to itself")):
                SimConfig(link_delays={link: 5})


class TestStatementSemantics:
    def test_zero_row_update_takes_no_tuple_locks(self):
        result = run_text(
            """
tables:
  - {name: t1, rows: [[3, 1]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t1 set c2=9 where c1=99}
      - {seq: 3, sql: commit}
"""
        )
        assert result.outcomes["A"] == "committed"
        assert not any("|stamp|" in l for l in result.trace)
        assert not any("tuple" in l and "lock_wait" in l for l in result.trace)

    def test_scan_of_empty_table(self):
        result = run_text(
            """
tables:
  - {name: t1}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t1}
      - {seq: 3, sql: commit}
"""
        )
        assert result.scans["A"] == [(2, [])]

    def test_c2_distributed_rows_found_by_c2_point_select(self):
        result = run_text(
            """
tables:
  - {name: t, distributed_by: c2, rows: [[1, 5], [2, 7], [3, 9]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "insert t values (4, 11)"}
      - {seq: 3, sql: select t where c2=5}
      - {seq: 4, sql: select t where c2=11}
      - {seq: 5, sql: select t}
      - {seq: 6, sql: commit}
"""
        )
        assert result.scans["A"] == [
            (3, [(1, 5)]),
            (4, [(4, 11)]),
            (5, [(1, 5), (2, 7), (3, 9), (4, 11)]),
        ]

    def test_reader_sees_prewrite_values_of_uncommitted_update(self):
        result = run_text(
            """
tables:
  - {name: t1, rows: [[3, 10], [1, 20]]}
sessions:
  - id: W
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t1 set c2=99 where c1=3}
      - {seq: 5, sql: commit}
  - id: R
    steps:
      - {seq: 3, sql: begin}
      - {seq: 4, sql: select t1}
      - {seq: 6, sql: commit}
"""
        )
        assert result.scans["R"] == [(4, [(1, 20), (3, 10)])]

    def test_own_update_visible_to_later_statement(self):
        result = run_text(
            """
tables:
  - {name: t1, rows: [[3, 10]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t1 set c2=77 where c1=3}
      - {seq: 3, sql: select t1}
      - {seq: 4, sql: commit}
"""
        )
        assert result.scans["A"] == [(3, [(3, 77)])]

    def test_first_updater_wins_conflict_aborts_waiter(self):
        result = run_text(
            """
tables:
  - {name: t1, rows: [[3, 10]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t1 set c2=1 where c1=3}
      - {seq: 6, sql: commit}
  - id: B
    steps:
      - {seq: 2, sql: begin}
      - {seq: 4, sql: update t1 set c2=2 where c1=3}
      - {seq: 5, sql: detect}
      - {seq: 7, sql: commit}
"""
        )
        # B waits on A's transaction lock (no deadlock), then loses the race
        assert result.verdict == "clean"
        assert result.outcomes == {"A": "committed", "B": "aborted:serialization"}

    def test_waiter_proceeds_when_holder_aborts(self):
        result = run_text(
            """
tables:
  - {name: t1, rows: [[3, 10]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t1 set c2=1 where c1=3}
      - {seq: 5, sql: abort}
  - id: B
    steps:
      - {seq: 2, sql: begin}
      - {seq: 4, sql: update t1 set c2=2 where c1=3}
      - {seq: 6, sql: commit}
"""
        )
        assert result.outcomes == {"A": "aborted:user", "B": "committed"}

    def test_tuple_lock_granted_by_a_wake_is_released_after_the_stamp(self):
        """T3 holds the row's tuple lock and waits for T1's transaction lock;
        T2 queues on the tuple lock.  T3 and T1 abort in one tick, so T2's
        grant comes by a wake and, when T2 looks again, the stamper T1 has
        already ended.  T2 stamps the row and gives the tuple lock back, as
        `heap_update` releases `have_tuple_lock`."""
        cluster = build_cluster(
            parse_scenario(
                """
tables:
  - {name: t, rows: [[0, 0]]}
sessions:
  - id: T1
    steps:
      - {seq: 1, sql: begin}
      - {seq: 4, sql: update t set c2=1 where c1=0}
  - id: T3
    steps:
      - {seq: 2, sql: begin}
      - {seq: 5, sql: update t set c2=3 where c1=0}
  - id: T2
    steps:
      - {seq: 3, sql: begin}
      - {seq: 6, sql: update t set c2=2 where c1=0}
"""
            ),
        )
        cluster.run()
        t1, t3, t2 = (cluster.sessions[sid].txn.dxid for sid in ("T1", "T3", "T2"))
        locks = cluster.segments[0].locks
        tuple_tag = next(r.tag for r in locks.locks_of(t3) if r.tag.kind is TagKind.TUPLE)
        waits = {r.txn: r.tag for r in locks.waiting_requests()}
        assert waits[t3].kind is TagKind.TRANSACTION
        assert waits[t3].obj == cluster.dtm.transactions[t1].local_xids[0]
        assert waits[t2] == tuple_tag

        cluster.abort_transaction(t3)
        cluster.abort_transaction(t1)
        cluster.run()
        assert f"|seg0|stamp|dxid={t2} t:0" in "\n".join(cluster.trace)
        assert cluster.sessions["T2"].stmt is None
        assert [r.tag for r in locks.locks_of(t2) if r.tag.kind is TagKind.TUPLE] == []

    def test_statement_outside_txn_is_an_error(self):
        # built without the parser, which rejects such a script itself
        scenario = Scenario(
            tables=[TableSpec(TableDef("t1"))],
            sessions=[SessionDef("A", steps=[parse_sql("select t1", 1)])],
        )
        with pytest.raises(RuntimeError):
            run_scenario(scenario, SimConfig())

    def test_begin_inside_open_txn_is_an_error(self):
        # built without the parser, which rejects such a script itself
        steps = ["begin", "update t1 set c2=5 where c1=1", "begin", "commit"]
        scenario = Scenario(
            tables=[TableSpec(TableDef("t1"), [(1, 0)])],
            sessions=[
                SessionDef("A", steps=[parse_sql(sql, seq) for seq, sql in enumerate(steps, 1)])
            ],
        )
        with pytest.raises(RuntimeError, match="begin inside an open transaction"):
            run_scenario(scenario, SimConfig())

    def test_chain_check_accepts_a_self_update_mid_transaction(self):
        """A writer that updates its own row twice leaves two in-progress
        versions of one writer at the chain's tail, a legal state."""
        cluster = run_cluster(
            """
tables:
  - {name: t, rows: [[0, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1}
      - {seq: 3, sql: update t set c2=2}
"""
        )
        assert cluster.session_outcome("A") == "open"
        seg = cluster.segments[0]
        chain = seg.store.tables["t"][0]
        assert [seg.states[v.xmin_local] for v in chain] == [
            "committed",
            "in_progress",
            "in_progress",
        ]
        seg.store.check_chain_invariants(seg.states.get)


def run_cluster(text, **cfg):
    scenario = parse_scenario(text)
    cluster = build_cluster(scenario, SimConfig(**cfg))
    cluster.run()
    return cluster


INSERT_ONE_SEGMENT = """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "insert t values (1,1),(1,2),(1,3),(1,4),(1,5),(1,6),(1,7),(1,8),(1,9),(1,10)"}
      - {seq: 3, sql: commit}
"""

WRITE_THREE_SEGMENTS = """
tables:
  - {name: t, rows: [[0, 0], [1, 0], [2, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=5}
      - {seq: 3, sql: commit}
"""


class TestCommitProtocols:
    def test_single_segment_insert_takes_one_phase(self):
        cluster = run_cluster(INSERT_ONE_SEGMENT)
        acc = cluster.dtm.transactions[1]
        assert acc.protocol is Protocol.ONE_PHASE
        msgs, fsyncs = expected_accounting(Protocol.ONE_PHASE, 1)
        assert acc.messages == msgs
        assert acc.fsyncs == fsyncs

    def test_three_segment_write_counts(self):
        cluster = run_cluster(WRITE_THREE_SEGMENTS)
        acc = cluster.dtm.transactions[1]
        assert acc.protocol is Protocol.TWO_PHASE
        msgs, fsyncs = expected_accounting(Protocol.TWO_PHASE, 3)
        assert acc.messages == msgs
        assert acc.fsyncs == fsyncs
        assert acc.messages[MSG_PREPARE] == 3
        assert acc.fsyncs[FSYNC_SEGMENT_PREPARE] == 3
        assert acc.fsyncs[FSYNC_COORD_COMMIT] == 1

    def test_two_segment_write_counts(self):
        cluster = run_cluster(
            """
tables:
  - {name: t, rows: [[0, 0], [1, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=5}
      - {seq: 3, sql: commit}
"""
        )
        acc = cluster.dtm.transactions[1]
        msgs, fsyncs = expected_accounting(Protocol.TWO_PHASE, 2)
        assert acc.messages == msgs and acc.fsyncs == fsyncs

    def test_read_only_commit_has_no_protocol_traffic(self):
        cluster = run_cluster(
            """
tables:
  - {name: t, rows: [[0, 0], [1, 0], [2, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t}
      - {seq: 3, sql: commit}
"""
        )
        acc = cluster.dtm.transactions[1]
        assert acc.protocol is Protocol.READ_ONLY
        assert sum(acc.messages.values()) == 0
        assert sum(acc.fsyncs.values()) == 0

    def test_duplicate_commit_reply_is_idempotent(self):
        cluster = build_cluster(parse_scenario(INSERT_ONE_SEGMENT))
        session = cluster.sessions["A"]
        cluster.run(stop_when=lambda c: session.end is not None)
        commit_end = session.end
        (seg,) = session.txn.write_segments  # the one site the commit round awaits
        cluster.run()
        assert session.outcomes == ["committed"] and session.end is None
        before = cluster.committed_txns
        acc = cluster.dtm.transactions[1]
        messages, fsyncs = Counter(acc.messages), Counter(acc.fsyncs)
        # a straggler ack after completion
        commit._reply(cluster, session, commit_end, seg, MSG_COMMIT_OK)
        assert cluster.committed_txns == before
        assert acc.messages == messages and acc.fsyncs == fsyncs
        assert session.outcomes == ["committed"]

    @pytest.mark.parametrize("veto", [0, 1, 2])
    def test_prepare_failure_aborts_everywhere(self, veto):
        scenario = parse_scenario(WRITE_THREE_SEGMENTS)
        cluster = build_cluster(scenario)
        cluster._prepare_veto = lambda seg, txn: seg == veto
        cluster.run()
        assert cluster.sessions["A"].outcomes == ["aborted:prepare_failed"]
        # atomicity: no segment kept the update
        assert cluster.state_digest() == "t:[(0, 0), (1, 0), (2, 0)]"
        # the segments before the veto answered in time; the later PrepareOk
        # replies reach an aborted round and are dropped, and no Commit goes out
        acc = cluster.dtm.transactions[1]
        assert acc.messages == Counter({MSG_PREPARE: 3, MSG_PREPARE_OK: veto})
        assert acc.fsyncs == Counter({FSYNC_SEGMENT_PREPARE: 2})

    def test_forced_2pc_produces_identical_final_state(self):
        one = run_cluster(INSERT_ONE_SEGMENT)
        two = run_cluster(INSERT_ONE_SEGMENT, force_2pc=True)
        assert one.state_digest() == two.state_digest()
        assert one.dtm.transactions[1].protocol is Protocol.ONE_PHASE
        assert two.dtm.transactions[1].protocol is Protocol.TWO_PHASE

    def test_one_phase_commit_window_snapshot_sees_txn_in_progress(self):
        scenario = parse_scenario(INSERT_ONE_SEGMENT)
        cluster = build_cluster(scenario)
        seg = 1  # key 1 routes to segment 1

        def segment_committed(cl):
            return any("commit_local|dxid=1" in l for l in cl.trace)

        cluster.run(stop_when=segment_committed)
        assert segment_committed(cluster)
        # the segment has durably committed, but the coordinator has not yet
        # received CommitOk: new snapshots must still treat dxid 1 as running
        window_snapshot = cluster.dtm.current_snapshot()
        assert 1 in window_snapshot.in_progress
        table = cluster.catalog["t"]
        vis = cluster.segments[seg].visibility(window_snapshot)
        from htapsim.store import Predicate

        assert cluster.segments[seg].store.scan(table, Predicate(), vis) == []
        cluster.run()
        after = cluster.dtm.current_snapshot()
        assert 1 not in after.in_progress
        vis = cluster.segments[seg].visibility(after)
        assert len(cluster.segments[seg].store.scan(table, Predicate(), vis)) == 10


LEGACY_PAIR = """
tables:
  - {name: t, rows: [[3, 0], [6, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t set c2=1 where c1=3}
      - {seq: 5, sql: commit}
  - id: B
    steps:
      - {seq: 2, sql: begin}
      - {seq: 4, sql: update t set c2=2 where c1=6}
      - {seq: 6, sql: commit}
"""


class TestLegacyLocking:
    def test_legacy_mode_serializes_updates_on_one_relation(self):
        result = run_text(LEGACY_PAIR, legacy_locking=True)
        assert result.outcomes == {"A": "committed", "B": "committed"}
        waits = [l for l in result.trace if "lock_wait" in l and "relation:t@seg-1" in l]
        assert waits and "dxid=2" in waits[0]

    def test_gdd_mode_runs_them_concurrently(self):
        result = run_text(LEGACY_PAIR, legacy_locking=False)
        assert result.outcomes == {"A": "committed", "B": "committed"}
        assert not any("lock_wait" in l for l in result.trace)

    def test_victim_waiting_on_coordinator_leaves_no_inflight_update(self):
        """B's second update never leaves the coordinator: it waits there
        for t1, which A holds.  Aborting it must not undo a dispatch that
        never happened."""
        cluster = run_cluster(
            """
tables:
  - {name: t1, rows: [[3, 0]]}
  - {name: t2, rows: [[3, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t1 set c2=1 where c1=3}
      - {seq: 5, sql: update t2 set c2=1 where c1=3}
      - {seq: 8, sql: commit}
  - id: B
    steps:
      - {seq: 2, sql: begin}
      - {seq: 4, sql: update t2 set c2=2 where c1=3}
      - {seq: 6, sql: update t1 set c2=2 where c1=3}
      - {seq: 7, sql: detect}
      - {seq: 9, sql: commit}
""",
            legacy_locking=True,
        )
        assert cluster.session_outcome("A") == "committed"
        assert cluster.session_outcome("B") == "aborted:deadlock_victim"
        assert cluster.inflight_updates == 0


class TestAbortTransaction:
    def test_stale_or_unknown_dxid_aborts_nothing(self):
        """A's first transaction, dxid 1, has committed, and its record still
        names A, which is now inside dxid 2.  Aborting dxid 1, as a verdict
        taken before that commit would, must leave dxid 2 alone, and so must
        aborting a dxid that was never handed out."""
        cluster = build_cluster(
            parse_scenario(
                """
tables:
  - {name: t, rows: [[0, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=0}
      - {seq: 3, sql: commit}
      - {seq: 4, sql: begin}
      - {seq: 5, sql: update t set c2=2 where c1=0}
      - {seq: 6, sql: commit}
"""
            ),
        )
        session = cluster.sessions["A"]
        cluster.run(stop_when=lambda c: session.txn is not None and session.txn.dxid == 2)
        assert session.outcomes == ["committed"]
        assert cluster.dtm.transactions[1].sid == "A"
        cluster.abort_transaction(1)
        cluster.abort_transaction(99)
        assert cluster.dtm.is_live(2) and session.end is None
        cluster.run()
        assert session.outcomes == ["committed", "committed"]
        assert cluster.state_digest() == "t:[(0, 2)]"

    def test_second_abort_while_aborting_is_dropped(self):
        """Two aborts of one writer in one tick: the first starts the abort
        round, which waits on the segment it wrote; the second finds that
        abort under way and does nothing, so the transaction aborts once,
        with the first reason."""
        cluster = run_cluster(
            """
tables:
  - {name: t, rows: [[0, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=0}
"""
        )
        session = cluster.sessions["A"]
        dxid = session.txn.dxid
        assert session.txn.local_xids
        cluster.abort_transaction(dxid, "first")
        end = session.end
        cluster.abort_transaction(dxid, "second")
        assert session.end is end
        cluster.run()
        assert session.outcomes == ["aborted:first"]
        kinds = [line.split("|")[2] for line in cluster.trace]
        assert kinds.count("abort_start") == kinds.count("abort_local") == 1


class TestPartReplies:
    """A segment part ends with one reply to the coordinator, a failed part's
    included."""

    # B's update waits on A's transaction lock on every segment it reaches,
    # and loses there once A commits
    LOSER = """
tables:
  - {name: t, rows: %s}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t set c2=1%s}
      - {seq: 5, sql: commit}
  - id: B
    steps:
      - {seq: 2, sql: begin}
      - {seq: 4, sql: update t set c2=2%s}
      - {seq: 6, sql: commit}
"""

    def test_a_lost_single_segment_update_aborts_and_undoes_its_dispatch(self):
        where = " where c1=3"
        cluster = run_cluster(self.LOSER % ("[[3, 0]]", where, where))
        assert cluster.session_outcome("A") == "committed"
        assert cluster.session_outcome("B") == "aborted:serialization"
        assert cluster.inflight_updates == 0
        assert cluster.state_digest() == "t:[(3, 1)]"

    def test_one_statement_failing_on_two_segments_aborts_once(self):
        cluster = run_cluster(self.LOSER % ("[[0, 0], [1, 0]]", "", ""))
        assert cluster.session_outcome("B") == "aborted:serialization"
        kinds = [line.split("|")[2] for line in cluster.trace]
        assert kinds.count("stmt_conflict") == 2
        assert kinds.count("abort_start") == 1
        assert cluster.inflight_updates == 0

    def test_a_failed_reply_to_a_dead_statement_starts_no_second_abort(self):
        """B's update waits on A, which never ends; the detector's abort of B
        kills the statement, and a failed reply that reaches it after that is
        dropped."""
        cluster = run_cluster(
            """
tables:
  - {name: t, rows: [[0, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=0}
  - id: B
    steps:
      - {seq: 3, sql: begin}
      - {seq: 4, sql: update t set c2=2 where c1=0}
"""
        )
        session = cluster.sessions["B"]
        stmt = session.stmt
        assert stmt is not None and stmt.outstanding == 1
        cluster.abort_transaction(session.txn.dxid)
        end = session.end
        assert stmt.dead
        cluster._part_reply(stmt, 0, None, "serialization")
        assert session.end is end
        cluster.run()
        assert session.outcomes == ["aborted:deadlock_victim"]
        kinds = [line.split("|")[2] for line in cluster.trace]
        assert kinds.count("abort_start") == 1
        assert cluster.inflight_updates == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        digests = set()
        for _ in range(3):
            scenario, result = run_file("deadlock_with_coordinator.yaml", seed=42)
            digests.add(hashlib.sha256("\n".join(result.trace).encode()).hexdigest())
        assert len(digests) == 1

    def test_metrics_are_reproducible_too(self):
        csvs = {run_file("clean_mixed_edges.yaml", seed=7)[1].metrics_csv for _ in range(2)}
        assert len(csvs) == 1

    def test_bench_output_does_not_depend_on_hash_seed(self):
        """Lock tags, relation names and other keys hash differently in each
        process; no trace line or metric may depend on those hash values.
        The run is the perfbench tick budget and there are three processes:
        locks released in hash order instead of queue creation order change
        the trace in about half of all processes at this length, and not at
        all at 150 ticks."""
        script = (
            "import hashlib\n"
            "from htapsim.bench import bench\n"
            "r = bench('tpcb-like', 32, 500)\n"
            "assert any('lock_wait' in line for line in r.trace)\n"
            "for text in ('\\n'.join(r.trace), r.metrics_csv):\n"
            "    print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outputs.add(run.stdout)
        assert len(outputs) == 1


class TestResourceIntegration:
    GROUPED = """
tables:
  - {name: t, rows: [[3, 0]]}
groups:
  - {name: little, CONCURRENCY: 1, MEMORY_LIMIT: 10, MEMORY_SHARED_QUOTA: 20, CPU_RATE_LIMIT: 50}
sessions:
  - id: A
    group: little
    steps:
      - {seq: 1, sql: begin}
      - {seq: 3, sql: update t set c2=1 where c1=3}
      - {seq: 4, sql: commit}
  - id: B
    group: little
    steps:
      - {seq: 2, sql: begin}
      - {seq: 5, sql: update t set c2=2 where c1=3}
      - {seq: 6, sql: commit}
"""

    def test_admission_respects_concurrency_one(self):
        result = run_text(self.GROUPED)
        assert result.outcomes == {"A": "committed", "B": "committed"}
        assert any("admission_queue|session=B" in l for l in result.trace)

    def test_scenario_groups_follow_the_configs(self):
        """`build_cluster` keeps the config's groups and adds the scenario's
        after them, leaving the config as it was; a group that both name is a
        `ConfigError` when the cluster is built."""
        scenario = parse_scenario(self.GROUPED)
        big = ResourceGroupConfig("big", 2, 20, cpu_rate_limit=30)
        config = SimConfig(resource_groups=[big])
        cluster = build_cluster(scenario, config)
        assert cluster.config.resource_groups == [big, *scenario.groups]
        assert list(cluster.resources.configs) == ["big", "little"]
        assert config.resource_groups == [big]
        cluster.add_session("C", "big")
        cluster.run()
        assert {sid: cluster.session_outcome(sid) for sid in "ABC"} == {
            "A": "committed",
            "B": "committed",
            "C": "idle",
        }
        clash = SimConfig(resource_groups=[ResourceGroupConfig("little", 1, 10, cpu_rate_limit=10)])
        with pytest.raises(ConfigError, match="duplicate group name 'little'"):
            build_cluster(scenario, clash)

    def test_memory_cancellation_aborts_the_query(self):
        result = run_text(
            """
tables:
  - {name: t, rows: [[3, 0]]}
groups:
  - {name: little, CONCURRENCY: 1, MEMORY_LIMIT: 10, MEMORY_SHARED_QUOTA: 20, CPU_RATE_LIMIT: 50}
sessions:
  - id: A
    group: little
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=3, mem: 999999}
      - {seq: 3, sql: commit}
"""
        )
        assert result.outcomes["A"] == "aborted:memory_cancelled"

    def test_cpu_burst_delays_statement(self):
        result = run_text(
            """
tables:
  - {name: t, rows: [[3, 0]]}
groups:
  - {name: g, CONCURRENCY: 5, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 50}
sessions:
  - id: A
    group: g
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=3, cpu: 25}
      - {seq: 3, sql: commit}
"""
        )
        assert result.outcomes["A"] == "committed"
        end_line = next(l for l in result.trace if "txn_end" in l)
        assert int(end_line.split("|")[0]) >= 25

    def test_a_fractional_cpu_burst_fails_the_run(self):
        """A `Step` built in code can carry `cpu=1.5`, which no scenario
        file can.  Its submit must fail rather than file a burst that never
        ends, which left an unbounded `run()` spinning on CPU ticks; the run
        here is bounded so that the accepted burst fails the test, not hangs
        it."""
        scenario = parse_scenario(self.TWO_BURSTS)
        scenario.sessions[0].steps[1].cpu = 1.5
        cluster = build_cluster(scenario)
        with pytest.raises(ValueError, match="burst must be at least one tick, as an int"):
            cluster.run(until_tick=1000)

    TWO_BURSTS = """
tables:
  - {name: t, rows: [[3, 0]]}
groups:
  - {name: g, CONCURRENCY: 5, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 50}
sessions:
  - id: A
    group: g
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, cpu: 6}
      - {seq: 3, sql: commit}
      - {seq: 4, sql: begin}
      - {seq: 5, sql: select t, cpu: 6}
      - {seq: 6, sql: commit}
"""

    @staticmethod
    def second_burst_ticks(cluster) -> int:
        """Ticks from when seq 5 is sent to when it completes."""
        sent = next(l for l in cluster.trace if "|issue|seq=5 " in l)
        done = next(l for l in cluster.trace if "|stmt_done|" in l and "seq=5" in l)
        return int(done.split("|")[0]) - int(sent.split("|")[0])

    def test_aborted_statements_workers_do_not_count_for_the_next(self):
        """The first burst's statement is aborted while its gang still runs;
        those workers finishing must not complete the next statement's gang."""
        scenario = parse_scenario(self.TWO_BURSTS)
        plain = build_cluster(scenario, SimConfig(eager=True))
        plain.run()
        cluster = build_cluster(parse_scenario(self.TWO_BURSTS), SimConfig(eager=True))
        cluster.run(until_tick=2)
        cluster.abort_transaction(cluster.sessions["A"].txn.dxid)
        cluster.run()
        assert cluster.sessions["A"].outcomes == ["aborted:deadlock_victim", "committed"]
        assert self.second_burst_ticks(cluster) == self.second_burst_ticks(plain) == 9

    @pytest.mark.parametrize("clients", [2, 4, 9, 32])
    @pytest.mark.parametrize(
        "groups",
        [
            bench.default_htap_groups(),
            [
                ResourceGroupConfig("olap_group", 10, 15, 20, cpuset=frozenset(range(8))),
                ResourceGroupConfig("oltp_group", 50, 15, 20, cpu_rate_limit=20),
            ],
        ],
        ids=["shares", "olap-cpuset"],
    )
    def test_a_cpu_tick_is_queued_exactly_while_the_scheduler_has_work(self, groups, clients):
        """After every event of a `mixed-htap` run, one `_cpu_tick` is queued
        if the scheduler has work, and none otherwise; each group's running
        count is the tasks filed in `_ends`, the free shared cores are the
        shared cores less the share groups' running tasks, and no cpuset
        group runs more tasks than it has cores."""
        config = SimConfig(resource_groups=groups, trace_enabled=False)
        cluster = bench.build("mixed-htap", clients, config, seed=1)
        cpu = cluster.cpu
        events = 0

        def check(cluster):
            nonlocal events
            events += 1
            queued = sum(
                fn == cluster._cpu_tick for bucket in cluster._buckets.values() for fn in bucket
            )
            assert queued == cpu.has_work(), f"tick {cluster.clock}"
            recount = Counter(task.group for tasks in cpu._ends.values() for task in tasks)
            assert cpu.group_running == {name: recount[name] for name in cpu.group_running}
            free = cpu.shared_cores - sum(cpu.group_running[name] for name in cpu.share_groups)
            assert cpu._shared_free == free >= 0, f"tick {cluster.clock}"
            for name, cores in cpu.cpuset_groups.items():
                assert cpu.group_running[name] <= len(cores), f"tick {cluster.clock}"
            return False

        cluster.run(until_tick=400, stop_when=check)
        assert cluster.clock == 400
        assert events > 1000


def test_a_session_with_no_steps_is_idle():
    cluster = Cluster(SimConfig())
    cluster.add_session("A")
    cluster.run()
    assert cluster.session_outcome("A") == "idle"


def test_a_reused_table_name_is_an_error():
    """A second table of one name would keep the first one's rows where its
    distribution key routed them, while statements route by the second's."""
    cluster = Cluster(SimConfig())
    cluster.create_table(TableDef("t"), [(1, 5), (2, 7)])
    with pytest.raises(ValueError, match="duplicate table 't'"):
        cluster.create_table(TableDef("t", dist_key="c2"), [(3, 9)])
    assert cluster.catalog["t"].dist_key == "c1"


def test_a_reused_session_id_is_an_error():
    cluster = Cluster(SimConfig())
    cluster.create_table(TableDef("t"), [(1, 0)])
    steps = [parse_sql(sql, seq) for seq, sql in enumerate(["begin", "select t", "commit"], 1)]
    first = cluster.add_session("A", step_iter=iter(steps))
    with pytest.raises(ValueError, match="duplicate session id 'A'"):
        cluster.add_session("A")
    cluster.run()
    assert cluster.sessions["A"] is first
    assert first.outcomes == ["committed"]


@pytest.mark.parametrize("eager", [False, True])
def test_a_sessions_steps_run_in_seq_order_not_file_order(eager):
    scenario = parse_scenario(
        """
tables:
  - {name: t, rows: [[1, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 3, sql: commit}
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=5 where c1=1}
expect:
  verdict: clean
  outcomes: {A: committed}
"""
    )
    result = run_scenario(scenario, SimConfig(eager=eager))
    ok, problems = result.expectations_met(scenario.expect)
    assert ok, problems
    issued = [line.split("|")[3].split()[0] for line in result.trace if "|issue|" in line]
    assert issued == ["seq=1", "seq=2", "seq=3"]


def test_expectations_met_names_each_mismatch():
    result = ScenarioResult(
        outcomes={"A": "committed", "B": "aborted:deadlock_victim"},
        verdict="clean",
        victims=[],
        trace=[],
        metrics_csv="",
        stalled=[],
        scans={},
    )
    assert result.expectations_met(None) == (True, [])
    expect = Expectation(verdict="deadlock", victims=["B"], outcomes={"B": "aborted"})
    assert result.expectations_met(expect) == (
        False,
        ["verdict clean, expected deadlock", "victims [], expected ['B']"],
    )
