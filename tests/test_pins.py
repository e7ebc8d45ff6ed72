"""Behaviour pins: golden outputs of short runs, so that any change to what
the simulator does shows up as a diff here.

Each `bench` workload runs at seed 0 with 32 clients for a short tick budget;
its counts, latencies, protocol mix, peak concurrent updates and the sha256 of
its trace and of its per-transaction metrics CSV are pinned.  Every scenario
file under `scenarios/` has its trace sha256 pinned too, and so do the traces
and session outcomes of random scenarios in both issue orders.  A change that
means to alter behaviour updates these values and says why; a performance or
simplification change must leave them exactly as they are.
"""

import hashlib
import random
from pathlib import Path

import pytest

from htapsim import load_scenario, run_scenario
from htapsim.bench import bench
from htapsim.gdd import GddConfig
from htapsim.scenario import Scenario, SessionDef, TableSpec, parse_sql
from htapsim.sim import Cluster, SimConfig
from htapsim.store import TableDef

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# workload -> (ticks, committed, aborted, p50, p95, protocols,
#              max_inflight_updates, trace sha256, metrics_csv sha256)
BENCH_PINS = {
    "update-only": (
        80, 609, 0, 4.0, 4.0, {"1pc": 609}, 32,
        "edcfdf5c8992d065c2c0b37fcc23dc3697a841f7eea26d249c27d859206a2990",
        "5b5d44a7faa5468bd07e7a8a367909aa0da772264475baa27b8093ecc9c5750c",
    ),
    "insert-only": (
        80, 609, 0, 4.0, 4.0, {"1pc": 609}, 0,
        "66e5749862b48cbbb7415f6f64fc576198f9a489bb14981aaabcbef5a91022b3",
        "5b5d44a7faa5468bd07e7a8a367909aa0da772264475baa27b8093ecc9c5750c",
    ),
    "tpcb-like": (
        150, 62, 270, 12.0, 12.0, {"1pc": 17, "2pc": 45}, 32,
        "0b3e2d2567e819aa62c6af8b65fcf6655a1ae59d9c3827ee581eb4aafbe0edfe",
        "132f2a23750e8a9e5a837d332af2a8fc142584bd183991eb30bac76d22ca8562",
    ),
    "mixed-htap": (
        300, 336, 0, 21.0, 43.0, {"1pc": 276, "ro": 60}, 16,
        "ee95bf697fff4db9513ffa901e49807bdef0514a926d85c38babf2fcbe4ff459",
        "b88bbdf22487ab35e310d019661c77eacd6deb47275d0362c9cf7dab636a0623",
    ),
}

# (workload, SimConfig flag set) -> the layout of BENCH_PINS
MODE_BENCH_PINS = {
    ("tpcb-like", "force_2pc"): (
        150, 60, 258, 12.0, 12.0, {"2pc": 60}, 32,
        "e7b2c8f22ff1f1822f65a63e360de336c131dce40ed4e4d30d91a22f0687dfde",
        "9dcf41ab8fe2bc173e423aaf3f8550c1874180e04491a3021a4bba730a3e181f",
    ),
    ("tpcb-like", "legacy_locking"): (
        150, 5, 13, 34.0, 54.0, {"1pc": 3, "2pc": 2}, 1,
        "96f3568478cfacc23b225092e32c610bf6692683f1ab2cb658be22285f0ea05f",
        "828411f947b5af92d79741c71e138bc97985abb8d5c969060f391d38bb01628c",
    ),
    ("update-only", "legacy_locking"): (
        150, 37, 0, 76.0, 128.0, {"1pc": 37}, 1,
        "24b08c880ccb5ad4a7272d912641b5e143630016d776defc80816386f0de738a",
        "79c6f3473def401eb466992937103356c37c68f3b6d04b87a9ee2218d2135090",
    ),
}

SCENARIO_TRACE_PINS = {
    "clean_dotted_edges.yaml":
        "414222ba19c4b8c469ad79f576035999d345a326b43c4912816afeff9ad41375",
    "clean_mixed_edges.yaml":
        "5d9ef855ce98d9e080fc03b55f627af3adf965757358685f58eebbcf19d51b2b",
    "deadlock_two_txn.yaml":
        "bdd7a423acd3b86196fb3b69f96642fd50e475c6fb2220841a1efdd2d0ee83c2",
    "deadlock_with_coordinator.yaml":
        "048f5cde240fa2a4c710d78ffc2dd07224d839f9b1395a5c80e51b866eebb683",
}


# (scenario file, SimConfig flag set) -> trace sha256
MODE_SCENARIO_TRACE_PINS = {
    ("clean_dotted_edges.yaml", "eager"):
        "edc54899330d4cd581b1fe5a5d20c972a2f38d9e305d6f0146afb177a1459aec",
    ("clean_dotted_edges.yaml", "legacy_locking"):
        "41e33dfe757670a5e2ef77803bf07f71615fac5262869da8b00db39dd357c150",
    ("clean_mixed_edges.yaml", "eager"):
        "cc1dcc798cf29a0a847d87ab5e100469f2607e25b2752cb96a9a0201cbcd248f",
    ("clean_mixed_edges.yaml", "legacy_locking"):
        "829215269150ffecd4ba521b024857b85d6954f6ab22847bff7f10645273b92a",
    ("deadlock_two_txn.yaml", "eager"):
        "8b2b368d1147df5321ff9ba82cb0dbb945517006bfe4c6fd5d2f13feaa3fd700",
    ("deadlock_two_txn.yaml", "legacy_locking"):
        "519994402a37c4e5c197c3f41234792685a6c5fe2568e578ccc68631e29ec374",
    ("deadlock_with_coordinator.yaml", "eager"):
        "e7c7a3680cd424f4a780cd58718990f5d6dac9f4adb26c728278d97f8c49f4af",
    ("deadlock_with_coordinator.yaml", "legacy_locking"):
        "0d62560d1f0c7432a56f1e721a996752b9d0d40827fb92b8f1ec519ee1ecd601",
}

# sha256 of test_issue_order_pinned_over_random_scenarios's traces and outcomes
ISSUE_ORDER_PIN = "be55a320759780108452bd4f822a57c6a55044f4766ca3178ba7e7feb371a2a4"


def bench_outputs(r) -> list:
    return [
        r.committed,
        r.aborted,
        r.p50_latency,
        r.p95_latency,
        r.protocol_counts,
        r.max_inflight_updates,
        sha256("\n".join(r.trace)),
        sha256(r.metrics_csv),
    ]


@pytest.mark.parametrize("workload", sorted(BENCH_PINS))
def test_bench_outputs_pinned(workload):
    ticks, *want = BENCH_PINS[workload]
    r = bench(workload, clients=32, duration_ticks=ticks, seed=0)
    assert bench_outputs(r) == want


@pytest.mark.parametrize("workload, flag", sorted(MODE_BENCH_PINS))
def test_bench_outputs_pinned_under_flag(workload, flag):
    ticks, *want = MODE_BENCH_PINS[workload, flag]
    config = SimConfig(**{flag: True})
    r = bench(workload, clients=32, duration_ticks=ticks, config=config, seed=0)
    assert bench_outputs(r) == want


def test_every_scenario_file_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.yaml")) == sorted(
        SCENARIO_TRACE_PINS
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_PINS))
def test_scenario_trace_pinned(name):
    result = run_scenario(load_scenario(str(SCENARIOS / name)))
    assert sha256("\n".join(result.trace)) == SCENARIO_TRACE_PINS[name]


@pytest.mark.parametrize("name, flag", sorted(MODE_SCENARIO_TRACE_PINS))
def test_scenario_trace_pinned_under_flag(name, flag):
    config = SimConfig(**{flag: True})
    result = run_scenario(load_scenario(str(SCENARIOS / name)), config)
    assert sha256("\n".join(result.trace)) == MODE_SCENARIO_TRACE_PINS[name, flag]


def issue_order_scenario(rng: random.Random) -> Scenario:
    """2 tables x 5 keys; 2-5 sessions of 1-3 transactions of 1-4 statements
    (70% point update, 10% lock, 10% select, 10% detect), 15% of them ending
    in `abort`; the sessions' steps interleaved at random into one `seq`
    order."""
    scenario = Scenario()
    for t in ("t0", "t1"):
        scenario.tables.append(TableSpec(TableDef(t), [(k, 0) for k in range(5)]))
    own: dict[str, list[str]] = {}
    for i in range(rng.randrange(2, 6)):
        sid = f"s{i}"
        scenario.sessions.append(SessionDef(sid))
        texts = own[sid] = []
        for _ in range(rng.randrange(1, 4)):
            texts.append("begin")
            for _ in range(rng.randrange(1, 5)):
                roll = rng.random()
                table = f"t{rng.randrange(2)}"
                if roll < 0.7:
                    texts.append(
                        f"update {table} set c2={rng.randrange(100)} where c1={rng.randrange(5)}"
                    )
                elif roll < 0.8:
                    texts.append(f"lock {table}")
                elif roll < 0.9:
                    texts.append(f"select {table}")
                else:
                    texts.append("detect")
            texts.append("abort" if rng.random() < 0.15 else "commit")
    order = [sid for sid, texts in own.items() for _ in texts]
    rng.shuffle(order)
    for seq, sid in enumerate(order, 1):
        scenario.steps.append(parse_sql(own[sid].pop(0), seq, sid))
    return scenario


def issue_order_runs(seed: int) -> tuple[Scenario, list[SimConfig]]:
    """`issue_order_scenario` drawn from `seed`, and its configs in strict
    and then eager order, with random link delays and detector period."""
    rng = random.Random(seed)
    scenario = issue_order_scenario(rng)
    sites = [-1, 0, 1, 2]
    delays = {(a, b): rng.randrange(1, 4) for a in sites for b in sites if a != b}
    period = rng.choice((5, 17))
    return scenario, [
        SimConfig(eager=eager, link_delays=delays, gdd=GddConfig(period=period))
        for eager in (False, True)
    ]


def test_issue_order_pinned_over_random_scenarios():
    """Strict and eager issue order, aborted transactions' skipped remainders
    (deadlock victims' later transactions, `detect` steps inside them) and
    user aborts: one sha256 over the traces and session outcomes of 500
    random scenarios run in both orders."""
    digest = hashlib.sha256()
    for seed in range(500):
        scenario, configs = issue_order_runs(seed)
        for config in configs:
            cluster = Cluster(config, scenario)
            cluster.run(until_tick=5000)
            digest.update("\n".join(cluster.trace).encode())
            for sid in sorted(cluster.sessions):
                digest.update(f"\n{sid}={cluster.session_outcome(sid)}\n".encode())
    assert digest.hexdigest() == ISSUE_ORDER_PIN
