"""Behaviour pins: golden outputs of short runs, so that any change to what
the simulator does shows up as a diff here.

Each `bench` workload runs at seed 0 with 32 clients for a short tick budget;
its counts, latencies, protocol mix, peak concurrent updates and the sha256 of
its trace and of its per-transaction metrics CSV are pinned.  Every scenario
file under `scenarios/` has its trace sha256 pinned too.  A change that means
to alter behaviour updates these values and says why; a performance or
simplification change must leave them exactly as they are.
"""

import hashlib
from pathlib import Path

import pytest

from htapsim import load_scenario, run_scenario
from htapsim.bench import bench

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


@pytest.mark.parametrize("workload", sorted(BENCH_PINS))
def test_bench_outputs_pinned(workload):
    ticks, *want = BENCH_PINS[workload]
    r = bench(workload, clients=32, duration_ticks=ticks, seed=0)
    got = [
        r.committed,
        r.aborted,
        r.p50_latency,
        r.p95_latency,
        r.protocol_counts,
        r.max_inflight_updates,
        sha256("\n".join(r.trace)),
        sha256(r.metrics_csv),
    ]
    assert got == want


def test_every_scenario_file_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.yaml")) == sorted(
        SCENARIO_TRACE_PINS
    )


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_PINS))
def test_scenario_trace_pinned(name):
    result = run_scenario(load_scenario(str(SCENARIOS / name)))
    assert sha256("\n".join(result.trace)) == SCENARIO_TRACE_PINS[name]
