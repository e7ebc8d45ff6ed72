"""Print digests of the simulator's outputs over a fixed matrix of runs.

    python3 tests/output_digests.py > digests.txt

Run it in two checkouts and diff the outputs: a change that means to keep
behaviour must print the same lines.  Each line names one run and gives the
sha256 of its text trace, of its per-transaction metrics CSV and of its
summary.  The matrix:

- every `bench` workload at 32 clients, seeds 0 and 7, under the default
  config, `legacy_locking` and `force_2pc`.  A bench line also gives one
  sha256 over every session's scan results and the final `state_digest()`
  of a `htapsim.bench.build` cluster run to the same tick, so that the rows
  each scan returned are pinned too;
- every scenario file under `scenarios/` under the default config, `eager`,
  `legacy_locking`, both of those, and `force_2pc`.  A scenario's summary is
  its verdict, victims, outcomes, stalled sessions and scan results;
- `tests/test_pins.py`'s `issue_order_runs` for seeds 100,000-100,499, one
  line for strict and one for eager order, each one sha256 over every run's
  trace, session outcomes, metrics CSV and `state_digest()`;
- `tests/test_pins.py`'s `staggered_digest`, the detector daemon collecting
  one site at a time: one line with one sha256 over every run's trace and
  metrics CSV, the value `STAGGERED_PIN` holds.

The script imports `htapsim` from the `src` directory of its own checkout,
ahead of any installed copy, and `test_pins` from its own `tests` directory.
Pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from htapsim import build_cluster, load_scenario, run_scenario  # noqa: E402
from htapsim.bench import WORKLOADS, bench, build  # noqa: E402
from htapsim.sim import Cluster, SimConfig  # noqa: E402
from test_pins import STAGGERED_SEEDS, issue_order_runs, staggered_digest  # noqa: E402

BENCH_TICKS = 600
BENCH_SEEDS = (0, 7)
BENCH_MODES = {"default": {}, "legacy": {"legacy_locking": True}, "2pc": {"force_2pc": True}}
SCENARIO_MODES = {
    "default": {},
    "eager": {"eager": True},
    "legacy": {"legacy_locking": True},
    "eager+legacy": {"eager": True, "legacy_locking": True},
    "2pc": {"force_2pc": True},
}
ISSUE_ORDER_SEEDS = range(100_000, 100_500)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(trace: list[str], metrics_csv: str, summary: str) -> str:
    return (
        f"trace={sha256(chr(10).join(trace))} csv={sha256(metrics_csv)} "
        f"summary={sha256(summary)}"
    )


def scans_digest(cluster: Cluster) -> str:
    """sha256 over each session's scan results, by session id, and the
    final `state_digest()`."""
    scans = [(sid, cluster.sessions[sid].scan_results) for sid in sorted(cluster.sessions)]
    return sha256(f"{scans!r}\n{cluster.state_digest()}")


def main() -> int:
    for workload in WORKLOADS:
        for seed in BENCH_SEEDS:
            for mode, fields in BENCH_MODES.items():
                r = bench(workload, 32, BENCH_TICKS, SimConfig(**fields), seed=seed)
                cluster = build(workload, 32, SimConfig(**fields), seed=seed)
                cluster.run(until_tick=BENCH_TICKS)
                print(
                    f"bench {workload} seed={seed} mode={mode} "
                    + digests(r.trace, r.metrics_csv, r.summary())
                    + f" scans={scans_digest(cluster)}"
                )
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        for mode, fields in SCENARIO_MODES.items():
            r = run_scenario(load_scenario(str(path)), SimConfig(**fields))
            summary = repr((r.verdict, r.victims, r.outcomes, r.stalled, r.scans))
            print(
                f"scenario {path.name} mode={mode} "
                + digests(r.trace, r.metrics_csv, summary)
            )
    orders = {"strict": hashlib.sha256(), "eager": hashlib.sha256()}
    for seed in ISSUE_ORDER_SEEDS:
        scenario, configs = issue_order_runs(seed)
        for digest, config in zip(orders.values(), configs):
            cluster = build_cluster(scenario, config)
            cluster.run(until_tick=5000)
            digest.update("\n".join(cluster.trace).encode())
            for sid in sorted(cluster.sessions):
                digest.update(f"\n{sid}={cluster.session_outcome(sid)}\n".encode())
            digest.update(cluster.metrics_csv().encode())
            digest.update(cluster.state_digest().encode())
    for order, digest in orders.items():
        print(
            f"issue-order {order} seeds={ISSUE_ORDER_SEEDS[0]}-{ISSUE_ORDER_SEEDS[-1]} "
            f"sha256={digest.hexdigest()}"
        )
    print(
        f"staggered seeds={STAGGERED_SEEDS[0]}-{STAGGERED_SEEDS[-1]} skews=3,7 "
        f"sha256={staggered_digest()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
