"""Print digests of the simulator's outputs over a fixed matrix of runs.

    python3 tests/output_digests.py > digests.txt

Run it in two checkouts and diff the outputs: a change that means to keep
behaviour must print the same lines.  Each line names one run and gives the
sha256 of its text trace, of its per-transaction metrics CSV and of its
summary.  The matrix:

- every `bench` workload at 32 clients, seeds 0 and 7, under the default
  config, `legacy_locking` and `force_2pc`;
- every scenario file under `scenarios/` under the default config, `eager`,
  `legacy_locking`, both of those, and `force_2pc`.  A scenario's summary is
  its verdict, victims, outcomes, stalled sessions and scan results.

The script imports `htapsim` from the `src` directory of its own checkout,
ahead of any installed copy.  Pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from htapsim import load_scenario, run_scenario  # noqa: E402
from htapsim.bench import WORKLOADS, bench  # noqa: E402
from htapsim.sim import SimConfig  # noqa: E402

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(trace: list[str], metrics_csv: str, summary: str) -> str:
    return (
        f"trace={sha256(chr(10).join(trace))} csv={sha256(metrics_csv)} "
        f"summary={sha256(summary)}"
    )


def main() -> int:
    for workload in WORKLOADS:
        for seed in BENCH_SEEDS:
            for mode, fields in BENCH_MODES.items():
                r = bench(workload, 32, BENCH_TICKS, SimConfig(**fields), seed=seed)
                print(
                    f"bench {workload} seed={seed} mode={mode} "
                    + digests(r.trace, r.metrics_csv, r.summary())
                )
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        for mode, fields in SCENARIO_MODES.items():
            r = run_scenario(load_scenario(str(path)), SimConfig(**fields))
            summary = repr((r.verdict, r.victims, r.outcomes, r.stalled, r.scans))
            print(
                f"scenario {path.name} mode={mode} "
                + digests(r.trace, r.metrics_csv, summary)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
