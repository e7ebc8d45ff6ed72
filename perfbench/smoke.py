"""Smoke test of the benchmark itself: every workload at a tiny tick budget.

    python3 perfbench/smoke.py

Runs each workload untraced and traced for 20 simulated ticks and fails
unless every metric named in BENCHMARK.json is reported with its unit and
every output check passes.  It takes a few seconds and measures nothing.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import benchmark  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
        return 1
    failures = 0
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(workload, ticks=20, windows=10)
        for trace, entries in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out, _, problems, metrics, _ = benchmark(tiny, 0, 0, trace, spec)
            want = {e["name"]: e["unit"] for e in entries}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                problems.append(f"metrics and units {got} differ from {want}")
            if out["begun"] < 1:
                problems.append("no transaction began")
            label = f"{workload.name} {'traced' if trace else 'untraced'}"
            print(f"{label}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
