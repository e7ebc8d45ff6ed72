"""Benchmark one htapsim workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tpcb-like --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it times set-up in fresh processes, then repeats untraced
passes over the workload's tick budget for ``--seconds`` and reports the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics instead.  Either
way the simulated outputs are checked, and the last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` is the number of simulated transactions begun in one pass, and
``failed`` the number left hung: waiting on a lock that nothing blocks.
Serialization aborts and deadlock victims are the simulator's correct answer
to conflicting transactions; ``commit_share`` and the ``txn.*`` counts report
them.  The exit code is 0 when the run completed, whatever the checks said.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "htapsim" / "__init__.py").is_file():
        print(f"perfbench: no htapsim source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import benchmark
    from workloads import CLIENTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out, n_passes, problems, metrics, host = benchmark(
        workload, args.seed, args.seconds, bool(args.trace), spec
    )

    print(
        f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
        f"passes={n_passes} ticks={workload.ticks} windows={workload.windows} clients={CLIENTS}"
    )
    print(
        f"environment python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r}"
    )
    print(
        "host " + " ".join(f"{k}={v:.4g}" for k, v in host.items())
        + " (timings are CPU time at the reference speed, slowdown 1)"
    )
    print(f"simulated {json.dumps(out, sort_keys=True)}")
    for problem in problems:
        print(f"check FAILED: {problem}")
    if not problems:
        print("checks passed: passes agree, bench() agrees, commit accounting, lock tables"
              + (", traced pass agrees" if args.trace else ""))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out["begun"],
        "failed": out["hung"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
