"""Command line interface: run, bench, detect, netdeadlock."""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack

from .bench import WORKLOADS, bench
from .gdd import Outcome, detect, find_cycle
from .interconnect import JoinOutcome, run_join_scenario
from .scenario import ScenarioError, load_scenario, run_scenario
from .sim import SimConfig
from .waitgraph import GlobalWaitForGraph


def _int_at_least(low: int):
    """argparse type for counts that must be at least `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _open_outputs(stack: ExitStack, *paths: str | None) -> list | None:
    """Open each output path given for writing, in `stack`, before any work
    is done, so that an unwritable path fails at once.  Returns the files,
    with None for a path not given, or prints `cannot write <path>: <reason>`
    and returns None."""
    files = []
    for path in paths:
        if not path:
            files.append(None)
            continue
        try:
            files.append(stack.enter_context(open(path, "w", encoding="utf-8")))
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return None
    return files


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    config = SimConfig(
        n_segments=args.segments,
        legacy_locking=args.legacy_locking,
        gdd_period=args.gdd_period,
    )
    with ExitStack() as stack:
        files = _open_outputs(stack, args.out, args.trace)
        if files is None:
            return 2
        out, trace = files
        result = run_scenario(scenario, config)
        if out is not None:
            out.write(result.metrics_csv)
        if trace is not None:
            trace.write("\n".join(result.trace) + "\n")
    print(f"verdict: {result.verdict}")
    if result.victims:
        print(f"victims: {', '.join(result.victims)}")
    for sid in sorted(result.outcomes):
        print(f"session {sid}: {result.outcomes[sid]}")
    ok, problems = result.expectations_met(scenario.expect)
    for problem in problems:
        print(f"expectation failed: {problem}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    config = SimConfig(
        n_segments=args.segments,
        legacy_locking=args.legacy_locking,
        gdd_period=args.gdd_period,
    )
    with ExitStack() as stack:
        files = _open_outputs(stack, args.out)
        if files is None:
            return 2
        (out,) = files
        result = bench(args.workload, args.clients, args.ticks, config, seed=args.seed)
        print(result.summary())
        if out is not None:
            out.write(result.metrics_csv)
    return 0


def _cmd_detect(args) -> int:
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            graph = GlobalWaitForGraph.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"cannot read graph: {exc}", file=sys.stderr)
        return 2
    verdict = detect(graph, live=lambda dxid: True)
    if args.trace:
        for step in verdict.steps:
            print(step.describe())
    if verdict.outcome is Outcome.CLEAN:
        print("CLEAN")
        return 0
    cycle = find_cycle(verdict.residual)
    print("DEADLOCK " + " ".join(str(v) for v in cycle))
    return 2


def _cmd_netdeadlock(args) -> int:
    result = run_join_scenario(
        n_segments=args.segments,
        capacity=args.buffer,
        prefetch=args.prefetch == "on",
    )
    print(result.describe())
    return 0 if result.outcome is JoinOutcome.COMPLETED else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htapsim",
        description="MPP transaction kernel simulator: deadlock detection, "
        "distributed snapshots, commit protocols, resource groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--segments", type=_positive_int, default=3)
    p_run.add_argument("--legacy-locking", action="store_true")
    p_run.add_argument("--gdd-period", type=_positive_int, default=100)
    p_run.add_argument("--out", help="write per-transaction metrics CSV")
    p_run.add_argument("--trace", help="write the event trace log")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a synthesized workload")
    p_bench.add_argument("--workload", choices=WORKLOADS, required=True)
    p_bench.add_argument("--clients", type=_positive_int, required=True)
    p_bench.add_argument("--ticks", type=_positive_int, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--segments", type=_positive_int, default=3)
    p_bench.add_argument("--legacy-locking", action="store_true")
    p_bench.add_argument("--gdd-period", type=_positive_int, default=100)
    p_bench.add_argument("--out", help="write per-transaction metrics CSV")
    p_bench.set_defaults(fn=_cmd_bench)

    p_detect = sub.add_parser("detect", help="run the detector on a graph file")
    p_detect.add_argument("--graph", required=True)
    p_detect.add_argument("--trace", action="store_true", help="print removal steps")
    p_detect.set_defaults(fn=_cmd_detect)

    p_net = sub.add_parser("netdeadlock", help="run the interconnect join scenario")
    # the join's built-in adversarial routing needs at least 3 segments
    p_net.add_argument("--segments", type=_int_at_least(3), default=3)
    p_net.add_argument("--buffer", type=_positive_int, default=2)
    p_net.add_argument("--prefetch", choices=("on", "off"), default="off")
    p_net.set_defaults(fn=_cmd_netdeadlock)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
