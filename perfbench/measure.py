"""Timed passes, traced passes, output checks and metrics for one workload.

A pass builds a fresh cluster and advances it through the workload's tick
budget in fixed windows of simulated ticks, timing each window in process
CPU time: the simulator is single-threaded, and on a shared host CPU time
varies less than wall time.  End-to-end metrics come from untraced passes; a
traced pass gives the per-layer metrics, and the ratio of its time to the
paired untraced pass's is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from htapsim.bench import bench, percentile
from htapsim.dtm import expected_accounting

import hostspeed
from tracer import Tracer
from workloads import CLIENTS, Workload

SETUP_PROBES = 9  # fresh processes timed per run; setup_s is their median
MIN_PASSES = 3  # untraced passes per run, however short --seconds is
HOST_SAMPLE_EVERY = 5  # advance windows between host-speed samples
PROBE = Path(__file__).with_name("setup_probe.py")
SPANS = Path(__file__).resolve().parent.parent / ".perfbench"  # traced runs' spans


@dataclass
class Pass:
    """One pass over the workload's tick budget."""

    cluster: object
    windows: list[float]  # CPU seconds per advance window
    wall_ns: int  # wall time of the windows
    host: list[float]  # host-speed kernel samples taken between windows

    @property
    def cpu_s(self) -> float:
        return sum(self.windows)

    @property
    def slowdown(self) -> float:
        return hostspeed.slowdown(self.host)

    @property
    def ref_s(self) -> float:
        """CPU seconds of the pass at the reference host speed."""
        return self.cpu_s / self.slowdown


def timed_pass(workload: Workload, seed: int, tracer: Tracer | None = None) -> Pass:
    gc.collect()  # garbage of the previous pass must not be collected inside this one
    cluster = workload.build(seed)
    windows, host, wall_ns = [], [], 0
    if tracer is not None:
        tracer.clock = lambda: cluster.clock
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        for k in range(1, workload.windows + 1):
            w0, t0 = time.perf_counter_ns(), time.process_time()
            cluster.run(until_tick=k * workload.window_ticks)
            windows.append(time.process_time() - t0)
            wall_ns += time.perf_counter_ns() - w0
            if k % HOST_SAMPLE_EVERY == 0:
                host.append(hostspeed.sample())
    return Pass(cluster, windows, wall_ns, host)


def setup_seconds(workload: Workload, seed: int) -> float:
    """Median CPU time to import htapsim and build the workload in a fresh
    process, at the reference host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(PROBE), workload.name, str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


# ------------------------------------------------------------ simulated outputs


def outputs(cluster) -> dict:
    """The simulated results of a run, as ``htapsim.bench.bench`` reports them."""
    latencies = []
    reasons: Counter = Counter()
    for sid in sorted(cluster.sessions):
        session = cluster.sessions[sid]
        reasons.update(session.outcomes)
        latencies.extend(
            lat
            for lat, outcome in zip(session.txn_latencies, session.outcomes)
            if outcome == "committed"
        )
    protocols: Counter = Counter()
    for dxid, acc in cluster.accounting.items():
        if acc.protocol is not None and cluster.dtm.is_committed(dxid):
            protocols[acc.protocol.value] += 1
    return {
        "begun": len(cluster.dtm.transactions),
        "committed": cluster.committed_txns,
        "aborted": cluster.aborted_txns,
        "outcomes": dict(sorted(reasons.items())),
        "p50_latency": percentile(latencies, 0.5),
        "p95_latency": percentile(latencies, 0.95),
        "protocol_counts": dict(sorted(protocols.items())),
        "max_inflight_updates": cluster.max_inflight_updates,
        "hung": len(hung_txns(cluster)),
    }


def hung_txns(cluster) -> set[int]:
    """Transactions waiting on a lock that nothing blocks: they never wake."""
    hung = set()
    for table in cluster.lock_tables.values():
        for req in table.waiting_requests():
            if not table.blockers_of(req):
                hung.add(req.txn)
    return hung


def chain_breaks(cluster) -> int:
    """Segments whose version chains fail ``check_chain_invariants``."""
    broken = 0
    for seg, store in cluster.stores.items():
        states = cluster.local_states[seg]
        try:
            store.check_chain_invariants(lambda lx: states.get(lx, "aborted"))
        except AssertionError:
            broken += 1
    return broken


# ----------------------------------------------------------------- checks


def check_against_bench(workload: Workload, seed: int, got: dict) -> list[str]:
    """The windowed run must reproduce ``bench()``'s one-shot run exactly."""
    ref = bench(workload.name, CLIENTS, workload.ticks, seed=seed)
    want = {
        "committed": ref.committed,
        "aborted": ref.aborted,
        "p50_latency": ref.p50_latency,
        "p95_latency": ref.p95_latency,
        "protocol_counts": dict(sorted(ref.protocol_counts.items())),
        "max_inflight_updates": ref.max_inflight_updates,
    }
    return check_same("windowed pass against bench()", want, got)


def check_cluster(cluster) -> list[str]:
    """Commit accounting matches the closed form; lock tables are consistent."""
    problems = []
    for dxid, acc in sorted(cluster.accounting.items()):
        if not cluster.dtm.is_committed(dxid):
            continue
        k = len(cluster.dtm.transactions[dxid].write_segments)
        messages, fsyncs = expected_accounting(acc.protocol, k)
        if +acc.messages != +messages or +acc.fsyncs != +fsyncs:
            problems.append(
                f"dxid {dxid} ({acc.protocol.value}, k={k}): messages "
                f"{dict(acc.messages)} fsyncs {dict(acc.fsyncs)}, expected "
                f"{dict(messages)} {dict(fsyncs)}"
            )
    for site, table in sorted(cluster.lock_tables.items()):
        try:
            table.check_invariants()
        except AssertionError as exc:
            problems.append(f"lock table {site}: {exc}")
    return problems


def check_same(label: str, want: dict, got: dict) -> list[str]:
    return [
        f"{label}: {key} {got.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


# ---------------------------------------------------------- measured passes


def passes(seconds: float, minimum: int):
    """Count passes: at least `minimum`, then while the next one is expected
    to end within `seconds` of the start."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        start = time.perf_counter()
        yield done
        done += 1
        took = time.perf_counter() - start
        if done >= minimum and time.perf_counter() + took > deadline:
            return


def untraced(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics from untraced passes, and their failed checks."""
    setup_s = setup_seconds(workload, seed)
    timed, problems, first = [], [], None
    for n in passes(seconds, MIN_PASSES):
        run = timed_pass(workload, seed)
        out = outputs(run.cluster)
        if first is None:
            first = out
            problems += check_cluster(run.cluster)
        problems += check_same(f"pass {n + 1}", first, out)
        run.cluster = None  # one cluster alive at a time
        timed.append(run)
    host = {
        "slowdown": statistics.median(p.slowdown for p in timed),
        "raw_run_s": statistics.median(p.cpu_s for p in timed),
    }
    return first, len(timed), problems, end_to_end(workload, timed, first, setup_s), host


def traced(workload: Workload, seed: int, seconds: float, names: list[str]):
    """Per-layer metrics from traced passes, each paired with an untraced
    pass, and their failed checks."""
    samples, problems, slowdowns = [], [], []
    for n in passes(seconds, 1):
        plain = timed_pass(workload, seed)
        want, digest = outputs(plain.cluster), plain.cluster.state_digest()
        if n == 0:
            problems += check_cluster(plain.cluster)
        plain.cluster = None
        tracer = Tracer()
        run = timed_pass(workload, seed, tracer)
        got = outputs(run.cluster)
        problems += check_same("traced pass", want, got)
        if run.cluster.state_digest() != digest:
            problems.append("traced pass: state_digest() differs from the untraced pass")
        samples.append(per_layer(names, tracer, run, plain.ref_s, got))
        slowdowns += [plain.slowdown, run.slowdown]
        run.cluster = None
    tracer.write_spans(SPANS / f"spans-{workload.name}-{seed}.jsonl")
    metrics = {name: statistics.median(s[name] for s in samples) for name in names}
    return want, len(samples), problems, metrics, {"slowdown": statistics.median(slowdowns)}


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict):
    """Measure one workload and check its outputs.

    Returns the simulated outputs, the number of timed passes, the failed
    checks, the metrics BENCHMARK.json names for the mode, with units, and
    the host's measured speed.
    """
    entries = spec["per_layer" if trace else "end_to_end"]
    names = [e["name"] for e in entries]
    if trace:
        out, n_passes, problems, values, host = traced(workload, seed, seconds, names)
    else:
        out, n_passes, problems, values, host = untraced(workload, seed, seconds)
    problems += check_against_bench(workload, seed, out)
    if sorted(values) != sorted(names):
        raise KeyError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    return out, n_passes, problems, metrics, host


# ---------------------------------------------------------------- metrics


def end_to_end(workload: Workload, timed: list[Pass], out: dict, setup_s: float) -> dict:
    run_s = statistics.median(p.ref_s for p in timed)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "txn_per_s": (out["committed"] + out["aborted"]) / run_s,
        "advance_ms_p50": statistics.median(
            1e3 * percentile(p.windows, 0.5) / p.slowdown for p in timed
        ),
        "advance_ms_p95": statistics.median(
            1e3 * percentile(p.windows, 0.95) / p.slowdown for p in timed
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_commits_per_ktick": 1000 * out["committed"] / workload.ticks,
        "sim_latency_p50_ticks": out["p50_latency"],
        "sim_latency_p95_ticks": out["p95_latency"],
        "commit_share": out["committed"] / out["begun"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    names: list[str], tracer: Tracer, run: Pass, untraced_s: float, out: dict
) -> dict:
    """The per-layer metrics named in `names` for one traced pass."""
    cluster = run.cluster
    t = tracer
    committed = [
        acc for dxid, acc in cluster.accounting.items() if cluster.dtm.is_committed(dxid)
    ]
    chains = [
        len(chain)
        for store in cluster.stores.values()
        for table in store.tables.values()
        for chain in table.values()
    ]
    still_waiting = sum(len(lt.waiting_requests()) for lt in cluster.lock_tables.values())
    snapshots = [len(txn.snapshot.in_progress) for txn in cluster.dtm.transactions.values()]
    special = {
        "dtm.begin.us_per_call": _ratio(1e6 * t.self_s("dtm.begin"), t.calls("dtm.begin")),
        "dtm.snapshot.in_progress_mean": _ratio(sum(snapshots), len(snapshots)),
        "dtm.commit.ro": out["protocol_counts"].get("ro", 0),
        "dtm.commit.1pc": out["protocol_counts"].get("1pc", 0),
        "dtm.commit.2pc": out["protocol_counts"].get("2pc", 0),
        "dtm.commit.messages_per_commit": _ratio(
            sum(sum(acc.messages.values()) for acc in committed), len(committed)
        ),
        "dtm.commit.fsyncs_per_commit": _ratio(
            sum(sum(acc.fsyncs.values()) for acc in committed), len(committed)
        ),
        "store.scan.rows_examined_per_returned": _ratio(t.rows_examined, t.rows_returned),
        "store.versions_per_lookup": _ratio(
            t.calls("dtm.visible"), t.calls("store.visible_version")
        ),
        "store.versions_per_row": _ratio(sum(chains), len(chains)),
        "store.chain_len_max": max(chains, default=0),
        "store.chain_breaks": chain_breaks(cluster),
        "locks.acquire.blocked_share": _ratio(t.acquire_blocked, t.calls("locks.acquire")),
        "locks.wait_ticks_p50": percentile(t.lock_waits, 0.5),
        "locks.wait_ticks_p95": percentile(t.lock_waits, 0.95),
        "locks.waits_abandoned": t.acquire_blocked - len(t.lock_waits) - still_waiting,
        "waitgraph.edges_per_collect": _ratio(t.collect_edges, t.calls("waitgraph.collect")),
        "gdd.deadlock_share": _ratio(t.deadlock_verdicts, t.calls("gdd.detect")),
        "gdd.victims": t.victims,
        "resgroup.admission_queued_share": _ratio(t.admission_queued, t.admitted),
        "resgroup.admission_wait_ticks_p95": percentile(t.admission_waits, 0.95),
        "resgroup.cpu_stretch": _ratio(sum(t.cpu_stretches), len(t.cpu_stretches)),
        "sim.events": t.events,
        "sim.events_per_s": t.events / untraced_s,
        "sim.self_s": (run.wall_ns - t.top_ns) / 1e9,
        "txn.begun": out["begun"],
        "txn.committed": out["committed"],
        "txn.aborted.serialization": out["outcomes"].get("aborted:serialization", 0),
        "txn.aborted.deadlock_victim": out["outcomes"].get("aborted:deadlock_victim", 0),
        "txn.hung": out["hung"],
        "trace.overhead": run.ref_s / untraced_s - 1,
    }
    metrics = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif stat == "calls" and span in t.totals:
            metrics[name] = t.calls(span)
        elif stat == "self_s" and span in t.totals:
            metrics[name] = t.self_s(span)
        else:
            raise KeyError(f"no per-layer metric {name!r}")
    return metrics
