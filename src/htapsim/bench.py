"""Workload generators and the benchmark driver.

Closed-loop clients replay synthesized transactions on the simulated cluster
until the tick budget runs out; results report TPS, latency percentiles in
ticks, protocol mix, and message/fsync counts.  Absolute numbers are
tick-denominated and only meaningful as ratios between configurations.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from .sim import Cluster, SimConfig
# Not called here: perfbench's tracer looks `parse_sql` up in this module to
# count scenario parsing (ROADMAP item 2 moves that lookup).
from .steps import Step, parse_sql  # noqa: F401
from .store import Predicate, TableDef

WORKLOADS = ("update-only", "insert-only", "tpcb-like", "mixed-htap")


@dataclass
class BenchResult:
    workload: str
    clients: int
    ticks: int
    committed: int = 0
    aborted: int = 0
    tps: float = 0.0
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    max_inflight_updates: int = 0
    protocol_counts: dict[str, int] = field(default_factory=dict)
    group_latency_p50: dict[str, float] = field(default_factory=dict)
    metrics_csv: str = ""
    trace: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"workload={self.workload} clients={self.clients} ticks={self.ticks}",
            f"committed={self.committed} aborted={self.aborted} tps={self.tps:.4f}",
            f"latency_ticks p50={self.p50_latency:.1f} p95={self.p95_latency:.1f}",
            f"max_inflight_updates={self.max_inflight_updates}",
            f"protocols={dict(sorted(self.protocol_counts.items()))}",
        ]
        for group in sorted(self.group_latency_p50):
            lines.append(
                f"group={group} p50_latency={self.group_latency_p50[group]:.1f}"
            )
        return "\n".join(lines)


def default_htap_groups() -> list:
    """Equal-share split between the analytical and transactional groups."""
    from .resgroup import ResourceGroupConfig

    return [
        ResourceGroupConfig("olap_group", 10, 15, 20, cpu_rate_limit=20),
        ResourceGroupConfig("oltp_group", 50, 15, 20, cpu_rate_limit=20),
    ]


def percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return float(ordered[idx])


# every client's transactions share these; the simulator never changes a step.
# A step names no session, so the clients below leave their first parameter,
# `sid`, unread (as `olap_client` does `rng`); callers pass it positionally.
BEGIN = Step(0, "begin", "begin")
COMMIT = Step(0, "commit", "commit")


def _where_c1(keys: list[int]) -> list[Predicate]:
    """One `c1 = key` predicate per key, for a client to share between the
    statements it makes on that key."""
    return [Predicate({"c1": key}) for key in keys]


def _update(table: str, pred: Predicate, c2: int, cpu: int | None = None) -> Step:
    """An update of the row whose `c1` `pred` fixes."""
    return Step(
        0,
        "update",
        f"update {table} set c2={c2} where c1={pred.eqs['c1']}",
        table=table,
        pred=pred,
        set_c2=c2,
        cpu=cpu,
    )


def _insert(table: str, rows: list[tuple[int, int]]) -> Step:
    values = ",".join(f"({a},{b})" for a, b in rows)
    return Step(0, "insert", f"insert {table} values {values}", table=table, rows=rows)


def update_only_client(
    sid: str, idx: int, clients: int, rng: random.Random, keys: int, values=1000, cpu=None
):
    """Single-row updates to keys private to this client (no row conflicts),
    each setting `c2` to a value below `values` and costing `cpu` ticks."""
    own = _where_c1([k for k in range(keys) if k % clients == idx] or [idx])
    while True:
        pred = rng.choice(own)
        yield BEGIN
        yield _update("accounts", pred, rng.randrange(values), cpu)
        yield COMMIT


def insert_only_client(sid: str, idx: int, rng: random.Random, n_segments: int):
    """Per-transaction inserts that all route to one segment (1PC candidates)."""
    n = 0
    while True:
        key = idx * n_segments + (n % n_segments)  # constant within the txn
        yield BEGIN
        yield _insert("history", [(key, n + j) for j in range(3)])
        yield COMMIT
        n += 1


def tpcb_like_client(sid: str, idx: int, clients: int, rng: random.Random, scale):
    """Account/teller/branch updates plus a history insert per transaction.
    The client's teller and branch are fixed; its accounts are drawn from the
    whole table, so each account update builds its own predicate."""
    accounts, tellers, branches = scale
    teller, branch = _where_c1([idx % tellers, idx % branches])
    while True:
        a = rng.randrange(accounts)
        delta = rng.randrange(100)
        yield BEGIN
        yield _update("accounts", Predicate({"c1": a}), delta)
        yield _update("tellers", teller, delta)
        yield _update("branches", branch, delta)
        yield _insert("history", [(a, delta)])
        yield COMMIT


def olap_client(sid: str, rng: random.Random, scan_cpu: int):
    scan = Step(0, "select", "select bigtable", table="bigtable", pred=Predicate(), cpu=scan_cpu)
    while True:
        yield BEGIN
        yield scan
        yield COMMIT


def oltp_client(sid: str, idx: int, clients: int, rng: random.Random, keys: int):
    """`update_only_client`, with values below 100 and one tick of CPU each."""
    return update_only_client(sid, idx, clients, rng, keys, values=100, cpu=1)


def build(
    workload: str, clients: int, config: SimConfig | None = None, seed: int = 0
) -> Cluster:
    """The cluster that `bench` runs: `workload`'s tables, and `clients`
    closed-loop sessions whose generators draw from `seed`.

    Steps issue in eager order whatever `config` says, and `mixed-htap` gets
    `default_htap_groups()` when `config` names no resource groups.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    if clients < 1:
        raise ValueError("need at least one client")
    config = dataclasses.replace(config or SimConfig(), eager=True)
    if workload == "mixed-htap" and not config.resource_groups:
        config.resource_groups = default_htap_groups()
    cluster = Cluster(config)

    if workload == "update-only":
        keys = max(64, clients * 8)
        cluster.create_table(
            TableDef("accounts"), [(k, 0) for k in range(keys)]
        )
        for i in range(clients):
            sid = f"c{i:03d}"
            cluster.add_session(
                sid, step_iter=update_only_client(sid, i, clients, random.Random(seed + i), keys)
            )
    elif workload == "insert-only":
        cluster.create_table(TableDef("history"))
        for i in range(clients):
            sid = f"c{i:03d}"
            cluster.add_session(
                sid,
                step_iter=insert_only_client(sid, i, random.Random(seed + i), config.n_segments),
            )
    elif workload == "tpcb-like":
        scale = (100 * max(1, clients // 4 + 1), 10, max(1, clients // 8 + 1))
        accounts, tellers, branches = scale
        cluster.create_table(TableDef("accounts"), [(k, 0) for k in range(accounts)])
        cluster.create_table(TableDef("tellers"), [(k, 0) for k in range(tellers)])
        cluster.create_table(TableDef("branches"), [(k, 0) for k in range(branches)])
        cluster.create_table(TableDef("history"))
        for i in range(clients):
            sid = f"c{i:03d}"
            cluster.add_session(
                sid, step_iter=tpcb_like_client(sid, i, clients, random.Random(seed + i), scale)
            )
    else:  # mixed-htap: OLAP scans and OLTP point updates in separate groups
        group_names = sorted(cluster.resources.configs)
        olap_group = next((g for g in group_names if "olap" in g), group_names[0])
        oltp_group = next((g for g in group_names if "oltp" in g), group_names[-1])
        keys = max(64, clients * 4)
        cluster.create_table(TableDef("accounts"), [(k, 0) for k in range(keys)])
        cluster.create_table(TableDef("bigtable"), [(k, k) for k in range(30)])
        olap_clients = max(1, clients // 2)
        oltp_clients = max(1, clients - olap_clients)
        for i in range(olap_clients):
            sid = f"olap{i:03d}"
            cluster.add_session(
                sid, group=olap_group, step_iter=olap_client(sid, random.Random(seed + i), 40)
            )
        for i in range(oltp_clients):
            sid = f"oltp{i:03d}"
            cluster.add_session(
                sid,
                group=oltp_group,
                step_iter=oltp_client(sid, i, oltp_clients, random.Random(seed + 1000 + i), keys),
            )

    return cluster


def bench(
    workload: str,
    clients: int,
    duration_ticks: int,
    config: SimConfig | None = None,
    seed: int = 0,
) -> BenchResult:
    cluster = build(workload, clients, config, seed)
    cluster.run(until_tick=duration_ticks)

    latencies = []
    group_lat: dict[str, list] = {}
    for sid in sorted(cluster.sessions):
        session = cluster.sessions[sid]
        commits = [
            lat
            for lat, outcome in zip(session.txn_latencies, session.outcomes)
            if outcome == "committed"
        ]
        latencies.extend(commits)
        if session.group:
            group_lat.setdefault(session.group, []).extend(commits)
    protocol_counts: dict[str, int] = {}
    for dxid in sorted(cluster.dtm.transactions):
        txn = cluster.dtm.transactions[dxid]
        if txn.protocol is not None and cluster.dtm.is_committed(dxid):
            name = txn.protocol.value
            protocol_counts[name] = protocol_counts.get(name, 0) + 1
    return BenchResult(
        workload=workload,
        clients=clients,
        ticks=duration_ticks,
        committed=cluster.committed_txns,
        aborted=cluster.aborted_txns,
        tps=cluster.committed_txns / duration_ticks if duration_ticks else 0.0,
        p50_latency=percentile(latencies, 0.5),
        p95_latency=percentile(latencies, 0.95),
        max_inflight_updates=cluster.max_inflight_updates,
        protocol_counts=protocol_counts,
        group_latency_p50={g: percentile(v, 0.5) for g, v in sorted(group_lat.items())},
        metrics_csv=cluster.metrics_csv(),
        trace=cluster.trace,
    )
