"""The benchmark's workloads, built through htapsim's public API.

Each builder makes the same cluster, tables and sessions that
``htapsim.bench.bench`` makes for the workload, so a windowed run of it can be
checked against ``bench()``'s one-shot run.  ``bench()`` itself cannot be
used for timing: it builds and runs to the end in one call, so neither set-up
nor single advance windows could be timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from htapsim import Cluster, SimConfig, TableDef
from htapsim.bench import (
    default_htap_groups,
    olap_client,
    oltp_client,
    tpcb_like_client,
    update_only_client,
)

CLIENTS = 32


def _config(seed: int) -> SimConfig:
    # SimConfig defaults as ``htapsim bench`` passes them, with the two fields
    # bench() sets itself; the text trace stays on, as it does there.
    return SimConfig(seed=seed, eager=True)


def _session_id(i: int) -> str:
    return f"c{i:03d}"


def build_update_only(seed: int) -> Cluster:
    cluster = Cluster(_config(seed))
    keys = max(64, CLIENTS * 8)
    cluster.create_table(TableDef("accounts"), [(k, 0) for k in range(keys)])
    for i in range(CLIENTS):
        sid = _session_id(i)
        cluster.add_session(
            sid,
            step_iter=update_only_client(sid, i, CLIENTS, random.Random(seed + i), keys),
        )
    return cluster


def build_tpcb_like(seed: int) -> Cluster:
    cluster = Cluster(_config(seed))
    scale = (100 * (CLIENTS // 4 + 1), 10, CLIENTS // 8 + 1)
    accounts, tellers, branches = scale
    cluster.create_table(TableDef("accounts"), [(k, 0) for k in range(accounts)])
    cluster.create_table(TableDef("tellers"), [(k, 0) for k in range(tellers)])
    cluster.create_table(TableDef("branches"), [(k, 0) for k in range(branches)])
    cluster.create_table(TableDef("history"))
    for i in range(CLIENTS):
        sid = _session_id(i)
        cluster.add_session(
            sid,
            step_iter=tpcb_like_client(sid, i, CLIENTS, random.Random(seed + i), scale),
        )
    return cluster


def build_mixed_htap(seed: int) -> Cluster:
    config = _config(seed)
    config.resource_groups = default_htap_groups()
    cluster = Cluster(config)
    keys = max(64, CLIENTS * 4)
    cluster.create_table(TableDef("accounts"), [(k, 0) for k in range(keys)])
    cluster.create_table(TableDef("bigtable"), [(k, k) for k in range(30)])
    olap_clients = CLIENTS // 2
    oltp_clients = CLIENTS - olap_clients
    for i in range(olap_clients):
        sid = f"olap{i:03d}"
        cluster.add_session(
            sid, group="olap_group", step_iter=olap_client(sid, random.Random(seed + i), 40)
        )
    for i in range(oltp_clients):
        sid = f"oltp{i:03d}"
        cluster.add_session(
            sid,
            group="oltp_group",
            step_iter=oltp_client(
                sid, i, oltp_clients, random.Random(seed + 1000 + i), keys
            ),
        )
    return cluster


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Cluster]
    ticks: int  # simulated tick budget of one run
    windows: int = 250  # advance windows per run: 12 of them lie beyond p95

    @property
    def window_ticks(self) -> int:
        return self.ticks // self.windows


WORKLOADS = {
    w.name: w
    for w in (
        Workload("update-only", build_update_only, 250),
        Workload("tpcb-like", build_tpcb_like, 500),
        Workload("mixed-htap", build_mixed_htap, 2000),
    )
}
