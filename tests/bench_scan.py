"""Scan and CPU-tick micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_scan.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Every case runs on a one-segment `Cluster` through public calls, with the
real visibility test, so it times any store layout:

- a full scan of N rows loaded by `create_table`, as loaded and after one
  committed update of every row;
- a point scan (`c1 = key`) of one row whose chain is L versions long, under
  a snapshot taken before its L - 1 committed updates, so the scan walks
  the whole chain back to the loaded version;
- `CpuScheduler.tick` with N running 40-tick bursts, each finished burst
  replaced by a new one, so N stay running;
- `CpuScheduler.tick` on N cores shared by two equal-weight share groups,
  as in `mixed-htap`: one group's bursts last 1 tick and the other's 40,
  each finished burst is resubmitted to its group, and each group keeps
  2N tasks, so demand stays above the cores and every tick picks.
"""

import pytest

from htapsim.resgroup import CpuScheduler, ResourceGroupConfig, ResourceGroups
from htapsim.sim import Cluster, SimConfig
from htapsim.store import Predicate, TableDef

ROWS = (30, 300, 3000)
CHAIN = (1, 16, 256)
RUNNING = (8, 32, 256)
TABLE = TableDef("t")


def loaded_segment(rows: int):
    cluster = Cluster(SimConfig(n_segments=1))
    cluster.create_table(TABLE, [(k, 0) for k in range(rows)])
    return cluster, cluster.segments[0]


def committed_update(cluster, seg, slot: int, c2: int) -> None:
    """Stamp the newest version of `slot` by a transaction that commits."""
    txn = cluster.dtm.begin(cluster.clock)
    local = seg.local_xid(txn)
    newest = seg.store.tables[TABLE.name][slot][-1]
    seg.store.stamp_and_append(TABLE.name, slot, newest, (newest.values[0], c2), local, 0)
    seg.states[local] = "committed"
    cluster.dtm.mark_committed(txn.dxid)
    del seg.xid_locks[local]  # its local end, with no lock in the table to release


@pytest.mark.parametrize("updated", [False, True], ids=["loaded", "updated"])
@pytest.mark.parametrize("rows", ROWS)
def test_full_scan(benchmark, rows, updated):
    cluster, seg = loaded_segment(rows)
    if updated:
        for slot in range(rows):
            committed_update(cluster, seg, slot, 1)
    vis = seg.visibility(cluster.dtm.current_snapshot())

    def one_scan():
        return seg.store.scan(TABLE, Predicate(), vis)

    found = benchmark(one_scan)
    assert [v.values[1] for _, v in found] == [int(updated)] * rows


@pytest.mark.parametrize("length", CHAIN)
def test_point_scan_under_an_old_snapshot(benchmark, length):
    cluster, seg = loaded_segment(30)
    # a live reader holds the old snapshot, so the writers' horizons stay at
    # its xmin and their mapping entries stay for it to read
    reader = cluster.dtm.begin(cluster.clock)
    old = seg.visibility(reader.snapshot, reader)
    for c2 in range(1, length):
        committed_update(cluster, seg, 7, c2)
    assert len(seg.store.tables[TABLE.name][7]) == length
    pred = Predicate({"c1": 7})

    def one_scan():
        return seg.store.scan(TABLE, pred, old)

    assert [v.values for _, v in benchmark(one_scan)] == [(7, 0)]


@pytest.mark.parametrize("running", RUNNING)
def test_cpu_tick(benchmark, running):
    groups = ResourceGroups(
        [ResourceGroupConfig("g", 10, 10, 20, cpu_rate_limit=20)], 1000.0, n_cores=running
    )
    sched = CpuScheduler(groups)
    for i in range(running):  # staggered ends, so every tick finishes a few
        sched.submit(i, "g", 1 + i % 40)
    sched.tick()

    def one_tick():
        for query in sched.tick():
            sched.submit(query, "g", 40)
        return sum(sched.group_running.values())

    benchmark(one_tick)
    assert sum(sched.group_running.values()) + len(sched.waiting["g"]) == running


@pytest.mark.parametrize("cores", RUNNING)
def test_cpu_tick_two_share_groups(benchmark, cores):
    groups = ResourceGroups(
        [
            ResourceGroupConfig("olap", 10, 10, 20, cpu_rate_limit=20),
            ResourceGroupConfig("oltp", 50, 10, 20, cpu_rate_limit=20),
        ],
        1000.0,
        n_cores=cores,
    )
    bursts = {"olap": 40, "oltp": 1}
    sched = CpuScheduler(groups)
    for group in bursts:
        for i in range(2 * cores):
            sched.submit((group, i), group, bursts[group])

    def one_tick():
        for query in sched.tick():
            sched.submit(query, query[0], bursts[query[0]])
        return sum(sched.group_running.values())

    assert benchmark(one_tick) == cores
    assert sum(sched.group_running.values()) + sum(map(len, sched.waiting.values())) == 4 * cores
