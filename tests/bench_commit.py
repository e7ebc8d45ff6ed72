"""Commit-path micro-benchmarks (pytest-benchmark), outside tier-1.

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run does not collect it.  Run it from the repository root with:

    PYTHONPATH=src python -m pytest tests/bench_commit.py -p no:cacheprovider

pyproject's `pythonpath = ["src"]` takes precedence over PYTHONPATH, so to
time another checkout, run from inside that checkout; the header line
"htapsim under test" names the copy being measured.

Every case drives a `Cluster` built in code, with no scenario, in eager issue
order and with the text trace off, one transaction per round:

- `test_update_only_transaction` times the `update-only` workload's
  transaction from its `begin`, through one point update, to the end of its
  one-phase commit;
- `test_two_phase_commit` times the commit of a transaction that updated one
  row on each of the 3 segments: the prepare round, the coordinator's fsync
  and the commit round.  Its `begin` and update run, untimed, in the round's
  setup;
- `test_abort_round` times the abort of such a transaction: the abort round
  over the 3 segments it touched, with the same untimed setup.

Each round leaves one more finished transaction and row version in the
cluster, as a run does.
"""

from htapsim.dtm import Protocol
from htapsim.scenario import parse_sql
from htapsim.sim import Cluster, SimConfig
from htapsim.store import TableDef

SID = "c000"


def cluster_with_session(rows) -> Cluster:
    cluster = Cluster(SimConfig(eager=True, trace_enabled=False))
    cluster.create_table(TableDef("accounts"), rows)
    cluster.add_session(SID)
    return cluster


def steps(*texts):
    return [parse_sql(text, 0) for text in texts]


def run_steps(cluster: Cluster, todo) -> None:
    """Give the session `todo` and run the cluster until it is done."""
    cluster.sessions[SID].step_iter = iter(todo)
    cluster.run()


def last_protocol(cluster: Cluster) -> Protocol:
    session = cluster.sessions[SID]
    assert session.outcomes[-1] == "committed" and session.txn is None
    return cluster.dtm.transactions[max(cluster.dtm.transactions)].protocol


def test_update_only_transaction(benchmark):
    """begin, `update accounts set c2=1 where c1=7`, commit: one segment."""
    cluster = cluster_with_session([(k, 0) for k in range(256)])
    txn = steps("begin", "update accounts set c2=1 where c1=7", "commit")
    benchmark(run_steps, cluster, txn)
    assert last_protocol(cluster) is Protocol.ONE_PHASE


def test_two_phase_commit(benchmark):
    """The commit of `update accounts set c2=1` over rows on 3 segments."""
    cluster = cluster_with_session([(0, 0), (1, 0), (2, 0)])
    write, commit = steps("begin", "update accounts set c2=1"), steps("commit")
    benchmark.pedantic(
        run_steps,
        args=(cluster, commit),
        setup=lambda: run_steps(cluster, write),
        rounds=2000,
    )
    assert last_protocol(cluster) is Protocol.TWO_PHASE
    assert sorted(cluster.dtm.transactions[max(cluster.dtm.transactions)].write_segments) == [0, 1, 2]


def test_abort_round(benchmark):
    """The abort of `update accounts set c2=1` over rows on 3 segments."""
    cluster = cluster_with_session([(0, 0), (1, 0), (2, 0)])
    write, abort = steps("begin", "update accounts set c2=1"), steps("abort")
    benchmark.pedantic(
        run_steps,
        args=(cluster, abort),
        setup=lambda: run_steps(cluster, write),
        rounds=2000,
    )
    session = cluster.sessions[SID]
    assert set(session.outcomes) == {"aborted:user"} and session.txn is None
    txn = cluster.dtm.transactions[max(cluster.dtm.transactions)]
    assert sorted(txn.write_segments) == [0, 1, 2]
