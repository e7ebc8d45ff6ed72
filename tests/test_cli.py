"""Command-line checks: bad counts end in an argparse error, and every
command runs end to end."""

import json
from pathlib import Path

import pytest

from htapsim.bench import bench
from htapsim.cli import main
from htapsim.scenario import load_scenario, run_scenario

SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "deadlock_two_txn.yaml")
BENCH = ["bench", "--workload", "tpcb-like", "--clients", "2", "--ticks", "10"]


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(BENCH[:4] + ["0"] + BENCH[5:], "--clients", id="bench-clients-0"),
        pytest.param(BENCH[:6] + ["-10"], "--ticks", id="bench-ticks-negative"),
        pytest.param(BENCH[:6] + ["0"], "--ticks", id="bench-ticks-0"),
        pytest.param(BENCH + ["--segments", "0"], "--segments", id="bench-segments-0"),
        pytest.param(BENCH + ["--gdd-period", "0"], "--gdd-period", id="bench-gdd-period-0"),
        pytest.param(["run", SCENARIO, "--segments", "0"], "--segments", id="run-segments-0"),
        pytest.param(
            ["run", SCENARIO, "--gdd-period", "0"], "--gdd-period", id="run-gdd-period-0"
        ),
        pytest.param(["netdeadlock", "--buffer", "0"], "--buffer", id="netdeadlock-buffer-0"),
    ],
)
def test_count_below_one_is_an_argument_error(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be at least 1" in err


@pytest.mark.parametrize("segments", ["0", "1", "2"])
def test_netdeadlock_needs_three_segments(segments, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["netdeadlock", "--segments", segments])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --segments: must be at least 3, not {segments}" in err


def test_non_number_count_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(BENCH[:4] + ["many"] + BENCH[5:])
    assert exc.value.code == 2
    assert "argument --clients: invalid int value: 'many'" in capsys.readouterr().err


def test_run_of_a_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    assert "cannot read scenario:" in capsys.readouterr().err


def test_valid_counts_still_run(capsys):
    assert main(BENCH) == 0
    assert "workload=tpcb-like clients=2 ticks=10" in capsys.readouterr().out
    assert main(["run", SCENARIO, "--segments", "3"]) == 0


def test_out_writes_the_metrics_csv(tmp_path, capsys):
    """`--out` writes exactly the run's `metrics_csv`, for `run` and `bench`."""
    out = tmp_path / "run.csv"
    assert main(["run", SCENARIO, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == run_scenario(load_scenario(SCENARIO)).metrics_csv
    out = tmp_path / "bench.csv"
    assert main(BENCH + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == bench("tpcb-like", 2, 10).metrics_csv


# strict order: C holds row 1 and never commits, so B blocks at seq 7, its
# commit at seq 8 waits, and A's second transaction (seq 9-11) never issues
UNISSUED_STEPS = """
tables:
  - {name: t, rows: [[1, 0], [2, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=1 where c1=2}
      - {seq: 3, sql: commit}
      - {seq: 9, sql: begin}
      - {seq: 10, sql: update t set c2=2 where c1=2}
      - {seq: 11, sql: commit}
  - id: B
    steps:
      - {seq: 5, sql: begin}
      - {seq: 7, sql: update t set c2=3 where c1=1}
      - {seq: 8, sql: commit}
  - id: C
    steps:
      - {seq: 4, sql: begin}
      - {seq: 6, sql: update t set c2=4 where c1=1}
expect:
  outcomes: {A: committed}
"""


def test_run_reports_a_session_with_unissued_steps_as_stalled(tmp_path, capsys):
    scenario, trace = tmp_path / "unissued.yaml", tmp_path / "trace.txt"
    scenario.write_text(UNISSUED_STEPS)
    assert main(["run", str(scenario), "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "session A: stalled" in captured.out.splitlines()
    assert "session B: stalled" in captured.out.splitlines()
    assert "session C: open" in captured.out.splitlines()
    assert "expectation failed: session A: outcome stalled, expected committed" in captured.err
    assert "|issue|seq=8 " not in trace.read_text()
    assert "|issue|seq=9 " not in trace.read_text()


GROUPS_RUN = """
groups:
  - {name: oltp, CONCURRENCY: 1, MEMORY_LIMIT: 10, %s}
  - {name: olap, CONCURRENCY: 1, MEMORY_LIMIT: 10, %s}
tables:
  - {name: t, rows: [[1, 0]]}
sessions:
  - id: A
    group: olap
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, cpu: 3}
      - {seq: 3, sql: commit}
"""


@pytest.mark.parametrize(
    "oltp_cpu, olap_cpu, message",
    [
        pytest.param(
            'CPUSET: "0-15"', 'CPUSET: "8-31"', "group olap: cpuset overlaps another group",
            id="overlap",
        ),
        # with every core in a cpuset, the select's CPU burst could never start
        pytest.param(
            'CPUSET: "0-31"', "CPU_RATE_LIMIT: 20",
            "group olap: cpusets leave no core for CPU_RATE_LIMIT", id="no-core",
        ),
    ],
)
def test_run_rejects_a_bad_group_set_with_its_line(oltp_cpu, olap_cpu, message, tmp_path, capsys):
    path = tmp_path / "groups.yaml"
    path.write_text(GROUPS_RUN % (oltp_cpu, olap_cpu))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: line 4: {message}\n"


def write_graph(tmp_path, edges) -> str:
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps(
            {
                "edges": [
                    {"segment": seg, "from": waiter, "to": holder, "kind": kind}
                    for seg, waiter, holder, kind in edges
                ]
            }
        )
    )
    return str(path)


# 1 waits for 2 on segment 0 and 2 for 1 on segment 1: a global cycle
DEADLOCKED = [(0, 1, 2, "solid"), (1, 2, 1, "solid")]
# 1 waits for 2, which waits on a tuple lock that 3 holds: reducible
CLEAN = [(0, 1, 2, "solid"), (0, 2, 3, "dotted")]


def test_detect_clean_graph(tmp_path, capsys):
    assert main(["detect", "--graph", write_graph(tmp_path, CLEAN)]) == 0
    assert capsys.readouterr().out == "CLEAN\n"


def test_detect_deadlocked_graph(tmp_path, capsys):
    assert main(["detect", "--graph", write_graph(tmp_path, DEADLOCKED)]) == 2
    assert capsys.readouterr().out == "DEADLOCK 1 2\n"


def test_detect_trace_prints_each_removal(tmp_path, capsys):
    assert main(["detect", "--graph", write_graph(tmp_path, CLEAN), "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "global out-degree of 3 is 0: remove vertex 3, drop edges [2..>3@seg0]",
        "global out-degree of 2 is 0: remove vertex 2, drop edges [1-->2@seg0]",
        "CLEAN",
    ]


SELF_LOOP = '{"edges": [{"segment": 0, "from": 1, "to": 1, "kind": "solid"}]}'
MISSPELLED_EDGES = (
    '{"edgse": [{"segment": 0, "from": 1, "to": 2, "kind": "solid"},'
    ' {"segment": 1, "from": 2, "to": 1, "kind": "solid"}]}'
)


@pytest.mark.parametrize(
    "content",
    [
        None,
        "not json",
        '{"edges": [{"segment": 0}]}',
        '[{"segment": 0, "from": 1, "to": 2, "kind": "solid"}]',
        '{"edges": [5]}',
        '{"edges": {"a": 1}}',
        SELF_LOOP,
        MISSPELLED_EDGES,
    ],
    ids=["missing", "not-json", "edge-missing-keys", "top-level-list", "edge-not-object",
         "edges-not-list", "self-loop", "edges-key-missing"],
)
def test_detect_unreadable_graph(content, tmp_path, capsys):
    path = tmp_path / "graph.json"
    if content is not None:
        path.write_text(content)
    assert main(["detect", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read graph: ")


def test_detect_long_cycle(tmp_path, capsys):
    n = 5000
    cycle = [(v % 3, v, v % n + 1, "solid") for v in range(1, n + 1)]
    assert main(["detect", "--graph", write_graph(tmp_path, cycle)]) == 2
    assert capsys.readouterr().out == "DEADLOCK " + " ".join(map(str, range(1, n + 1))) + "\n"


def test_netdeadlock_without_prefetch_stalls(capsys):
    assert main(["netdeadlock", "--prefetch", "off"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("STALLED")
    assert "waits for" in out


def test_netdeadlock_with_prefetch_completes(capsys):
    assert main(["netdeadlock", "--prefetch", "on", "--segments", "4"]) == 0
    assert capsys.readouterr().out.startswith("COMPLETED")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", SCENARIO, "--out"], id="run-out"),
        pytest.param(["run", SCENARIO, "--trace"], id="run-trace"),
        pytest.param(BENCH + ["--out"], id="bench-out"),
    ],
)
def test_unwritable_output_fails_before_the_run(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran: no verdict, no summary
    assert captured.err == f"cannot write {path}: No such file or directory\n"
