"""Command-line checks: bad counts end in an argparse error, and every
command runs end to end."""

import json
from pathlib import Path

import pytest

from htapsim.cli import main

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


def test_valid_counts_still_run(capsys):
    assert main(BENCH) == 0
    assert "workload=tpcb-like clients=2 ticks=10" in capsys.readouterr().out
    assert main(["run", SCENARIO, "--segments", "3"]) == 0


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
