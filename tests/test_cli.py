"""Command-line argument checks: bad counts end in an argparse error."""

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
    ],
)
def test_count_below_one_is_an_argument_error(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be at least 1" in err


def test_non_number_count_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(BENCH[:4] + ["many"] + BENCH[5:])
    assert exc.value.code == 2
    assert "argument --clients: invalid int value: 'many'" in capsys.readouterr().err


def test_valid_counts_still_run(capsys):
    assert main(BENCH) == 0
    assert "workload=tpcb-like clients=2 ticks=10" in capsys.readouterr().out
    assert main(["run", SCENARIO, "--segments", "3"]) == 0
