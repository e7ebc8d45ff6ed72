import os
import subprocess
import sys

import pytest

import htapsim
from htapsim.scenario import (
    ScenarioError,
    load_scenario,
    parse_cpuset,
    parse_predicate,
    parse_scenario,
    parse_sql,
)


class TestSqlGrammar:
    def test_update_with_conjunction(self):
        step = parse_sql("update t1 set c2=5 where c1=3 and c2=7", 1)
        assert step.kind == "update"
        assert step.table == "t1"
        assert step.set_c2 == 5
        assert step.pred.eqs == {"c1": 3, "c2": 7}

    def test_update_without_where_matches_all(self):
        step = parse_sql("update t set c2=0", 1)
        assert step.pred.eqs == {}

    def test_update_of_distribution_key_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_sql("update t set c1=5 where c2=1", 1, line=12)
        assert "line 12" in str(err.value)
        assert "distribution key" in str(err.value)

    def test_insert_multi_values(self):
        step = parse_sql("insert t values (1, 2), (3, 4)", 1)
        assert step.rows == [(1, 2), (3, 4)]

    def test_select_and_lock(self):
        assert parse_sql("select t where c2=7", 1).pred.eqs == {"c2": 7}
        assert parse_sql("lock t2", 1).table == "t2"

    def test_garbage_raises_with_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_sql("drop table students", 1, line=33)
        assert "line 33" in str(err.value)

    def test_bad_condition_column(self):
        with pytest.raises(ScenarioError):
            parse_predicate("c3=1", 5)

    def test_repeated_equal_condition_is_one_condition(self):
        assert parse_sql("select t where c1=1 and c2=7 and c1=1", 1).pred.eqs == {
            "c1": 1,
            "c2": 7,
        }


class TestCpuset:
    def test_range(self):
        assert parse_cpuset("0-3") == frozenset({0, 1, 2, 3})

    def test_mixed(self):
        assert parse_cpuset("0-2,8,10-11") == frozenset({0, 1, 2, 8, 10, 11})

    def test_empty_chunks_are_skipped(self):
        assert parse_cpuset("0, ,2,") == frozenset({0, 2})


class TestScenarioDocument:
    def test_full_document(self):
        scenario = parse_scenario(
            """
tables:
  - {name: t1, rows: [[1, 2]]}
groups:
  - {name: olap_group, CONCURRENCY: 10, MEMORY_LIMIT: 35, MEMORY_SHARED_QUOTA: 20, CPU_RATE_LIMIT: 20}
  - {name: pinned_group, CONCURRENCY: 50, MEMORY_LIMIT: 15, CPUSET: 0-3}
sessions:
  - id: A
    group: olap_group
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t1 set c2=9 where c1=1, mem: 100, cpu: 3}
      - {seq: 3, sql: commit}
expect:
  verdict: clean
  outcomes: {A: committed}
"""
        )
        assert scenario.tables[0].rows == [(1, 2)]
        assert scenario.groups[0].cpu_rate_limit == 20
        assert scenario.groups[1].cpuset == frozenset({0, 1, 2, 3})
        assert scenario.sessions[0].steps[1].mem == 100.0
        assert scenario.sessions[0].steps[1].cpu == 3
        assert scenario.expect.outcomes == {"A": "committed"}

    def test_yaml_error_carries_line_number(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("sessions:\n  - id: A\n   bad indent: [")
        assert "line 3" in str(err.value)

    def test_duplicate_seq_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(
                """
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 1, sql: commit}
"""
            )
        assert "duplicate seq 1" in str(err.value)

    def test_duplicate_session_id_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(
                """
sessions:
  - id: A
    steps: [{seq: 1, sql: begin}]
  - id: A
    steps: [{seq: 2, sql: begin}]
"""
            )
        assert "duplicate session id" in str(err.value)

    def test_unknown_group_parameter_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(
                """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE: 20}
"""
            )
        assert "CPU_RATE" in str(err.value)

    def test_bad_verdict_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("expect: {verdict: maybe}")

    def test_step_missing_fields(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(
                """
sessions:
  - id: A
    steps:
      - {sql: begin}
"""
            )
        assert "seq and sql" in str(err.value)

    def test_update_of_c2_distributed_table_rejected_with_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(
                """
tables:
  - {name: t, distributed_by: c2, rows: [[1, 5]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=6 where c1=1}
"""
            )
        assert "line 8" in str(err.value)
        assert "distribution key" in str(err.value)


MALFORMED = {
    "undeclared table": (
        """
tables:
  - {name: t1}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t2}
""",
        8,
        "unknown table 't2'",
    ),
    "statement before begin": (
        """
tables:
  - {name: t1}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: select t1}
      - {seq: 2, sql: begin}
""",
        7,
        "outside a transaction",
    ),
    "begin inside a transaction": (
        """
tables:
  - {name: t, rows: [[1, 0]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: update t set c2=5 where c1=1}
      - {seq: 3, sql: begin}
      - {seq: 4, sql: commit}
""",
        9,
        "begin inside an open transaction",
    ),
    "row not a list": (
        """
tables:
  - {name: t1, rows: [5]}
""",
        3,
        "rows must be (c1, c2) pairs",
    ),
    "zero concurrency": (
        """
groups:
  - {name: g, CONCURRENCY: 0, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
""",
        3,
        "concurrency",
    ),
    "distribution key not a column": (
        """
tables:
  - {name: t1, distributed_by: c3}
""",
        3,
        "distribution key 'c3'",
    ),
    "seq not a number": (
        """
sessions:
  - id: A
    steps:
      - {seq: x, sql: begin}
""",
        5,
        "seq must be a number",
    ),
    "step not a mapping": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps: [begin]
""",
        5,
        "each of steps must be a mapping",
    ),
    "table not a mapping": ("\ntables: [5]\n", 2, "each of tables must be a mapping"),
    "session not a mapping": ("\nsessions: [5]\n", 2, "each of sessions must be a mapping"),
    "group not a mapping": ("\ngroups: [5]\n", 2, "each of groups must be a mapping"),
    "expect not a mapping": ("\nexpect: 5\n", 2, "expect must be a mapping"),
    "tables not a list": ("\ntables: {name: t}\n", 2, "tables must be a list"),
    "outcomes not a mapping": (
        "\nexpect: {outcomes: [A]}\n", 2, "expect needs a list of victims and a mapping"
    ),
    "victims not a list": ("\nexpect: {victims: 5}\n", 2, "expect needs a list of victims"),
    "table name not a string": ("\ntables: [{name: [1]}]\n", 2, "table name must be a string"),
    "undeclared group": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
sessions:
  - id: A
    group: h
""",
        5,
        "unknown resource group 'h'",
    ),
    "group with none declared": (
        """
sessions:
  - id: A
    group: h
""",
        3,
        "unknown resource group 'h'",
    ),
    "negative cpu": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, cpu: -1}
""",
        8,
        "cpu must not be negative",
    ),
    "negative mem": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, mem: -0.5}
""",
        8,
        "mem must not be negative",
    ),
    # a NaN charge used to leave NaN in the shared memory layers
    "NaN mem": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, mem: .nan}
""",
        8,
        "mem must be finite, not nan",
    ),
    "infinite mem": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, mem: .inf}
""",
        8,
        "mem must be finite, not inf",
    ),
    # these used to run as the sessions "None", "[1, 2]" and "False"
    "null session id": ("\nsessions:\n  - id: ~\n", 3, "session id must be a string, not None"),
    "list session id": (
        "\nsessions:\n  - id: [1, 2]\n", 3, "session id must be a string, not [1, 2]"
    ),
    "boolean session id": (
        "\nsessions:\n  - id: false\n", 3, "session id must be a string, not False"
    ),
    "group name not a string": (
        """
groups:
  - {name: 5, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
sessions:
  - id: A
    group: 5
""",
        3,
        "group name must be a string, not 5",
    ),
    # a session without a group has no CPU share or memory quota to charge
    "cpu without a group": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, cpu: 40}
""",
        8,
        "session A has no resource group for cpu or mem",
    ),
    "mem without a group": (
        """
tables:
  - {name: t}
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, mem: 5000}
""",
        10,
        "session A has no resource group for cpu or mem",
    ),
    "duplicate table": (
        """
tables:
  - {name: t, rows: [[1, 1]]}
  - {name: t, rows: [[2, 2]]}
""",
        4,
        "duplicate table 't'",
    ),
    "unknown section": ("\nsteps: [begin]\n", 2, "unknown section 'steps'"),
    "unknown table key": ("\ntables: [{name: t, row: [[1, 1]]}]\n", 2, "unknown table key 'row'"),
    "unknown session key": (
        """
sessions:
  - id: A
    stepz:
      - {seq: 1, sql: begin}
""",
        3,
        "unknown session key 'stepz'",
    ),
    "unknown step key": (
        """
sessions:
  - id: A
    steps:
      - {seq: 1, sqll: begin}
""",
        5,
        "unknown step key 'sqll'",
    ),
    "unknown expect key": ("\nexpect: {verdit: clean}\n", 2, "unknown expect key 'verdit'"),
    "fractional seq": (
        """
sessions:
  - id: A
    steps:
      - {seq: 1.5, sql: begin}
""",
        5,
        "seq must be an integer, not 1.5",
    ),
    "boolean seq": (
        """
sessions:
  - id: A
    steps:
      - {seq: true, sql: begin}
""",
        5,
        "seq must be an integer, not True",
    ),
    "fractional cpu": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, cpu: 2.9}
""",
        8,
        "cpu must be an integer, not 2.9",
    ),
    "fractional row value": (
        "\ntables: [{name: t, rows: [[1.7, 2]]}]\n", 2, "a row value must be an integer, not 1.7"
    ),
    "fractional concurrency": (
        "\ngroups:\n  - {name: g, CONCURRENCY: 1.5, MEMORY_LIMIT: 10}\n",
        3,
        "CONCURRENCY must be an integer, not 1.5",
    ),
    "fractional cpu rate limit": (
        "\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20.5}\n",
        3,
        "CPU_RATE_LIMIT must be an integer, not 20.5",
    ),
    "boolean mem": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: select t, mem: true}
""",
        8,
        "mem must be a number, not True",
    ),
    "boolean memory limit": (
        "\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: true}\n",
        3,
        "MEMORY_LIMIT must be a number, not True",
    ),
    # checks over the whole group set name the later group at fault
    "duplicate group name": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
  - {name: h, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
""",
        5,
        "duplicate group name 'g'",
    ),
    "memory limits above 100%": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 60, CPU_RATE_LIMIT: 20}
  - {name: h, CONCURRENCY: 1, MEMORY_LIMIT: 50, CPU_RATE_LIMIT: 20}
""",
        4,
        "group memory limits exceed 100% of global memory",
    ),
    "overlapping cpusets": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "0-3"}
  - {name: h, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "3-7"}
""",
        4,
        "group h: cpuset overlaps another group",
    ),
    "cpuset outside the cores": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "30-32"}
""",
        3,
        "group g: cpuset outside 0..31",
    ),
    "cpuset with a reversed range": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "7-4,0"}
""",
        3,
        "reversed cpuset range '7-4'",
    ),
    "cpuset of one reversed range": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "3-1"}
""",
        3,
        "reversed cpuset range '3-1'",
    ),
    "cpuset as a list": (
        "\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: [0, 1]}\n",
        3,
        'CPUSET must be a string such as "0-3,8"',
    ),
    "cpuset of a negative core": (
        "\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: -1}\n",
        3,
        "CPUSET: '-1' is neither a core nor a range",
    ),
    "cpuset range without a high end": (
        '\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "0-"}\n',
        3,
        "CPUSET: '0-' is neither a core nor a range",
    ),
    "cpuset range of three ends": (
        '\ngroups:\n  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "1-2-3"}\n',
        3,
        "CPUSET: '1-2-3' is neither a core nor a range",
    ),
    "no core left for a share group": (
        """
groups:
  - {name: g, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "0-15"}
  - {name: s, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}
  - {name: h, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: "16-31"}
""",
        4,
        "group s: cpusets leave no core for CPU_RATE_LIMIT",
    ),
    "insert without value tuples": (
        """
tables:
  - {name: t}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: insert t values 5}
""",
        8,
        "insert without value tuples",
    ),
    "group missing a parameter": (
        "\ngroups:\n  - {name: g, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20}\n",
        3,
        "group missing parameter 'CONCURRENCY'",
    ),
    "list at the top level": ("- {name: t}\n", 1, "scenario must be a mapping"),
    "table without a name": ("\ntables: [{distributed_by: c1}]\n", 2, "table missing 'name'"),
    "session without an id": ("\nsessions: [{steps: []}]\n", 2, "session without id"),
    "insert with a malformed later tuple": (
        """
tables:
  - {name: t, rows: [[1, 10], [2, 20]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "insert t values (1,2), (3,4,5)"}
""",
        8,
        "bad insert values '(1,2), (3,4,5)'",
    ),
    "insert with text after the tuples": (
        """
tables:
  - {name: t, rows: [[1, 10], [2, 20]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "insert t values (1,2) (3,4)"}
""",
        8,
        "bad insert values '(1,2) (3,4)'",
    ),
    "select with conflicting conditions": (
        """
tables:
  - {name: t, rows: [[1, 10], [2, 20]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "select t where c1=1 and c1=2"}
""",
        8,
        "conflicting conditions on c1",
    ),
    "update with conflicting conditions": (
        """
tables:
  - {name: t, rows: [[1, 10], [2, 20]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "update t set c2=5 where c2=10 and c2=20"}
""",
        8,
        "conflicting conditions on c2",
    ),
    "update of an unknown column": (
        """
tables:
  - {name: t, rows: [[1, 10], [2, 20]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "update t set c3=1"}
""",
        8,
        "unknown column 'c3'",
    ),
    "update of c1 where c2 is the distribution key": (
        """
tables:
  - {name: t, distributed_by: c2, rows: [[1, 10]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "update t set c1=5"}
""",
        8,
        "only c2 can be set",
    ),
    "update of c1 on an undeclared table": (
        """
tables:
  - {name: t, rows: [[1, 10]]}
sessions:
  - id: A
    steps:
      - {seq: 1, sql: begin}
      - {seq: 2, sql: "update u set c1=5"}
""",
        8,
        "unknown table 'u'",
    ),
    "expected outcome of an undefined session": (
        "\nexpect: {outcomes: {A: [1]}}\n", 2, "expected outcome of 'A', which is no session"
    ),
    "expected outcome not a string": (
        """
sessions:
  - id: A
    steps: []
expect:
  outcomes: {A: [1]}
""",
        6,
        "expected outcome of session A must be a string, not [1]",
    ),
    "expected victim not a string": (
        """
sessions:
  - id: A
    steps: []
expect:
  victims: [[1]]
""",
        6,
        "expected victim must be a string, not [1]",
    ),
    "expected outcome of a session that is not a string": (
        """
sessions:
  - id: "1"
    steps: []
expect:
  outcomes: {1: committed}
""",
        6,
        "expected outcome's session must be a string, not 1",
    ),
    "expected victim of an undefined session": (
        "\nexpect: {victims: [B]}\n", 2, "expected victim 'B' is no session"
    ),
    "misspelt expected outcome": (
        """
sessions:
  - id: A
    steps: []
expect:
  outcomes: {A: comitted}
""",
        6,
        "expected outcome of session A is 'comitted', not one of",
    ),
    "expected abort for a reason the simulator never records": (
        """
sessions:
  - id: A
    steps: []
expect:
  outcomes: {A: aborted:serialisation}
""",
        6,
        "expected outcome of session A is 'aborted:serialisation', not one of",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_names_its_line(case):
    """Each of these used to escape `htapsim run` as a traceback."""
    text, line, fragment = MALFORMED[case]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert f"line {line}:" in str(err.value)
    assert fragment in str(err.value)


def test_integral_floats_are_integers():
    scenario = parse_scenario(
        """
tables:
  - {name: t, rows: [[1.0, 2.0]]}
groups:
  - {name: g, CONCURRENCY: 2.0, MEMORY_LIMIT: 10, CPU_RATE_LIMIT: 20.0}
  - {name: h, CONCURRENCY: 1, MEMORY_LIMIT: 10, CPUSET: 2.0}
sessions:
  - id: A
    group: g
    steps:
      - {seq: 1.0, sql: begin}
      - {seq: 2, sql: select t, cpu: 3.0}
"""
    )
    assert scenario.tables[0].rows == [(1, 2)]
    assert (scenario.groups[0].concurrency, scenario.groups[0].cpu_rate_limit) == (2, 20)
    assert scenario.groups[1].cpuset == frozenset({2})
    assert [(s.seq, s.cpu) for s in scenario.sessions[0].steps] == [(1, None), (2, 3)]
    assert all(type(v) is int for v in (*scenario.tables[0].rows[0], scenario.sessions[0].steps[1].cpu))


YAML_ON_DEMAND = """
import sys
import htapsim, htapsim.bench
print("yaml" in sys.modules)
try:
    htapsim.parse_scenario("sessions:\\n  - id: A\\n   bad indent: [")
except htapsim.ScenarioError as exc:
    print(str(exc).splitlines()[0])
print("yaml" in sys.modules)
"""


def test_yaml_is_imported_only_to_read_a_scenario():
    """Importing htapsim and its bench does not load PyYAML; the first
    scenario read does, and still reports bad YAML with its line."""
    src = os.path.dirname(os.path.dirname(htapsim.__file__))
    out = subprocess.run(
        [sys.executable, "-c", YAML_ON_DEMAND],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "False"
    assert out[1].startswith("line 3: invalid YAML: ")
    assert out[2] == "True"


def test_a_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path):
    """Used to end `htapsim run` in a UnicodeDecodeError traceback."""
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"tables:\n  - {name: t}\n# caf\xe9\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert str(err.value).startswith("line 3: not UTF-8: cannot decode byte 0xe9")


FRONT_END = ("htapsim.scenario", "htapsim.interconnect", "htapsim.cli", "json", "yaml")
LAZY_NAMES = {
    "scenario": (
        "Scenario", "ScenarioError", "ScenarioResult", "build_cluster",
        "load_scenario", "parse_scenario", "run_scenario",
    ),
    "interconnect": ("JoinOutcome", "run_join_scenario"),
}
COLD_START = f"""
import importlib, sys
import htapsim, htapsim.bench
print([name for name in {FRONT_END!r} if name in sys.modules])
for module, names in {LAZY_NAMES!r}.items():
    for name in names:
        value = getattr(htapsim, name)
        print(name, value is getattr(importlib.import_module("htapsim." + module), name))
print(hasattr(htapsim, "no_such_name"))
"""


def test_importing_htapsim_loads_only_the_simulator_core():
    """Importing htapsim and its bench loads neither the scenario reader, the
    interconnect model, the CLI, json nor PyYAML; each of the package's
    scenario and interconnect names still resolves, on first access, to its
    module's object, and an unknown name is still an AttributeError."""
    src = os.path.dirname(os.path.dirname(htapsim.__file__))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "[]"
    names = [name for names in LAZY_NAMES.values() for name in names]
    assert out[1:-1] == [f"{name} True" for name in names]
    assert out[-1] == "False"
