"""The tools outside the quick suite still fit the code they reach into.

`tests/mutants.py` and `perfbench` run outside the quick suite, so a
refactor that moves a mutant's old text, renames a test a mutant names, or
moves a name the tracer or the cost tests wrap would otherwise show only
when someone runs them.  These checks read files and change nothing.
"""

import re
import types

import pytest

from mutants import MUTANTS, ROOT
from test_costs import WRAPPED


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_edit_matches_its_file_once(mutant):
    text = (ROOT / mutant.file).read_text()
    for old, new in mutant.edits:
        assert text.count(old) == 1, f"{old!r} matches {text.count(old)} times in {mutant.file}"
        text = text.replace(old, new)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            name = name.split("[")[0]
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), test_id


def test_every_name_the_tracer_wraps_is_defined_on_its_owner():
    """`perfbench/tracer.py` finds each name it wraps in its owner's
    `__dict__`, so a name moved to another module or class, or renamed,
    breaks `perfbench/run.py --trace 1`.  The tracer's source is compiled
    here, so nothing is written under `perfbench/`."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    targets = tracer.Tracer()._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in targets if attr not in vars(owner)
    ]
    assert not missing, f"the tracer wraps names its owners do not define: {missing}"


def test_every_name_the_cost_tests_wrap_is_defined_on_its_owner():
    """`tests/test_costs.py` counts calls by wrapping names listed in its
    `WRAPPED`; a name moved off its owner would be wrapped there afresh, or
    counted from a parent class, and the count would read wrong."""
    missing = [f"{owner.__name__}.{attr}" for owner, attr in WRAPPED if attr not in vars(owner)]
    assert not missing, f"test_costs wraps names its owners do not define: {missing}"
