"""Every mutant in `tests/mutants.py` still fits the code it mutates.

`tests/mutants.py` runs outside the quick suite, so a refactor that moves a
mutant's old text or renames a test it names would otherwise show only when
someone runs that script.  These checks read files and run nothing.
"""

import re

import pytest

from mutants import MUTANTS, ROOT


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
