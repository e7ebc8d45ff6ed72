"""Trace kinds: each is declared once, with an arity that its template keeps."""

import inspect
import string

import pytest

from htapsim.trace import KINDS, Kind, render


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_template_takes_arity_arguments(kind):
    """A `str.format` template has exactly `arity` fields, and a detail
    function takes exactly `arity` arguments."""
    if type(kind.template) is str:
        fields = [f for _, f, _, _ in string.Formatter().parse(kind.template) if f is not None]
        assert len(fields) == kind.arity
    else:
        assert len(inspect.signature(kind.template).parameters) == kind.arity


def test_kind_names_are_unique():
    names = [k.name for k in KINDS]
    assert len(names) == len(set(names))


def test_render_reads_each_event_by_its_arity():
    one = Kind("one", "x={}", 1)
    none = Kind("none", "nothing", 0)
    log = [3, -1, one, "a", 4, 0, none, 5, "driver", one, (1, 2)]
    assert render(log) == ["3|coord|one|x=a", "4|seg0|none|nothing", "5|driver|one|x=(1, 2)"]
