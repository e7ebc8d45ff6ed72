"""Trace kinds: each is declared once, with an arity that its template keeps."""

import inspect
import string

import pytest

from htapsim.trace import KINDS, TICK, Kind, render


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


ONE = Kind("one", "x={}", 1)
NONE = Kind("none", "nothing", 0)


def test_render_reads_each_event_by_its_arity():
    log = [TICK, 3, -1, ONE, "a", TICK, 4, 0, NONE, TICK, 5, "driver", ONE, (1, 2)]
    assert render(log) == (
        ["3|coord|one|x=a", "4|seg0|none|nothing", "5|driver|one|x=(1, 2)"],
        5,
    )


def test_render_starts_at_the_tick_carried_over_from_an_earlier_read():
    """Events before the log's first mark happen at the tick the previous
    read of the trace ended at."""
    log = [0, NONE, 1, ONE, "b", TICK, 9, 2, NONE]
    assert render(log, 7) == (["7|seg0|none|nothing", "7|seg1|one|x=b", "9|seg2|none|nothing"], 9)


def test_render_reads_tick_marks_with_no_event_between_them():
    assert render([TICK, 3, TICK, 6, -1, NONE]) == (["6|coord|none|nothing"], 6)
    assert render([TICK, 3, TICK, 6], 2) == ([], 6)
