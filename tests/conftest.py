import functools
import os

import pytest

import htapsim
from htapsim.locks import LockTable


def pytest_report_header(config):
    # pyproject's `pythonpath = ["src"]` goes ahead of PYTHONPATH, so name the
    # copy of htapsim these tests import
    return f"htapsim under test: {os.path.dirname(htapsim.__file__)}"


# LockTable methods that change lock state
_CHANGES = ("acquire", "release_all", "release_tuple_lock")


def _checked(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        self.check_invariants()
        return result

    return wrapper


@pytest.fixture
def checked_lock_tables(monkeypatch):
    """Run `LockTable.check_invariants()` after every lock-table change made
    during the test, so a bad grant fails at its first bad state rather than
    later as a hung session."""
    for name in _CHANGES:
        monkeypatch.setattr(LockTable, name, _checked(getattr(LockTable, name)))
