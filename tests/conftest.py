import functools

import pytest

from htapsim.locks import LockTable

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
