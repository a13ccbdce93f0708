"""Shared test set-up: one hypothesis profile for every property test,
and a counter of segment-kernel calls.

derandomize=True draws the same examples on every run, so a property
test either always passes or always fails; deadline=None keeps a slow
moment of a loaded machine from counting as a failure; no example
database is written.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("locmech", derandomize=True, deadline=None, database=None)
settings.load_profile("locmech")


@pytest.fixture
def count_rows(monkeypatch):
    """count_rows(module, name) wraps the kernel function module.name, called
    as name(field, a, points, ...); the returned list gets the number of
    points of every call."""
    def install(module, name):
        rows, original = [], getattr(module, name)

        def counted(field, a, b, *args):
            rows.append(len(np.reshape(b, (-1, 2))))
            return original(field, a, b, *args)

        monkeypatch.setattr(module, name, counted)
        return rows

    return install
