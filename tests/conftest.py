"""Shared test set-up: one hypothesis profile for every property test.

derandomize=True draws the same examples on every run, so a property
test either always passes or always fails; deadline=None keeps a slow
moment of a loaded machine from counting as a failure; no example
database is written.
"""

from hypothesis import settings

settings.register_profile("locmech", derandomize=True, deadline=None, database=None)
settings.load_profile("locmech")
