"""Transition factors t_ij = exp(c_ij), holonomy, and triviality tests."""

import math

import pytest

from locmech.atlas import PotentialSet, cocycle, quadrant_atlas
from locmech.bundle import (
    holonomy,
    is_trivial,
    transitions,
)
from locmech.errors import ValidationError
from locmech.fields import from_components, vortex

TAU = math.tau


def vortex_ts():
    return transitions(cocycle(PotentialSet.from_field(vortex(), quadrant_atlas())))


def exact_ts(gauges=None):
    ps = PotentialSet.from_field(
        from_components("2*x", "2*y"), quadrant_atlas(), gauges=gauges
    )
    return transitions(cocycle(ps))


def test_transition_factors_exponentiate_the_cocycle():
    ts = vortex_ts()
    for i, j in ts.edges():
        assert ts.factor(i, j) == pytest.approx(
            math.exp(ts.cocycle.value(i, j)), rel=1e-12
        )
        # Opposite orientations cancel exactly in the additive domain.
        assert ts.factor(i, j) * ts.factor(j, i) == pytest.approx(1.0, abs=1e-12)
    assert ts.factor(2, 2) == 1.0
    with pytest.raises(ValidationError):
        ts.factor(1, 3)


def test_vortex_holonomy_value():
    ts = vortex_ts()
    h = holonomy(ts, (1, 2, 3, 4, 1))
    assert h == pytest.approx(math.exp(-TAU), rel=1e-9)
    assert holonomy(ts, (1, 4, 3, 2, 1)) == pytest.approx(math.exp(TAU), rel=1e-9)
    # Backtracking edges cancel.
    assert holonomy(ts, (1, 2, 1)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        holonomy(ts, (1, 2, 3))


def test_vortex_bundle_is_nontrivial():
    report = is_trivial(vortex_ts())
    assert not report.trivial
    assert report.gauges is None


def test_exact_bundle_is_trivial_with_splitting_gauges():
    ts = exact_ts(gauges={1: 0.3, 2: -1.1, 3: 0.0, 4: 2.5})
    report = is_trivial(ts)
    assert report.trivial
    s = report.gauges
    assert all(v > 0.0 for v in s.values())
    for i, j in ts.edges():
        assert ts.factor(i, j) == pytest.approx(s[i] / s[j], rel=1e-9)

