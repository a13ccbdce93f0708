"""Quadrant charts, local potentials, and the overlap-difference cocycle."""

import math

import numpy as np
import pytest

from locmech.atlas import (
    Atlas,
    Chart,
    PotentialEvaluator,
    PotentialSet,
    check_star_shaped,
    cocycle,
    exactness_test,
    gauge_shift,
    potential_gradient_report,
    quadrant_atlas,
)
from locmech.errors import (
    ChartMembershipError,
    CocycleConstancyError,
    NerveDisconnectedError,
    ValidationError,
)
from locmech.fields import from_components, vortex

TAU = math.tau
HALF_PI = math.pi / 2


def test_quadrant_atlas_membership():
    at = quadrant_atlas()
    assert at.ids == (1, 2, 3, 4)
    assert at.chart_for((2.0, 3.0)) == 1
    assert at.chart_for((-1.0, 0.5)) == 2
    assert at.chart_for((-0.1, -5.0)) == 3
    assert at.chart_for((4.0, -0.2)) == 4
    # Boundary points belong to the lowest-id quadrant that contains them.
    assert at.chart_for((0.0, 1.0)) == 1
    assert at.chart_for((-1.0, 0.0)) == 2
    assert at.chart_for((0.0, 0.0)) is None


def test_quadrant_atlas_covers_everything_but_the_origin():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5.0, 5.0, size=(200, 2))
    report = quadrant_atlas().covers(pts)
    assert report.covered
    report = quadrant_atlas().covers([(1.0, 1.0), (0.0, 0.0)])
    assert not report.covered
    assert report.missing == ((0.0, 0.0),)


def test_overlap_samples_live_on_the_open_half_axes():
    at = quadrant_atlas()
    pts = at.overlap_samples(1, 2)
    assert len(pts) >= 8
    for x, y in pts:
        assert x == 0.0 and y > 0.0
    pts = at.overlap_samples(1, 4)
    for x, y in pts:
        assert y == 0.0 and x > 0.0
    # Opposite quadrants meet only at the puncture, so they do not overlap.
    assert len(at.overlap_samples(1, 3)) == 0
    assert len(at.overlap_samples(2, 4)) == 0
    assert not at.triple_overlap_nonempty(1, 2, 3)


def test_quadrant_charts_are_star_shaped():
    at = quadrant_atlas()
    for cid in at.ids:
        report = check_star_shaped(at.charts[cid], samples=300)
        assert report.passed
        assert report.checked == 300


def test_chart_first_exit_crosses_linear_walls_exactly():
    ch = quadrant_atlas().charts[1]
    s = ch.first_exit((1.0, 1.0), (-1.0, 1.0))
    assert s == pytest.approx(0.5, abs=1e-12)
    assert ch.first_exit((1.0, 1.0), (0.5, 2.0)) is None


def test_chart_validation():
    with pytest.raises(ValidationError):
        Chart(1, [(0, 0, 0)], (1, 1))
    with pytest.raises(ValidationError):
        # Basepoint sits on the constraint boundary.
        Chart(1, [(1, 0, 0)], (0.0, 1.0))
    with pytest.raises(ValidationError):
        Atlas([Chart(1, [(1, 0, 0)], (1, 0)), Chart(1, [(0, 1, 0)], (0, 1))])


def test_vortex_potential_matches_polar_angle_in_first_quadrant():
    # With basepoint (1, 1) the potential is -(theta - pi/4) up to gauge.
    field = vortex()
    pot = PotentialEvaluator(field, quadrant_atlas().charts[1])
    for theta in (0.1, 0.5, 1.0, 1.4):
        q = (2.0 * math.cos(theta), 2.0 * math.sin(theta))
        assert pot(q) == pytest.approx(-(theta - math.pi / 4), abs=1e-9)
    assert pot((1.0, 1.0)) == 0.0


def test_potential_rejects_points_outside_the_chart():
    pot = PotentialEvaluator(vortex(), quadrant_atlas().charts[1])
    with pytest.raises(ChartMembershipError):
        pot((-1.0, 1.0))


def test_exact_field_potential_oracle():
    # f = 2x dx + 2y dy has V(q) = -(x^2 + y^2) + const; chart 1 is
    # normalized to vanish at its basepoint (1, 1).
    ps = PotentialSet.from_field(from_components("2*x", "2*y"), quadrant_atlas())
    assert ps.value(1, (2.0, 0.0)) == pytest.approx(-(4.0 - 2.0), abs=1e-10)
    assert ps.value(1, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_vortex_cocycle_constants():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    cc = cocycle(ps)
    assert cc.pairs() == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert cc.value(1, 2) == pytest.approx(-HALF_PI, abs=1e-9)
    assert cc.value(2, 3) == pytest.approx(-HALF_PI, abs=1e-9)
    assert cc.value(3, 4) == pytest.approx(-HALF_PI, abs=1e-9)
    assert cc.value(1, 4) == pytest.approx(HALF_PI, abs=1e-9)
    assert cc.value(2, 1) == -cc.value(1, 2)
    assert max(cc.spreads.values()) < 1e-12
    assert cc.cycle_sum((1, 2, 3, 4, 1)) == pytest.approx(-TAU, abs=1e-9)
    with pytest.raises(ValidationError):
        cc.value(1, 3)


def test_gauge_shift_moves_cocycle_entries():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    shifted = gauge_shift(ps, {1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0})
    cc = cocycle(shifted)
    assert cc.value(1, 2) == pytest.approx(1.0 - HALF_PI, abs=1e-9)
    # The cycle sum is gauge-invariant.
    assert cc.cycle_sum((1, 2, 3, 4, 1)) == pytest.approx(-TAU, abs=1e-9)


def test_exactness_split():
    vortex_cc = cocycle(PotentialSet.from_field(vortex(), quadrant_atlas()))
    res = exactness_test(vortex_cc)
    assert not res.exact
    assert len(res.periods) == 1
    assert res.periods[0].period == pytest.approx(-TAU, abs=1e-8)

    gauges = {1: 0.3, 2: -1.1, 3: 0.0, 4: 2.5}
    exact_ps = PotentialSet.from_field(
        from_components("2*x", "2*y"), quadrant_atlas(), gauges=gauges
    )
    res = exactness_test(cocycle(exact_ps))
    assert res.exact
    # Shifting by -offsets should zero every cocycle entry.
    fixed = gauge_shift(exact_ps, {k: -v for k, v in res.offsets.items()})
    cc0 = cocycle(fixed)
    assert max(abs(cc0.value(i, j)) for i, j in cc0.pairs()) < 1e-7


def test_cocycle_rejects_nonclosed_fields():
    ps = PotentialSet.from_field(from_components("0", "x"), quadrant_atlas())
    with pytest.raises(CocycleConstancyError):
        cocycle(ps)


def test_disconnected_nerve_is_reported():
    # Two charts confined to opposite quadrants never meet.
    at = Atlas([
        Chart(1, [(1, 0, 1), (0, 1, 1)], (2.0, 2.0)),
        Chart(2, [(-1, 0, 1), (0, -1, 1)], (-2.0, -2.0)),
    ])
    ps = PotentialSet.from_field(from_components("2*x", "2*y"), at)
    with pytest.raises(NerveDisconnectedError):
        exactness_test(cocycle(ps, at))


def test_potential_gradients_recover_the_field():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    report = potential_gradient_report(ps, samples=40)
    assert report.checked == 160
    assert report.max_error < 1e-5
