"""Quadrant charts, covers of any puncture set, exact overlaps, local
potentials, and the overlap-difference cocycle."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from locmech import atlas
from locmech.atlas import (
    Atlas,
    Chart,
    PotentialEvaluator,
    PotentialSet,
    atlas_for,
    cocycle,
    exactness_test,
    gauge_shift,
    quadrant_atlas,
)
from locmech.errors import (
    ChartMembershipError,
    CocycleConstancyError,
    NerveDisconnectedError,
    NonFiniteError,
    ValidationError,
)
from locmech.fields import classify, from_components, vortex

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
    at = quadrant_atlas()
    rng = np.random.default_rng(42)
    xs, ys = rng.uniform(-5.0, 5.0, size=(2, 200))
    assert np.all(at.locate(xs, ys) < len(at.ids))
    assert at.locate(np.array([1.0, 0.0]), np.array([1.0, 0.0])).tolist() == [0, len(at.ids)]


@pytest.mark.parametrize("punctures", [((0.0, 0.0),), ((0.0, 0.0), (2.0, 0.5))])
def test_locate_agrees_with_chart_for_everywhere(punctures):
    # On every wall, a hair either side of it and at the tolerance, at
    # the punctures, at non-finite points and at random ones, the bulk test
    # names the same chart as the scalar one, or none where it names none.
    at = atlas_for(punctures)
    rng = np.random.default_rng(7)
    tol = atlas._CONSTRAINT_TOL
    pts = [rng.uniform(-4.0, 4.0, (500, 2))]
    for ch in at.charts.values():
        for a, b, c in ch.constraints:
            along = rng.uniform(-4.0, 4.0, (40, 1)) * (-b, a)
            for off in (0.0, tol / 2, -tol / 2, tol, -tol, 2 * tol, -2 * tol, 1e-3, -1e-3):
                pts.append((c + off) * np.array([a, b]) + along)
    bad = [math.nan, math.inf, -math.inf, 0.0, 1.0]
    pts.append(np.array(punctures))
    pts.append(np.array([(x, y) for x in bad for y in bad if not (math.isfinite(x)
                                                                   and math.isfinite(y))]))
    pts = np.concatenate(pts)
    got = at.locate(pts[:, 0], pts[:, 1])
    want = [at.chart_for(p) for p in pts.tolist()]
    assert [(at.ids + (None,))[k] for k in got.tolist()] == want
    assert want.count(None) >= len(punctures) + 16
    np.testing.assert_array_equal(pts[got == len(at.ids)],
                                  [p for p, w in zip(pts, want) if w is None])


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
    # A singular point strictly inside a chart is the only way to fail,
    # and the atlas refuses it by name; one on a corner or a wall is kept.
    def quadrant(s):
        return Chart(1, [(1, 0, 0), (0, 1, 0)], (1.0, 1.0), singular_points=(s,))
    with pytest.raises(ValidationError, match=r"\(2\.0, 3\.0\) lies inside chart 1"):
        Atlas([quadrant((2.0, 3.0))])
    for s in ((0.0, 0.0), (0.0, 5.0), (4.0, 0.0)):
        assert Atlas([quadrant(s)]).ids == (1,)
    # every chart is checked against the points that any chart lists
    with pytest.raises(ValidationError, match=r"\(0\.0, 0\.0\) lies inside chart 2"):
        Atlas([quadrant((0.0, 0.0)), Chart(2, [(-1, 0, -3)], (1.0, 1.0))])
    # A chart need not list the field's punctures: the potentials refuse it.
    holds_the_vortex = Atlas([Chart(1, [(1, 0, -5)], (1, 1))])
    for build in (lambda: PotentialSet.from_field(vortex(), holds_the_vortex),
                  lambda: classify(vortex(), holds_the_vortex)):
        with pytest.raises(ValidationError, match=r"\(0\.0, 0\.0\) lies inside chart 1"):
            build()


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
        assert pot.raw(q) == pytest.approx(-(theta - math.pi / 4), abs=1e-9)
    assert pot.raw((1.0, 1.0)) == 0.0


def test_potential_rejects_points_outside_the_chart():
    pot = PotentialEvaluator(vortex(), quadrant_atlas().charts[1])
    with pytest.raises(ChartMembershipError):
        pot.raw((-1.0, 1.0))


def test_values_match_point_queries_and_reuse_the_memo(count_rows):
    pts = [(2.0, 0.5), (0.0, 3.0), (1e-3, 1e-3), (4.0, 1e-7), (0.0, 3.0)]
    single = PotentialSet.from_field(vortex(), quadrant_atlas())
    want = [single.value(1, p) for p in pts]
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    batched = count_rows(atlas, "segment_integrals")
    one = count_rows(atlas, "segment_work")
    got = ps.values(1, pts)
    for v, w in zip(got, want):
        assert abs(v - w) <= 1e-15 * (1.0 + abs(w))
    assert batched == [4] and one == []     # the duplicate is integrated once
    assert np.array_equal(ps.values(1, pts[::-1]), got[::-1])
    assert [ps.value(1, p) for p in pts] == got.tolist()
    assert batched == [4] and one == []     # repeats are memo hits
    assert ps.values(1, np.empty((0, 2))).shape == (0,)


def test_values_check_every_point_before_integrating(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    monkeypatch.setattr(atlas, "segment_integrals", no_kernel)
    for outside in ((-1.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ChartMembershipError):
            ps.values(1, [(2.0, 0.5), outside, (0.5, 2.0)])


def test_values_many_refuses_the_first_point_outside_before_integrating(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    monkeypatch.setattr(atlas, "segment_integrals", no_kernel)
    for requests, named in [
        ([(1, [(2.0, 0.5)]), (2, [(-1.0, 1.0), (1.0, 1.0)]), (1, [(math.nan, 1.0)])],
         "point (1.0, 1.0) is outside chart 2"),
        ([(1, [(2.0, 0.5), (math.nan, 1.0)]), (2, [(1.0, 1.0)])],
         "point (nan, 1.0) is outside chart 1"),
        ([(4, [(1.0, -1.0)]), (3, [(0.0, 0.0)]), (2, [(1.0, 1.0)])],     # the puncture
         "point (0.0, 0.0) is outside chart 3"),
    ]:
        with pytest.raises(ChartMembershipError, match=re.escape(named)):
            ps.values_many(requests)
    assert all(not ev._cache for ev in ps.evaluators.values())


def test_values_many_integrates_each_chart_point_once_in_one_call(count_rows):
    q, r, s = (2.0, 0.5), (0.0, 3.0), (-1.5, 0.0)
    single = PotentialSet.from_field(vortex(), quadrant_atlas())
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    batched = count_rows(atlas, "segment_integrals")
    one = count_rows(atlas, "segment_work")
    got = ps.values_many([(1, [q, r]), (2, [r, s]), (1, [q]), (2, np.empty((0, 2)))])
    # q twice for chart 1 is one row; r for charts 1 and 2 is two
    assert batched == [4] and one == []
    assert [v.tolist() for v in got] == [[single.value(1, q), single.value(1, r)],
                                         [single.value(2, r), single.value(2, s)],
                                         [single.value(1, q)], []]
    ps.values_many([(2, [s]), (1, [r])])
    assert batched == [4]


def test_cocycle_makes_one_kernel_call(count_rows):
    batched = count_rows(atlas, "segment_integrals")
    one = count_rows(atlas, "segment_work")
    cocycle(PotentialSet.from_field(vortex(), quadrant_atlas()))
    assert batched == [2 * 4 * 32] and one == []


def cocycle_pair_by_pair(ps, samples=atlas.DEFAULT_OVERLAP_SAMPLES):
    """Entries and spreads as cocycle built them before its one kernel call:
    two PotentialSet.values calls per overlap, in pair order."""
    entries, spreads = {}, {}
    for i, j in itertools.combinations(ps.atlas.ids, 2):
        pts = ps.atlas.overlap_samples(i, j, samples)
        if len(pts):
            diffs = ps.values(i, pts) - ps.values(j, pts)
            entries[(i, j)] = float(np.mean(diffs))
            spreads[(i, j)] = float(np.max(diffs) - np.min(diffs))
    return entries, spreads


@pytest.mark.parametrize("build", [
    lambda: PotentialSet.from_field(vortex(), quadrant_atlas()),
    lambda: gauge_shift(PotentialSet.from_field(vortex(), quadrant_atlas()),
                        {1: 0.3, 2: -1.1, 3: 0.0, 4: 2.5}),
    lambda: PotentialSet.from_field(vortices(((0.0, 0.0), (3.0, 0.0)), (1.0, 0.5)),
                                    atlas_for(((0.0, 0.0), (3.0, 0.0)))),
    lambda: PotentialSet.from_field(
        vortices(((-1.5, 0.4), (0.3, -0.8), (2.2, 1.3)), (1.0, 0.5, -2.0)),
        atlas_for(((-1.5, 0.4), (0.3, -0.8), (2.2, 1.3)))),
])
@pytest.mark.parametrize("samples", [1, 32])
def test_cocycle_is_the_pair_by_pair_reference_bit_for_bit(build, samples):
    ps, ref = build(), build()
    cc = cocycle(ps, samples)
    entries, spreads = cocycle_pair_by_pair(ref, samples)
    assert (repr(cc.entries), repr(cc.spreads)) == (repr(entries), repr(spreads))
    assert [repr(ev._cache) for ev in ps.evaluators.values()] == \
        [repr(ev._cache) for ev in ref.evaluators.values()]


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
    with pytest.raises(CocycleConstancyError, match=r"V_1 - V_2 varies by 9\.412e-01 on overlap "
                                                    r"\(1,2\)"):
        cocycle(ps)


def test_a_kernel_refusal_on_a_later_overlap_wins_over_an_earlier_spread():
    # sqrt(y), x is not closed: V_1 - V_2 varies on the first overlap,
    # (1,2); the segments to the samples of (1,4) dip below y = 0, where
    # the field is NaN, and every overlap is integrated before the first
    # spread check
    ps = PotentialSet.from_field(from_components("sqrt(y)", "x"), quadrant_atlas())
    pts = ps.atlas.overlap_samples(1, 2)
    assert np.ptp(ps.values(1, pts) - ps.values(2, pts)) > atlas.COCYCLE_SPREAD_TOL
    with pytest.raises(NonFiniteError, match="non-finite field value"):
        cocycle(ps)


def test_disconnected_nerve_is_reported():
    # Two charts confined to opposite quadrants never meet.
    at = Atlas([
        Chart(1, [(1, 0, 1), (0, 1, 1)], (2.0, 2.0)),
        Chart(2, [(-1, 0, 1), (0, -1, 1)], (-2.0, -2.0)),
    ])
    ps = PotentialSet.from_field(from_components("2*x", "2*y"), at)
    with pytest.raises(NerveDisconnectedError):
        exactness_test(cocycle(ps))


# the quadrant table atlas_for replaced: (id, half-planes, basepoint)
QUADRANTS = (
    (1, ((1, 0, 0), (0, 1, 0)), (1.0, 1.0)),
    (2, ((-1, 0, 0), (0, 1, 0)), (-1.0, 1.0)),
    (3, ((-1, 0, 0), (0, -1, 0)), (-1.0, -1.0)),
    (4, ((1, 0, 0), (0, -1, 0)), (1.0, -1.0)),
)


@pytest.mark.parametrize("punctures", [((0.0, 0.0),), ()])
def test_atlas_for_one_puncture_at_the_origin_is_the_quadrant_atlas(punctures):
    at = atlas_for(punctures)
    assert [(cid, ch.constraints, ch.basepoint) for cid, ch in at.charts.items()] == \
        [(cid, hp, bp) for cid, hp, bp in QUADRANTS]
    assert all(ch.singular_points == punctures for ch in at.charts.values())


def vortices(points, strengths):
    """Sum of point vortices: circulation 2*pi*s about each point."""
    terms = [(f"({-s!r})*(y-({b!r}))", f"({s!r})*(x-({a!r}))", f"((x-({a!r}))^2+(y-({b!r}))^2)")
             for (a, b), s in zip(points, strengths)]
    return from_components("+".join(f"{u}/{r}" for u, _, r in terms),
                           "+".join(f"{v}/{r}" for _, v, r in terms), points)


@pytest.mark.parametrize("points, strengths", [
    (((2.0, 0.0),), (1.0,)),
    (((0.0, 0.0), (3.0, 0.0)), (1.0, 0.5)),
    (((-1.5, 0.4), (0.3, -0.8), (2.2, 1.3)), (1.0, 0.5, -2.0)),
    (((0.0, 0.0), (0.0, 2.0)), (1.0, -0.5)),                    # a shared x
    (((1.0, -1.0), (1.0, 2.5), (-2.0, 0.5)), (0.5, 1.0, -2.0)),
    (((0.0, 0.0), (1e-3, 0.0)), (1.0, 0.5)),                    # 1e-3 apart
    (((0.0, 0.0), (1e-12, 1.0)), (1.0, -1.0)),                  # x 1e-12 apart
])
def test_atlas_for_is_a_good_cover_of_any_puncture_set(points, strengths):
    field = vortices(points, strengths)
    assert classify(field) == "closed-not-exact"
    at = atlas_for(points)
    n = len(points)
    assert len(at.ids) == 2 * n + 2
    cc = cocycle(PotentialSet.from_field(field, at))
    assert len(cc.pairs()) == 3 * n + 1
    assert max(cc.spreads.values()) < 1e-12
    assert not any(at.triple_overlap_nonempty(*t) for t in itertools.combinations(at.ids, 3))
    assert len(exactness_test(cc).periods) == n
    for p, s in zip(points, strengths):
        # the four charts whose closures meet at p, counterclockwise about it
        around = [cid for cid, ch in at.charts.items()
                  if all(a * p[0] + b * p[1] - c >= -1e-12 for a, b, c in ch.constraints)]
        around.sort(key=lambda cid: math.atan2(at.charts[cid].basepoint[1] - p[1],
                                               at.charts[cid].basepoint[0] - p[0]))
        assert len(around) == 4
        assert cc.cycle_sum(around + around[:1]) == pytest.approx(-TAU * s, abs=1e-9)


def test_overlaps_are_exact():
    # Two corners that meet in a single point: a point overlap, unless
    # that point is a singular point.
    pair = [(1, [(1, 0, 0), (0, 1, 0)], (1.0, 1.0)),
            (2, [(-1, 0, 0), (0, -1, 0)], (-1.0, -1.0))]
    at = Atlas([Chart(*spec) for spec in pair])
    assert at.overlap_samples(1, 2, 5).tolist() == [[0.0, 0.0]] * 5
    at = Atlas([Chart(*spec, singular_points=((0.0, 0.0),)) for spec in pair])
    assert len(at.overlap_samples(1, 2)) == 0
    # A wedge far from both basepoints: the sample window grows to meet it.
    at = Atlas([Chart(1, [(-1, 1, 100)], (0.0, 101.0)), Chart(2, [(-1, -1, 100)], (0.0, -101.0))])
    pts = at.overlap_samples(1, 2)
    assert len(pts) == 32
    assert all(at.charts[1].contains(q) and at.charts[2].contains(q) for q in pts)
    assert float(np.max(pts[:, 0])) < -100.0
    # A singular point splitting a shared wall is an atlas fault named in
    # the error; one inside a shared region is inside both charts, which
    # the atlas refuses when it is built.
    halves = [Chart(1, [(1, 0, 0)], (1.0, 0.0), singular_points=((0.0, 2.0),)),
              Chart(2, [(-1, 0, 0)], (-1.0, 0.0), singular_points=((0.0, 2.0),))]
    with pytest.raises(ValidationError,
                       match=r"\(0\.0, 2\.0\) lies inside the overlap of charts \(1, 2\)"):
        Atlas(halves).overlap_samples(1, 2)
    slabs = [Chart(1, [(1, 0, 0)], (1.0, 0.0), singular_points=((0.5, 0.0),)),
             Chart(2, [(-1, 0, -1)], (0.0, 1.0), singular_points=((0.5, 0.0),))]
    with pytest.raises(ValidationError, match=r"\(0\.5, 0\.0\) lies inside"):
        Atlas(slabs)


# the overlap geometry as numpy computed it before it moved to Python
# floats; overlap_samples and triple_overlap_nonempty must give its bits
def _shape_numpy(poly):
    v = np.array(poly, dtype=float).reshape(-1, 2)
    if len(v) == 0:
        return v
    a = v[np.argmax(np.hypot(*(v - v[0]).T))]
    b = v[np.argmax(np.hypot(*(v - a).T))]
    length = math.hypot(*(b - a))
    if length <= atlas._CONSTRAINT_TOL:
        return v[:1]
    off = np.abs((v - a) @ (a[1] - b[1], b[0] - a[0])) / length
    return np.array([a, b]) if off.max() <= atlas._CONSTRAINT_TOL else v


def _splits_numpy(s, shape):
    if len(shape) != 2:
        return False
    a, b = shape
    e, d = (b - a) / math.hypot(*(b - a)), np.subtract(s, a)
    along = e @ d
    return (abs(e[0] * d[1] - e[1] * d[0]) <= atlas._CONSTRAINT_TOL
            and atlas._CONSTRAINT_TOL < along < math.hypot(*(b - a)) - atlas._CONSTRAINT_TOL)


def _meet_numpy(charts, k):
    tol = atlas._CONSTRAINT_TOL
    cons = [c for ch in charts for c in ch.constraints]
    singular = sorted(set().union(*(ch.singular_points for ch in charts)))
    anchors = [ch.basepoint for ch in charts] + singular
    corners = anchors + [(a * c, b * c) for a, b, c in cons]
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) > atlas._PARALLEL_TOL:
            corners.append(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det))
    far_lo, far_hi = np.min(corners, 0) - 1.0, np.max(corners, 0) + 1.0
    region = _shape_numpy(atlas._clip(cons, *map(float, far_lo), *map(float, far_hi)))
    for s in singular:
        if _splits_numpy(s, region):
            raise ValidationError(f"atlas fault: singular point {s} lies inside the "
                                  f"overlap of charts {tuple(ch.id for ch in charts)}")
    if len(region) == 0 or len(region) == 1 and any(
            math.dist(region[0], s) <= tol for s in singular):
        return np.empty((0, 2))
    lo, hi = np.min(anchors, 0) - 1.0, np.max(anchors, 0) + 1.0
    part = _shape_numpy(atlas._clip(cons, *map(float, lo), *map(float, hi)))
    while len(part) == 0 and (np.any(lo > far_lo) or np.any(hi < far_hi)):
        lo, hi = 2.0 * lo - hi, 2.0 * hi - lo
        part = _shape_numpy(atlas._clip(cons, *map(float, lo), *map(float, hi)))
    if len(part) == 0:
        part = region
    mid = part.mean(0)
    i = np.arange(k)
    t = (i // len(part) + 1) / (2 * (-(-k // len(part)) + 1))
    return mid + t[:, None] * (part[i % len(part)] - mid)


def _outcome(fn, *args):
    try:
        return repr(np.asarray(fn(*args)).tolist())
    except ValidationError as exc:
        return repr(exc)


coordinate = st.floats(-3.0, 3.0, allow_subnormal=False)


@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=3, unique=True))
@example([(-0.408, 0.2521435225193311), (-0.07, 2.0)])    # corners of (2,5) an ulp apart
@example([(0.0, 0.0)])
@example([(1.0, -1.0), (1.0, 2.5), (-2.0, 0.5)])
def test_overlap_geometry_is_the_numpy_reference_bit_for_bit(punctures):
    try:
        at = atlas_for(punctures)
    except ValidationError:
        return
    for i, j in itertools.combinations(at.ids, 2):
        pair = [at.charts[i], at.charts[j]]
        for k in (1, 5, 32):
            assert _outcome(at.overlap_samples, i, j, k) == _outcome(_meet_numpy, pair, k)
    for ids in itertools.combinations(at.ids, 3):
        assert _outcome(at.triple_overlap_nonempty, *ids) == _outcome(
            lambda *t: len(_meet_numpy([at.charts[c] for c in t], 1)) > 0, *ids)


@st.composite
def boxes(draw):
    """A turned rectangle about its centre, the basepoint."""
    cx, cy, turn = draw(coordinate), draw(coordinate), draw(st.floats(0.0, HALF_PI))
    half = [draw(st.floats(0.25, 2.0)) for _ in range(2)]
    walls = []
    for k in range(4):
        a, b = math.cos(turn + k * HALF_PI), math.sin(turn + k * HALF_PI)
        walls.append((a, b, a * cx + b * cy - half[k % 2]))
    return walls, (cx, cy)


@given(st.lists(boxes(), min_size=3, max_size=3))
def test_polygon_overlaps_are_the_numpy_reference_bit_for_bit(specs):
    # atlas_for's overlaps are segments; these are polygons of up to 8
    # corners, whose mean sums in numpy's order
    at = Atlas([Chart(cid, walls, base) for cid, (walls, base) in enumerate(specs, 1)])
    for ids in ((1, 2), (1, 3), (2, 3), (1, 2, 3)):
        for k in (1, 5, 32):
            assert _outcome(atlas._meet, [at.charts[c] for c in ids], k) == \
                _outcome(_meet_numpy, [at.charts[c] for c in ids], k)


def test_punctures_too_close_to_separate_are_refused_by_name():
    with pytest.raises(ValidationError, match=r"punctures \(0\.0, 0\.0\) and \(0\.0, 1e-12\)"):
        atlas_for(((0, 0), (0, 1e-12)))
    assert len(atlas_for(((0, 0), (0, 1e-3))).ids) == 6


def _two_vortices(p, q):
    terms = [(f"(y-({b!r}))", f"(x-({a!r}))", f"((x-({a!r}))^2+(y-({b!r}))^2)") for a, b in (p, q)]
    return from_components("+".join(f"-{u}/{r}" for u, _, r in terms),
                           "+".join(f"{v}/{r}" for _, v, r in terms), (p, q))


@pytest.mark.parametrize("d", [4e-9, 5e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6])
def test_close_punctures_classify(d):
    # a second puncture declared d to the right of the vortex: overlap
    # samples between the two used to end potential segments within
    # R_MIN_EVAL of a puncture (exit 2), for d up to about 6e-8 at the
    # default 32 samples and up to 1e-6 at 1 000
    field = from_components("-y/(x^2+y^2)", "x/(x^2+y^2)", ((0.0, 0.0), (d, 0.0)))
    assert classify(field) == "closed-not-exact"
    ps = PotentialSet.from_field(field, atlas_for(field.singular_points))
    assert max(cocycle(ps, samples=1000).spreads.values()) < 1e-12
    with pytest.raises(ValidationError, match="too close together"):
        atlas_for(((0.0, 0.0), (0.975 * 4e-9, 0.0)))


def test_close_punctures_away_from_the_origin_classify_or_are_refused_by_name():
    # rounding in the kernel's nodes near (0.3, -1.7) turns the angles read
    # between punctures 1e-8 apart by about 1e-7, the cocycle's tolerance
    p = (0.3, -1.7)
    for d in (1e-8, 5e-8):
        with pytest.raises(ValidationError, match="too close together") as refused:
            classify(_two_vortices(p, (p[0] + d, p[1])))
        assert "(0.3, -1.7)" in str(refused.value) and f"({p[0] + d!r}, -1.7)" in str(refused.value)
    for d in (1e-7, 1e-6):
        assert classify(_two_vortices(p, (p[0] + d, p[1]))) == "closed-not-exact"


def test_overlap_sample_count_is_capped_before_anything_is_allocated(monkeypatch):
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the sample count was checked")

    monkeypatch.setattr(atlas.np, "arange", no_alloc)
    monkeypatch.setattr(atlas.np, "empty", no_alloc)
    for samples in (0, atlas.MAX_OVERLAP_SAMPLES + 1, 10**12):
        with pytest.raises(ValidationError, match="samples must be in"):
            cocycle(ps, samples=samples)
