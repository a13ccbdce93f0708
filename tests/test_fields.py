"""Line integrals, winding numbers, and closedness probes for plane fields."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locmech import fields
from locmech.atlas import PotentialSet, quadrant_atlas
from locmech.cover import lift_path
from locmech.errors import (
    NonFiniteError,
    NumericError,
    RefinementLimitError,
    SingularityError,
    ValidationError,
)
from locmech.fields import (
    MAX_CLOSEDNESS_GRID,
    MAX_PATH_SEGMENTS,
    R_MIN_EVAL,
    ParametricPath,
    PolylinePath,
    angle_change,
    circle_path,
    classify,
    closest_approach,
    concatenate,
    from_components,
    is_closed,
    segment_integrals,
    segment_work,
    unwrapped_angle,
    vortex,
    winding_number,
    work,
    zero_field,
)
from locmech.exprlang import ScalarExpr

TAU = math.tau

SQUARE = PolylinePath([(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)])


def test_vortex_work_equals_winding_times_tau():
    field = vortex()
    for n in (-2, -1, 1, 2):
        loop = circle_path(0.0, 0.0, 1.3, turns=n)
        assert work(field, loop) == pytest.approx(TAU * n, abs=1e-7)
        assert winding_number(loop).number == n


def test_work_on_offcenter_loop_skipping_the_singularity():
    field = vortex()
    loop = circle_path(3.0, 0.0, 1.0)
    assert work(field, loop) == pytest.approx(0.0, abs=1e-7)
    assert winding_number(loop).number == 0


def test_square_loop_work_and_winding():
    field = vortex()
    assert work(field, SQUARE) == pytest.approx(TAU, abs=1e-7)
    wn = winding_number(SQUARE)
    assert wn.number == 1
    assert wn.residual < 1e-9


def test_work_is_additive_and_odd_under_reversal():
    field = vortex()
    a = PolylinePath([(1, 0), (1, 1), (0, 1)])
    b = PolylinePath([(0, 1), (-1, 1), (-1, 0)])
    joined = concatenate(a, b)
    total = work(field, joined)
    assert total == pytest.approx(work(field, a) + work(field, b), abs=1e-10)
    assert work(field, joined.reversed()) == pytest.approx(-total, abs=1e-10)


def test_work_is_reparametrization_invariant():
    field = vortex()
    plain = circle_path(0.0, 0.0, 1.0)
    # Same circle traced with strongly nonuniform speed.
    warped = ParametricPath(
        "cos(t - 0.8*sin(t))", "sin(t - 0.8*sin(t))", 0.0, TAU, 4000
    )
    assert work(field, warped) == pytest.approx(work(field, plain), abs=1e-7)


def test_segment_work_of_exact_field_is_potential_difference():
    field = from_components("2*x", "2*y")
    # Potential x^2 + y^2, so the chord integral is the endpoint difference.
    got = segment_work(field, (0.5, -1.0), (2.0, 3.0))
    assert got == pytest.approx((4.0 + 9.0) - (0.25 + 1.0), abs=1e-10)


@pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6])
def test_segment_work_passing_close_to_the_puncture(d):
    # The chord sweeps atan2(d, 1) - atan2(d, -1) about the origin; its
    # integrand peaks like 1/d at x = 0.
    got = segment_work(vortex(), (-1.0, d), (1.0, d))
    assert got == pytest.approx(math.atan2(d, 1.0) - math.atan2(d, -1.0), abs=1e-9)


def test_segment_work_of_an_oscillating_gradient():
    # grad of sin(3x) cos(2y) along a chord of length 5, far from any
    # singular point: no cut, so bisection on the Legendre tail does it all
    field = from_components("3*cos(3*x)*cos(2*y)", "-2*sin(3*x)*sin(2*y)")
    got = segment_work(field, (1.0, 1.0), (4.0, -3.0))
    exact = math.sin(12.0) * math.cos(-6.0) - math.sin(3.0) * math.cos(2.0)
    assert got == pytest.approx(exact, abs=1e-12)


def test_segment_integrals_batch_matches_single_segments():
    field, a = vortex(), (1.0, 1.0)
    bs = [(2.0, 0.5), (0.3, 1e-5), (1.0, 1.0), (-0.5, 6.0)]
    got = segment_integrals(field, a, bs)
    assert got.tolist() == [segment_work(field, a, b) for b in bs]
    exact = [math.atan2(y, x) - math.pi / 4 for x, y in bs]
    assert got == pytest.approx(exact, abs=1e-13)
    assert segment_integrals(field, a, np.empty((0, 2))).shape == (0,)
    # one start point per row
    starts = [(1.0, 1.0), (-2.0, 0.5), (0.3, -1e-5), (5.0, -4.0), (2.0, 2.0)]
    ends = [(2.0, 0.5), (1.5, 1e-6), (-0.4, -2.0), (-3.0, -1e-3), (2.0, 2.0)]
    got = segment_integrals(field, starts, ends)
    for v, a, b in zip(got, starts, ends):
        assert v == segment_work(field, a, b)
    # one start point given as a one-row array
    ends = [(2.0, 0.5), (0.5, 2.0)]
    got = segment_integrals(field, np.array([[1.0, 1.0]]), ends)
    assert got.tolist() == segment_integrals(field, (1.0, 1.0), ends).tolist()
    assert got.tolist() == [segment_work(field, (1.0, 1.0), b) for b in ends]


@settings(max_examples=30)
@given(n=st.sampled_from([2, 511, 512, 513, 2049]), seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from([vortex(), from_components("2*x", "-3*y"),
                              from_components("cos(y)", "-x*sin(y)")]))
def test_a_rows_integral_does_not_depend_on_its_batch(n, seed, field):
    # numpy's one-row matmuls round otherwise than its batches; a one-panel
    # call must not show it: a lone chord, or the last of 513 rows of one
    # panel each (2x dx - 3y dy), a block of its own after 512
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-2.0, 2.0, (2, n, 2))
    got = segment_integrals(field, a, b)
    for i in [n - 1, *rng.integers(0, n, 4).tolist()]:
        alone = segment_integrals(field, a[i], b[i:i + 1])[0]
        assert got[i] == alone == segment_work(field, tuple(a[i]), tuple(b[i]))


def test_a_memoized_potential_does_not_depend_on_the_batch_it_came_in():
    q = (1.225095466604667, 1.4972138009695755)     # a one-panel chord from (1, 1)
    fresh = PotentialSet.from_field(vortex(), quadrant_atlas())
    batched = PotentialSet.from_field(vortex(), quadrant_atlas())
    batched.values(1, [q, (1.5, 0.7)])
    assert fresh.value(1, q) == batched.value(1, q) == -0.09962770267178753


@pytest.mark.filterwarnings("error::RuntimeWarning")   # numpy's overflow stays inside
def test_segment_kernel_refusals():
    with pytest.raises(NonFiniteError):
        segment_work(vortex(), (1.0, 0.0), (math.nan, 1.0))
    with pytest.raises(NonFiniteError):
        segment_integrals(vortex(), (1.0, 1.0), [(2.0, 0.0), (math.inf, 0.0)])
    with pytest.raises(SingularityError):
        segment_work(vortex(), (-1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        segment_work(zero_field(), (0.0, 0.0), (1e6, 0.0))
    # row by row with a start point per row: a NaN start (exit 2), an
    # over-long segment (exit 1), a chord within r_min of the puncture (exit 2)
    for a, b, error in [
        ((math.nan, 0.0), (1.0, 1.0), NonFiniteError),
        ((0.0, 1.0), (2e5, 1.0), ValidationError),
        ((-1.0, 0.5 * R_MIN_EVAL), (1.0, 0.5 * R_MIN_EVAL), SingularityError),
    ]:
        with pytest.raises(error):
            segment_integrals(vortex(), [(1.0, 1.0), a], [(2.0, 0.5), b])
    # finite field values whose integrals pass the double range
    huge = from_components("1e308", "0")
    assert segment_work(huge, (0.0, 0.0), (1e-8, 0.0)) == pytest.approx(1e300, rel=1e-12)
    with pytest.raises(NonFiniteError):
        segment_work(huge, (0.0, 0.0), (10.0, 0.0))
    with pytest.raises(NonFiniteError):
        segment_integrals(huge, (0.0, 0.0), [(1.0, 0.0), (10.0, 0.0)])
    with pytest.raises(NonFiniteError):
        work(huge, circle_path(0.0, 0.0, 10.0))


def _swept(a, b, p=(0.0, 0.0)):
    """The angle the chord a -> b sweeps about p, from the exact cross and
    dot products of a - p and b - p: within an ulp or two of the truth."""
    ax, ay, bx, by = (Fraction(u) - Fraction(w) for u, w in zip((*a, *b), (*p, *p)))
    return math.atan2(float(ax * by - ay * bx), float(ax * bx + ay * by))


def test_a_fast_gradient_with_no_singular_point_is_refined_to_its_potential():
    # phi = sin(40x) cos(3y): no cut at all, so every panel comes from
    # bisection on the Legendre tail, up to about 25 waves per chord
    field = from_components("40*cos(40*x)*cos(3*y)", "-3*sin(40*x)*sin(3*y)")
    rng = np.random.default_rng(40)
    a, b = rng.uniform(-2.0, 2.0, (2, 500, 2))
    phi = np.sin(40.0 * b[:, 0]) * np.cos(3.0 * b[:, 1]) - np.sin(40.0 * a[:, 0]) * np.cos(3.0 * a[:, 1])
    got = segment_integrals(field, a, b)
    assert np.abs(got - phi).max() < 1e-12
    for k in range(0, 500, 50):
        assert segment_work(field, tuple(a[k]), tuple(b[k])) == got[k]


def test_two_punctures_1e_3_apart_sum_both_angles():
    points = ((0.0, 0.0), (1e-3, 0.0))
    field = from_components("-y/(x^2+y^2)-y/((x-1e-3)^2+y^2)",
                            "x/(x^2+y^2)+(x-1e-3)/((x-1e-3)^2+y^2)", points)
    rng = np.random.default_rng(3)
    a, b = (5e-4, 0.0) + rng.uniform(-0.01, 0.01, (2, 500, 2))
    clear = [min(closest_approach(p, q, c)[1] for c in points) > 1e-5 for p, q in zip(a, b)]
    a, b = a[clear], b[clear]
    exact = [sum(_swept(p, q, c) for c in points) for p, q in zip(a, b)]
    assert np.abs(segment_integrals(field, a, b) - exact).max() < 1e-13


def test_the_legendre_tail_bounds_the_error_on_vortex_chords(monkeypatch):
    # the tail |c_12| + ... + |c_15| of a lone panel bounds its error where
    # truncation dominates, the puncture 0.02 to 2 panel widths away ...
    for delta in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        sums, tail, _ = fields._panel_sums(vortex(), np.array([[[-0.5], [delta]], [[1.0], [0.0]]]))
        assert abs(sums[0] - _swept((-0.5, delta), (0.5, delta))) <= tail[0]
    # ... and summed over the panels the kernel keeps, it bounds the error
    # of whole chords, near the puncture and far from it
    kept, panel_sums = [], fields._panel_sums

    def recorded(*args):
        sums, tail, scale = panel_sums(*args)
        kept.extend(tail[tail <= fields._TAIL_TOL * scale])
        return sums, tail, scale

    monkeypatch.setattr(fields, "_panel_sums", recorded)
    rng = np.random.default_rng(12)
    for a, b in np.concatenate([rng.uniform(-3.0, 3.0, (400, 2, 2)),
                                rng.uniform(-0.01, 0.01, (400, 2, 2))]):
        if closest_approach(a, b, (0.0, 0.0))[1] < 1e-6:
            continue
        kept.clear()
        got = segment_work(vortex(), tuple(a), tuple(b))
        assert abs(got - _swept(a, b)) <= sum(kept)


@pytest.mark.parametrize("fx, end", [
    ("1/(x-1/3)", (1.0, 0.0)),      # a pole on the chord that nobody declared
    ("cos(1e5*x)", (100.0, 0.0)),   # a million waves along the chord
])
def test_an_unresolvable_integrand_exits_2_in_bounded_work(fx, end, monkeypatch):
    field = from_components(fx, "0")
    calls, eval_array = [], fields.FieldOneForm.eval_array

    def counted(self, xs, ys, r_min=R_MIN_EVAL):
        calls.append(len(xs))
        return eval_array(self, xs, ys, r_min)

    monkeypatch.setattr(fields.FieldOneForm, "eval_array", counted)
    for integrate in (segment_work, lambda f, a, b: segment_integrals(f, a, [b])):
        calls.clear()
        with pytest.raises(NumericError):
            integrate(field, (0.0, 0.0), end)
        # at most _MAX_REFINE_DEPTH + 1 rounds of at most
        # _MAX_SEGMENT_PANELS panels of 16 nodes
        assert sum(calls) <= (fields._MAX_REFINE_DEPTH + 1) * fields._MAX_SEGMENT_PANELS * 16
    with pytest.raises(RefinementLimitError):
        segment_work(field, (0.0, 0.0), end)


def _integral_of_atan(y):
    return y * math.atan(y) - 0.5 * math.log1p(y * y)


@pytest.mark.parametrize("fx, fy, a, b, exact", [
    # a kink where the integrand vanishes, 3/13 of the way along
    ("abs(x)", "0", (-0.3, 0.0), (1.0, 0.0), 0.545),
    # the atan2 branch cut, crossed 3/13 of the way along: a jump of 2 pi
    ("0", "atan2(y,x)", (-1.0, -0.3), (-1.0, 1.0),
     0.7 * math.pi - _integral_of_atan(1.0) + _integral_of_atan(-0.3)),
])
def test_a_kink_or_a_jump_off_the_dyadic_points_is_integrated(fx, fy, a, b, exact):
    # the panel holding it keeps its tail-to-scale ratio as it halves, and
    # is kept once its tail is small beside the whole chord's scale
    field = from_components(fx, fy)
    assert segment_work(field, a, b) == pytest.approx(exact, abs=1e-12)
    got = segment_integrals(field, [a, b], [b, a])
    assert got == pytest.approx([exact, -exact], abs=1e-12)


def test_segment_work_cuts_are_the_batch_rows_cuts_bit_for_bit():
    rng = np.random.default_rng(7)
    points = ((0.0, 0.0), (0.5, -0.25), (0.5 + 1e-7, -0.25))
    a = rng.uniform(-2.0, 2.0, (300, 2))
    b = np.concatenate([rng.uniform(-2.0, 2.0, (200, 2)), a[200:250],   # zero length
                        rng.uniform(-1e-6, 1e-6, (50, 2))])             # ending near (0, 0)
    for sp in (points[:1], points, ()):
        field = from_components("0", "0", sp)
        for start in (a, a[:1]):
            with np.errstate(invalid="ignore"):   # the zero-length rows
                lo, width, owner, _ = fields._batch_cuts(field, start.T, b.T)
            for i in range(len(b)):
                cuts = fields._cuts(tuple(start[i % len(start)]), tuple(b[i]), sp, R_MIN_EVAL)
                row = owner == i
                assert lo[row].tolist() == cuts[:-1]
                assert width[row].tolist() == [q - p for p, q in zip(cuts, cuts[1:])]


def test_exact_field_has_zero_loop_work():
    field = from_components("2*x", "2*y")
    assert work(field, SQUARE) == pytest.approx(0.0, abs=1e-9)


def test_polyline_work_is_one_kernel_call_over_all_edges(count_rows):
    path = PolylinePath([(1, 0), (0.5, 2), (-3, 1e-4), (-1, -1), (2, -0.5), (1, 0)])
    single = sum(segment_work(vortex(), a, b) for a, b in path.edges())
    calls = count_rows(fields, "segment_integrals")
    got = work(vortex(), path)
    assert calls == [5]
    assert abs(got - single) <= 1e-15 * (1.0 + abs(single))
    assert got == pytest.approx(TAU, abs=1e-12)


@given(st.lists(st.tuples(st.floats(0.05, 4.0), st.floats(-3.0, 3.0)),
                min_size=2, max_size=10))
@settings(max_examples=100)
def test_polyline_loop_work_is_tau_times_winding(steps):
    # vertices at radius r after turning by each step's angle, so loops
    # wind about the puncture zero, one or several times either way
    phis = np.cumsum([phi for _, phi in steps])
    vertices = [(r * math.cos(p), r * math.sin(p)) for (r, _), p in zip(steps, phis)]
    loop = PolylinePath(vertices + vertices[:1])
    assume(all(closest_approach(a, b, (0.0, 0.0))[1] > 1e-6 for a, b in loop.edges()))
    assert abs(work(vortex(), loop) - TAU * winding_number(loop).number) < 1e-9


def test_angle_change_on_half_turn():
    half = circle_path(0.0, 0.0, 1.0, n=500)
    arc = ParametricPath("cos(t)", "sin(t)", 0.0, math.pi, 500)
    assert angle_change(arc) == pytest.approx(math.pi, abs=1e-9)
    assert angle_change(half) == pytest.approx(TAU, abs=1e-9)


def test_parametric_steps_over_a_quarter_turn_are_split_in_t():
    # Two samples per turn: each bare principal step is +-pi, ambiguous.
    assert angle_change(circle_path(0.0, 0.0, 1.0, n=2)) == pytest.approx(TAU, abs=1e-12)
    assert angle_change(circle_path(0.0, 0.0, 1.0, -2.0, n=3)) == pytest.approx(-2 * TAU, abs=1e-12)


def test_polyline_edges_over_a_quarter_turn_are_split_on_the_chord():
    edge = PolylinePath([(1.0, -2.0), (1.0, 2.0)])
    assert angle_change(edge) == pytest.approx(2.0 * math.atan(2.0), abs=1e-15)
    # A chord through the reference point is split onto it and refused
    # instead of being swept as +-pi.
    with pytest.raises(SingularityError):
        angle_change(PolylinePath([(-1.0, 0.0), (1.0, 0.0)]))
    with pytest.raises(SingularityError):
        angle_change(PolylinePath([(3.0, 1.0), (1.0, 1.0)]), about=(2.0, 1.0))


def test_unwrapped_angle_tracks_every_sample():
    pts = np.array([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1)], dtype=float)
    track = unwrapped_angle(pts)
    assert track == pytest.approx([k * math.pi / 2 for k in range(6)], abs=1e-15)
    assert np.array_equal(unwrapped_angle(PolylinePath(pts)), track)
    shifted = unwrapped_angle(pts + 5.0, about=(5.0, 5.0))
    assert shifted == pytest.approx(track, abs=1e-14)
    with pytest.raises(NonFiniteError):
        winding_number(SQUARE, about=(math.nan, 0.0))
    with pytest.raises(NonFiniteError):
        unwrapped_angle(np.array([(1.0, 0.0), (math.nan, 1.0)]))
    # A single sample is its own principal angle.
    assert unwrapped_angle(pts[1:2]).tolist() == [math.pi / 2]
    circle = circle_path(0.0, 0.0, 1.0, turns=-1.0, n=8)
    assert unwrapped_angle(circle) == pytest.approx(-np.arange(9) * TAU / 8, abs=1e-15)


@pytest.mark.parametrize("cx, cy, r, turns", [
    (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, -1.0), (3.0, -0.5, 0.25, 2.0), (-2.0, 1.5, 7.0, -3.0),
])
def test_circle_paths_are_trees_with_the_spliced_source_values(cx, cy, r, turns):
    # the reference is the circle spliced into source text and parsed again
    spliced = ParametricPath(f"{cx!r}+{r!r}*cos({turns!r}*t)", f"{cy!r}+{r!r}*sin({turns!r}*t)",
                             0.0, TAU)
    built = circle_path(cx, cy, r, turns)
    assert work(vortex(), built) == work(vortex(), spliced)
    ts = np.linspace(0.0, TAU, 7)
    assert np.array_equal(built.point_array(ts), spliced.point_array(ts))


def _count_compiles(monkeypatch):
    """The variables of every ScalarExpr._compile call from here on."""
    calls, compile_ = [], ScalarExpr._compile
    monkeypatch.setattr(ScalarExpr, "_compile",
                        lambda self, *args: calls.append(self.variables) or compile_(self, *args))
    return calls


def test_a_fresh_circle_compiles_once_for_work_winding_and_lift(monkeypatch):
    field = vortex()
    field.eval_array(np.ones(1), np.ones(1))        # the field's own closure, first
    calls = _count_compiles(monkeypatch)
    path = circle_path(0.3, -0.2, 1.7, 2.0)
    assert work(field, path) == pytest.approx(2 * TAU, abs=1e-6)
    assert winding_number(path).number == 2
    assert lift_path(path).sheets()[-1] == 2
    assert calls == [("t",)]        # x, y, dx/dt and dy/dt in one closure


def test_a_field_compiles_one_closure_per_backend_and_is_closed_one(monkeypatch):
    calls = _count_compiles(monkeypatch)
    field = vortex()
    for _ in range(3):
        field.eval_at(1.0, 0.5)
        field.eval_array(np.ones(4), np.full(4, 0.5))
    assert calls == [("x", "y")] * 2
    assert is_closed(field, (0.5, 0.5, 2.0, 2.0)).passed
    assert len(calls) == 3          # dfx/dy and dfy/dx share (x^2+y^2)^2 in one closure


def test_circle_path_refuses_non_finite_input():
    for args in ((math.nan, 0, 1), (0, math.inf, 1), (0, 0, math.nan), (0, 0, 1, -math.inf)):
        with pytest.raises(ValidationError):
            circle_path(*args)


def test_winding_requires_closed_path():
    with pytest.raises(ValidationError):
        winding_number(PolylinePath([(1, 0), (0, 1)]))


def test_closedness_report_for_vortex_and_control():
    report = is_closed(vortex(), (0.5, 0.5, 2.0, 2.0))
    assert report.passed
    assert report.max_residual < 1e-12

    # fx=0, fy=x has d(f) = dx^dy, so the residual is 1 everywhere.
    bad = is_closed(from_components("0", "x"), (0.5, 0.5, 2.0, 2.0))
    assert not bad.passed
    assert bad.max_residual == pytest.approx(1.0, abs=1e-6)


def test_closedness_grid_refuses_singular_points():
    # An odd grid count puts a node exactly on the origin.
    with pytest.raises(SingularityError):
        is_closed(vortex(), (-1.0, -1.0, 1.0, 1.0), grid=21)
    # a node farther than R_MIN_EVAL is probed; the partials there are
    # about 1/r^2 = 1e12 and cancel to within a few ulp of their size
    near = is_closed(vortex(), (1e3 * R_MIN_EVAL, 0.0, 1.0, 1.0), grid=2)
    assert near.worst_point[0] == 1e3 * R_MIN_EVAL
    assert near.max_residual < 4 * np.finfo(float).eps


def test_closedness_residual_is_relative_to_the_partials():
    # 3e-7 from the origin an absolute residual read 2.4e-4 > tol
    report = is_closed(vortex(), (3e-7, 7e-7, 1.0, 1.0), grid=2)
    assert report.passed and report.max_residual < 1e-15
    # where the partials are O(1) the residual is the plain difference:
    # d(x^2 y dx) = -x^2 dx^dy, so |dfx/dy - dfy/dx| = x^2 <= 1/4 < 1
    report = is_closed(from_components("x^2*y", "0"), (0.25, 0.25, 0.5, 0.5), grid=3)
    assert report.max_residual == 0.25 and not report.passed
    # and a large non-closed part still reads not closed
    big = is_closed(from_components("1e6*y", "1e6*x+1e3*x"), (0.5, 0.5, 2.0, 2.0))
    assert not big.passed and big.max_residual == pytest.approx(1e3 / (2e6 + 1e3))


def test_parametric_work_uses_exact_tangents():
    for n in (-2, 2):
        loop = circle_path(0.0, 0.0, 1.0, turns=n)
        assert abs(work(vortex(), loop) - TAU * n) < 1e-12
    # a constant tangent (the derivative folds to a number) broadcasts
    line = ParametricPath("t", "1", -1.0, 1.0, n=4)
    assert work(from_components("1", "0"), line) == 2.0


@settings(max_examples=60)
@given(a=st.floats(0.05, 5.0), ratio=st.floats(0.2, 1.0), tilt=st.floats(0.0, TAU),
       foot=st.floats(0.0, TAU), phase=st.floats(0.0, TAU), depth=st.floats(0.0, 1.0),
       inside=st.booleans(), turns=st.sampled_from([1.0, -1.0]))
def test_parametric_work_about_a_puncture_is_tau_times_the_winding(
        a, ratio, tilt, foot, phase, depth, inside, turns):
    # a tilted ellipse, semi-axes a and b = ratio a, whose closest approach to
    # the vortex is d, from 1e-6 to half its least radius of curvature b^2/a,
    # along the normal at parameter foot; the vortex inside or outside
    b = ratio * a
    d = 1e-6 * (0.5 * b * b / a / 1e-6) ** depth
    c, s = math.cos(tilt), math.sin(tilt)
    nx, ny = b * math.cos(foot), a * math.sin(foot)
    side = (1.0 if inside else -1.0) * d / math.hypot(nx, ny)
    fx, fy = a * math.cos(foot) - side * nx, b * math.sin(foot) - side * ny
    cx, cy = -(c * fx - s * fy), -(s * fx + c * fy)
    path = ParametricPath(f"{cx!r}+{a * c!r}*cos(t)-{b * s!r}*sin(t)",
                          f"{cy!r}+{a * s!r}*cos(t)+{b * c!r}*sin(t)", phase, phase + TAU * turns)
    # 2e-15 a / d: a node rounded by eps |gamma| is off by about eps a / d in angle
    assert abs(work(vortex(), path) - TAU * turns * inside) <= 1e-12 + 2e-15 * a / d


def test_a_circle_that_passes_1e_4_from_the_puncture_is_tau():
    near = ParametricPath("0.5+0.5001*cos(t)", "0.5001*sin(t)", 0.0, TAU)
    assert abs(work(vortex(), near) - TAU) < 1e-11


@pytest.mark.filterwarnings("error::RuntimeWarning")   # numpy's overflow stays inside
def test_points_past_the_double_range_raise_no_warning():
    # t^2 overflows on the path's samples; 1e200^2 in the r_min distance pass
    with pytest.raises(NonFiniteError):
        work(vortex(), ParametricPath("t+1", "t^2", 0.0, 1e308))
    vx, vy = vortex().eval_array(np.array([1e200]), np.array([1.0]))
    assert (vx[0], vy[0]) == (0.0, 0.0)


def test_sample_counts_are_refused_before_anything_is_allocated(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was requested")

    monkeypatch.setattr(fields.np, "linspace", no_arrays)
    monkeypatch.setattr(fields.np, "meshgrid", no_arrays)
    for n in (MAX_PATH_SEGMENTS + 1, 10**9):
        with pytest.raises(ValidationError):
            ParametricPath("cos(t)", "sin(t)", 0.0, 1.0, n)
        with pytest.raises(ValidationError):
            circle_path(0.0, 0.0, 1.0, n=n)
    for grid in (MAX_CLOSEDNESS_GRID + 1, 100_000):
        with pytest.raises(ValidationError):
            is_closed(vortex(), (0.5, 0.5, 2.0, 2.0), grid=grid)


def test_classify_three_ways():
    assert classify(vortex()) == "closed-not-exact"
    assert classify(from_components("2*x", "2*y")) == "exact"
    assert classify(from_components("0", "x")) == "not-closed"


def test_field_evaluation_guards():
    field = vortex()
    with pytest.raises(SingularityError):
        field.eval_at(0.0, 0.0)
    with pytest.raises(SingularityError):
        field.eval_at(1e-12, 0.0)
    vx, vy = field.eval_at(0.0, 2.0)
    assert (vx, vy) == (-0.5, 0.0)
    for bad in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            from_components("1", "0", singular_points=(bad,))


def test_zero_field_does_no_work():
    assert work(zero_field(), SQUARE) == 0.0


def test_path_classes():
    assert SQUARE.is_closed
    assert not PolylinePath([(0, 0), (1, 0)]).is_closed
    assert SQUARE.reversed().vertices == SQUARE.vertices[::-1]

    circ = circle_path(2.0, -1.0, 0.5)
    assert circ.is_closed
    assert circ.start == pytest.approx((2.5, -1.0))

    with pytest.raises(ValidationError):
        PolylinePath([(0, 0)])
    with pytest.raises(ValidationError):
        circle_path(0, 0, -1.0)
    with pytest.raises(ValidationError):
        ParametricPath("t", "t", 0.0, 0.0)
    with pytest.raises(ValidationError):
        concatenate(PolylinePath([(0, 0), (1, 0)]), PolylinePath([(5, 5), (6, 6)]))
