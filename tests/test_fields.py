"""Line integrals, winding numbers, and closedness probes for plane fields."""

import math

import numpy as np
import pytest

from locmech.errors import NonFiniteError, SingularityError, ValidationError
from locmech.fields import (
    ParametricPath,
    PolylinePath,
    angle_change,
    circle_path,
    classify,
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


def test_quadrature_rules_agree():
    field = vortex()
    loop = circle_path(0.4, -0.2, 2.0)
    ws = work(field, loop, quad="simpson")
    wt = work(field, loop, quad="trapezoid")
    wg = work(field, loop, quad="gauss(8)")
    assert ws == pytest.approx(TAU, abs=1e-6)
    assert wt == pytest.approx(ws, abs=1e-4)
    assert wg == pytest.approx(ws, abs=1e-8)


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
    # singular point, so only the uniform panel grid is at work
    field = from_components("3*cos(3*x)*cos(2*y)", "-2*sin(3*x)*sin(2*y)")
    got = segment_work(field, (1.0, 1.0), (4.0, -3.0))
    exact = math.sin(12.0) * math.cos(-6.0) - math.sin(3.0) * math.cos(2.0)
    assert got == pytest.approx(exact, abs=1e-12)


def test_segment_integrals_batch_matches_single_segments():
    field, a = vortex(), (1.0, 1.0)
    bs = [(2.0, 0.5), (0.3, 1e-5), (1.0, 1.0), (-0.5, 6.0)]
    got = segment_integrals(field, a, bs)
    assert got == pytest.approx([segment_work(field, a, b) for b in bs], abs=1e-14)
    exact = [math.atan2(y, x) - math.pi / 4 for x, y in bs]
    assert got == pytest.approx(exact, abs=1e-13)
    assert segment_integrals(field, a, np.empty((0, 2))).shape == (0,)


def test_segment_kernel_refusals():
    with pytest.raises(NonFiniteError):
        segment_work(vortex(), (1.0, 0.0), (math.nan, 1.0))
    with pytest.raises(NonFiniteError):
        segment_integrals(vortex(), (1.0, 1.0), [(2.0, 0.0), (math.inf, 0.0)])
    with pytest.raises(SingularityError):
        segment_work(vortex(), (-1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        segment_work(zero_field(), (0.0, 0.0), (1e6, 0.0))


def test_exact_field_has_zero_loop_work():
    field = from_components("2*x", "2*y")
    assert work(field, SQUARE) == pytest.approx(0.0, abs=1e-9)


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
    assert report.max_residual < 1e-4

    # fx=0, fy=x has d(f) = dx^dy, so the residual is 1 everywhere.
    bad = is_closed(from_components("0", "x"), (0.5, 0.5, 2.0, 2.0))
    assert not bad.passed
    assert bad.max_residual == pytest.approx(1.0, abs=1e-6)


def test_closedness_grid_refuses_singular_points():
    # An odd grid count puts a node exactly on the origin.
    with pytest.raises(SingularityError):
        is_closed(vortex(), (-1.0, -1.0, 1.0, 1.0), grid=21)


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


def test_zero_field_does_no_work():
    assert work(zero_field(), SQUARE) == 0.0


def test_path_classes():
    assert SQUARE.is_closed
    assert not PolylinePath([(0, 0), (1, 0)]).is_closed
    assert SQUARE.reversed().vertices == SQUARE.vertices[::-1]

    circ = circle_path(2.0, -1.0, 0.5)
    assert circ.is_closed
    assert circ.start == pytest.approx((2.5, -1.0))
    rev = circ.reversed()
    assert rev.point(0.0) == pytest.approx(circ.point(TAU))

    with pytest.raises(ValidationError):
        PolylinePath([(0, 0)])
    with pytest.raises(ValidationError):
        circle_path(0, 0, -1.0)
    with pytest.raises(ValidationError):
        ParametricPath("t", "t", 0.0, 0.0)
    with pytest.raises(ValidationError):
        concatenate(PolylinePath([(0, 0), (1, 0)]), PolylinePath([(5, 5), (6, 6)]))
