"""Lifts through z = exp(w), conserved cover energy, and log germs."""

import cmath
import math

import numpy as np
import pytest

from locmech.atlas import quadrant_atlas
from locmech.cover import (
    LogGerm,
    continue_log,
    cover_energy,
    lift_path,
    lift_trajectory,
    monodromy_log,
)
from locmech.dynamics import SimConfig, simulate
from locmech.errors import ValidationError
from locmech.fields import (
    ParametricPath,
    PolylinePath,
    circle_path,
    from_components,
    unwrapped_angle,
    vortex,
    work,
    zero_field,
)
from locmech.verify import _DIAMOND, _loop_polyline

TAU = math.tau


def bench_run(T=5.0):
    cfg = SimConfig(field=vortex(), atlas=quadrant_atlas(),
                    q0=(1.0, 0.0), p0=(0.0, 1.0), h=1e-3, T=T)
    return simulate(cfg)


def test_lift_reprojects_to_the_original_positions():
    tr = bench_run(T=2.0)
    lift = lift_trajectory(tr)
    r = np.exp(lift.u)
    gap = np.abs(np.column_stack([r * np.cos(lift.v), r * np.sin(lift.v)]) - tr.positions())
    assert float(np.max(gap)) < 1e-12
    # u is log r along the run.
    assert np.allclose(np.exp(lift.u), np.hypot(tr.qx, tr.qy), rtol=1e-13)


def test_lifted_circle_sheets_count_the_winding():
    for n in (-2, -1, 1, 2):
        lift = lift_path(circle_path(0.0, 0.0, 1.0, turns=n))
        sheets = lift.sheets()
        assert sheets[0] == 0
        assert sheets[-1] == n
        assert lift.v[-1] - lift.v[0] == pytest.approx(TAU * n, abs=1e-9)
        # u is constant on a centered circle.
        assert float(np.max(np.abs(lift.u))) < 1e-12


def test_lift_path_on_a_coarse_square():
    square = PolylinePath([(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)])
    lift = lift_path(square)
    assert lift.sheets()[-1] == 1
    assert lift.v[-1] - lift.v[0] == pytest.approx(TAU, abs=1e-12)


def test_lift_refuses_paths_through_the_origin():
    with pytest.raises(Exception):
        lift_path(PolylinePath([(1, 0), (0, 0), (-1, 0)]))


def test_cover_energy_is_conserved_without_chart_hops():
    tr = bench_run()
    report = cover_energy(tr, lift_trajectory(tr))
    assert report.strength == pytest.approx(1.0, abs=1e-7)
    assert report.drift < 1e-4


def test_cover_energy_of_zero_field_reduces_to_kinetic():
    cfg = SimConfig(field=zero_field(), atlas=quadrant_atlas(),
                    q0=(1.0, 2.0), p0=(0.3, -0.1), h=1e-2, T=1.0)
    tr = simulate(cfg)
    report = cover_energy(tr, lift_trajectory(tr))
    assert report.strength == 0.0
    assert report.drift < 1e-13


def test_germ_values_derive_from_the_sheet():
    g = LogGerm(complex(1.0, 1.0), 0)
    assert g.value == pytest.approx(complex(0.5 * math.log(2.0), math.pi / 4))
    g2 = LogGerm(complex(1.0, 1.0), 2)
    assert g2.value - g.value == monodromy_log(2)
    with pytest.raises(ValidationError):
        LogGerm(0j, 0)


def test_continuation_around_loops_is_exact_monodromy():
    g0 = LogGerm(complex(1.0, 0.0), 0)
    for n in (-3, -1, 1, 2):
        loop = circle_path(0.0, 0.0, 1.0, turns=n)
        g1 = continue_log(g0, loop)
        assert g1.sheet == n
        assert g1.value - g0.value == monodromy_log(n)


@pytest.mark.parametrize("sheet", [0, 3, 10**15, 10**16, 2**62, 10**20])
def test_one_loop_adds_exactly_one_sheet_at_any_sheet(sheet):
    # the sheet is an integer and stays out of the float angle
    loop = PolylinePath([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
    assert continue_log(LogGerm(complex(1.0, 0.0), sheet), loop).sheet == sheet + 1


def test_continuation_composes_along_concatenated_paths():
    first = PolylinePath([(1, 0), (1, 1), (-1, 1), (-1, 0)])
    second = PolylinePath([(-1, 0), (-1, -1), (1, -1), (1, 0)])
    g0 = LogGerm(complex(1.0, 0.0), 0)
    mid = continue_log(g0, first)
    assert mid.anchor == complex(-1.0, 0.0)
    end = continue_log(mid, second)
    assert end.sheet == 1
    # Retracing the second half backwards recovers the midpoint germ.
    back = continue_log(end, second.reversed())
    assert back == mid


def test_continuation_requires_matching_anchor():
    g = LogGerm(complex(2.0, 0.0), 0)
    with pytest.raises(ValidationError):
        continue_log(g, circle_path(0.0, 0.0, 1.0))


def test_out_and_back_keeps_the_branch():
    g0 = LogGerm(complex(1.0, 0.0), 5)
    out = PolylinePath([(1, 0), (2, 2), (0.5, 3)])
    there = continue_log(g0, out)
    again = continue_log(there, out.reversed())
    assert again == g0


def test_continued_sheet_is_the_lifted_sheet():
    # continue_log and LiftTrajectory.sheets round a continued angle to its
    # sheet by one rule
    paths = [_loop_polyline(_DIAMOND, n) for n in (-3, -2, -1, 1, 2, 3)]
    paths.append(PolylinePath([(1.0, 0.0), (2.0, 1.0), (1.0, 0.0)]))
    for path in paths:
        germ = LogGerm(complex(*path.start), 0)
        assert continue_log(germ, path).sheet == lift_path(path).sheets()[-1]


def test_monodromy_log_values():
    assert monodromy_log(0) == 0j
    assert monodromy_log(1) == complex(0.0, TAU)
    assert monodromy_log(-2) == complex(0.0, -2 * TAU)


def test_lift_path_samples_a_parametric_path_once(monkeypatch):
    sampled = []
    point_array = ParametricPath.point_array
    monkeypatch.setattr(ParametricPath, "point_array",
                        lambda self, ts: sampled.append(len(ts)) or point_array(self, ts))
    path = circle_path(0.5, 0.0, 2.0, 1.0, 3)    # steps of 2pi/3: each split at its t-midpoint
    lifted = lift_path(path)
    assert sampled == [4]
    assert np.array_equal(lifted.v, unwrapped_angle(path))
    assert lifted.v[-1] - lifted.v[0] == pytest.approx(TAU, abs=1e-12)


def test_circulations_are_computed_once_per_field():
    field = from_components("-y/(x^2+y^2) - 2*y/((x-3)^2+y^2)",
                            "x/(x^2+y^2) + 2*(x-3)/((x-3)^2+y^2)",
                            singular_points=((0.0, 0.0), (3.0, 0.0)))
    # radius 0.5, or half the distance to the other puncture
    assert field.circulations == (work(field, circle_path(0.0, 0.0, 0.5, 1.0, 512)),
                                  work(field, circle_path(3.0, 0.0, 0.5, 1.0, 512)))
    assert field.circulations is field.circulations
    assert field.circulations == pytest.approx((TAU, 2 * TAU), abs=1e-9)
    assert zero_field().circulations == ()
