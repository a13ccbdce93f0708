"""Leapfrog runs across charts: invariants, ledgers, and abort paths."""

import math

import numpy as np
import pytest

from locmech import dynamics
from locmech.atlas import (
    Atlas,
    Chart,
    PotentialSet,
    atlas_for,
    cocycle,
    gauge_shift,
    quadrant_atlas,
)
from locmech.cover import cover_energy, lift_trajectory
from locmech.dynamics import (
    SimConfig,
    energy_ledger,
    hamiltonian,
    lagrangian,
    legendre_check,
    polar_diagnostics,
    simulate,
)
from locmech.errors import ValidationError
from locmech.fields import from_components, vortex, zero_field

TAU = math.tau


def vortex_cfg(**kw):
    base = dict(
        field=vortex(), atlas=quadrant_atlas(), q0=(1.0, 0.0), p0=(0.0, 1.0),
        h=1e-3, T=2.0,
    )
    base.update(kw)
    return SimConfig(**base)


def test_zero_field_runs_straight_lines_exactly():
    at = quadrant_atlas()
    cfg = SimConfig(field=zero_field(), atlas=at, q0=(1.0, 2.0), p0=(0.5, 0.25),
                    h=1e-2, T=3.0)
    tr = simulate(cfg)
    assert tr.completed
    assert tr.qx[-1] == pytest.approx(1.0 + 3.0 * 0.5, abs=1e-12)
    assert tr.qy[-1] == pytest.approx(2.0 + 3.0 * 0.25, abs=1e-12)
    assert float(np.max(np.abs(tr.px - 0.5))) == 0.0
    assert float(np.max(np.abs(np.diff(tr.Tkin)))) < 1e-13


def test_leapfrog_is_time_reversible():
    tr = simulate(vortex_cfg())
    back = simulate(vortex_cfg(
        q0=(float(tr.qx[-1]), float(tr.qy[-1])),
        p0=(-float(tr.px[-1]), -float(tr.py[-1])),
    ))
    assert back.completed
    assert back.qx[-1] == pytest.approx(1.0, abs=1e-9)
    assert back.qy[-1] == pytest.approx(0.0, abs=1e-9)
    assert back.px[-1] == pytest.approx(0.0, abs=1e-9)
    assert back.py[-1] == pytest.approx(-1.0, abs=1e-9)


def test_vortex_torque_is_unit_so_p_theta_grows_linearly():
    tr = simulate(vortex_cfg())
    resid = np.abs(tr.p_theta - tr.p_theta[0] - tr.t)
    assert float(np.max(resid)) < 1e-10


def test_dynamics_ignore_gauge_choices_bitwise():
    cfg = vortex_cfg(T=1.0)
    ps0 = PotentialSet.from_field(cfg.field, cfg.atlas)
    offsets = {1: 0.9, 2: -2.0, 3: 0.5, 4: 10.0}
    tr0 = simulate(cfg, ps0)
    tr1 = simulate(cfg, gauge_shift(ps0, offsets))
    for name in ("qx", "qy", "px", "py", "Tkin", "chart"):
        assert np.array_equal(getattr(tr0, name), getattr(tr1, name))
    # The local energy picks up exactly the active chart's offset.
    shift = np.array([offsets[int(c)] for c in tr0.chart])
    assert float(np.max(np.abs((tr1.E_local - tr0.E_local) - shift))) < 1e-12


def test_legendre_transform_round_trip():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    rng = np.random.default_rng(5150)
    for _ in range(20):
        q = tuple(rng.uniform(0.2, 2.0, size=2))
        qdot = tuple(rng.uniform(-2.0, 2.0, size=2))
        m = float(rng.uniform(0.5, 3.0))
        assert legendre_check(1, q, qdot, ps, m) < 1e-12
        p = (m * qdot[0], m * qdot[1])
        assert hamiltonian(1, q, p, ps, m) + lagrangian(1, q, qdot, ps, m) == \
            pytest.approx(p[0] * qdot[0] + p[1] * qdot[1], abs=1e-12)


def test_single_chart_energy_drift_scales_as_h_squared():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    cc = cocycle(ps)
    drifts = {}
    for h in (1e-3, 5e-4):
        tr = simulate(vortex_cfg(h=h), ps)
        drifts[h] = energy_ledger(tr, ps, cc).max_drift
    ratio = drifts[1e-3] / drifts[5e-4]
    assert 3.0 < ratio < 5.0


def test_work_energy_balance():
    tr = simulate(vortex_cfg())
    gap = np.abs((tr.Tkin - tr.Tkin[0]) - tr.work_acc)
    assert float(np.max(gap)) < 1e-5


def test_transition_jumps_match_the_cocycle():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    cc = cocycle(ps)
    tr = simulate(vortex_cfg(T=4.0), ps)
    ledger = energy_ledger(tr, ps, cc)
    assert len(ledger.transition_checks) >= 1
    for check in ledger.transition_checks:
        assert check.delta_e == pytest.approx(-check.cocycle_value, abs=1e-9)
        assert check.residual < 1e-9
    hops = int(np.sum(tr.chart[1:] != tr.chart[:-1]))
    assert hops == len(tr.transitions)


def test_logged_potentials_match_point_queries():
    # The bulk post-pass and PotentialSet.value are two routes to one rule.
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    tr = simulate(vortex_cfg(T=4.0), ps)
    assert len(set(tr.chart.tolist())) > 1
    for k in range(tr.n_states):
        q = (float(tr.qx[k]), float(tr.qy[k]))
        assert abs(tr.V[k] - ps.value(int(tr.chart[k]), q)) <= 1e-12


def test_post_pass_is_one_kernel_call_per_run(count_rows):
    calls = count_rows(dynamics, "segment_integrals")
    tr = simulate(vortex_cfg(T=4.0), PotentialSet.from_field(vortex(), quadrant_atlas()))
    assert len(set(tr.chart.tolist())) > 1
    assert calls == [tr.n_states]


def test_radial_equation_of_motion():
    # Purely azimuthal force: m r'' = p_theta^2 / (m r^3).
    tr = simulate(vortex_cfg())
    polar = polar_diagnostics(tr)
    h = tr.h
    dpr = (polar.p_r[2:] - polar.p_r[:-2]) / (2.0 * h)
    rhs = polar.p_theta[1:-1] ** 2 / (tr.m * polar.r[1:-1] ** 3)
    assert float(np.max(np.abs(dpr - rhs))) < 1e-4


def test_polar_diagnostics_consistency():
    tr = simulate(vortex_cfg())
    polar = polar_diagnostics(tr)
    assert np.array_equal(polar.p_theta, tr.p_theta)
    assert np.array_equal(polar.theta, tr.theta[:, 0])
    # The accumulated angle moves continuously: no step swallows a jump.
    assert float(np.max(np.abs(np.diff(polar.theta)))) < math.pi / 2
    assert float(np.min(polar.r)) > 0.5


def test_polar_and_lift_follow_the_angle_without_a_theta_column():
    # The exact field has no punctures, so no logged angle column exists
    # and both views unwrap the positions themselves.
    field = from_components("2*x", "2*y")
    tr = simulate(SimConfig(field=field, atlas=quadrant_atlas(), q0=(1.0, 0.2),
                            p0=(-2.0, 0.0), h=1e-3, T=1.0))
    assert tr.completed and tr.theta.shape == (tr.n_states, 0)
    polar = polar_diagnostics(tr, about=(0.5, 0.0))
    lift = lift_trajectory(tr)
    for theta, (ax, ay) in ((polar.theta, (0.5, 0.0)), (lift.v, (0.0, 0.0))):
        r = np.hypot(tr.qx - ax, tr.qy - ay)
        assert np.allclose(r * np.cos(theta), tr.qx - ax, rtol=0, atol=1e-12)
        assert np.allclose(r * np.sin(theta), tr.qy - ay, rtol=0, atol=1e-12)
        assert float(np.max(np.abs(np.diff(theta)))) < 0.1
        assert theta[-1] - theta[0] > math.pi / 2


def test_rk4_cross_check():
    ps = PotentialSet.from_field(vortex(), quadrant_atlas())
    cc = cocycle(ps)
    lf = simulate(vortex_cfg(), ps)
    rk = simulate(vortex_cfg(integrator="rk4"), ps)
    assert abs(float(lf.qx[-1] - rk.qx[-1])) < 1e-4
    assert abs(float(lf.qy[-1] - rk.qy[-1])) < 1e-4
    # Fourth-order local error beats the second-order drift at this h.
    assert energy_ledger(rk, ps, cc).max_drift < energy_ledger(lf, ps, cc).max_drift


def test_singularity_abort_keeps_a_clean_partial_run():
    cfg = vortex_cfg(q0=(0.002, 0.0), p0=(-1.0, 0.0), h=1e-5, T=0.01)
    tr = simulate(cfg)
    assert tr.status == "aborted-singularity"
    assert not tr.completed
    assert "r_min" in tr.abort_reason
    assert 1 < tr.n_states < int(round(cfg.T / cfg.h)) + 1
    # Logged rows stay finite and self-consistent up to the abort.
    assert np.all(np.isfinite(tr.positions()))
    assert float(np.min(np.hypot(tr.qx, tr.qy))) >= cfg.r_min


# fixed runs for the three guards no other test reaches; each pins the
# abort's step through the state count and its reason text
ABORT_RUNS = {
    "aborted-step-guard": (
        lambda: SimConfig(field=from_components("0", "0", singular_points=((0, 0),)),
                          atlas=atlas_for(((0, 0),)), q0=(-0.5, 0.01), p0=(1, 0), h=1, T=2),
        1, "step 1 swept -3.102 rad about (0.0, 0.0); reduce h"),
    "aborted-coverage": (     # one chart, x >= -0.5, about the vortex
        lambda: SimConfig(field=vortex(), atlas=Atlas([Chart(1, [(1, 0, -0.5)], (1, 0),
                                                             singular_points=((0, 0),))]),
                          q0=(1, 0), p0=(0, 1), h=1e-3, T=5),
        2820, "step 2820 left the atlas at (-0.5007245332121646, 4.7132613922124404)"),
    "aborted-evaluation": (   # log(0) at the midpoint of the step across x = 0
        lambda: SimConfig(field=from_components("0*log(abs(x))", "0"), atlas=atlas_for(()),
                          q0=(-0.875, 0.5), p0=(1, 0), h=0.25, T=2),
        4, "field evaluation failed at (0.0, 0.5): math domain error"),
}


@pytest.mark.parametrize("status", sorted(ABORT_RUNS))
def test_abort_runs_stop_at_a_fixed_state_with_a_fixed_reason(status):
    make, n_states, reason = ABORT_RUNS[status]
    tr = simulate(make())
    assert (tr.status, tr.n_states, tr.abort_reason) == (status, n_states, reason)
    # every logged hop leads to a kept state
    assert all(t.t <= tr.t[-1] for t in tr.transitions)
    assert len(tr.transitions) == int(np.count_nonzero(np.diff(tr.chart)))


def test_a_dropped_state_logs_no_chart_hop():
    make, _, _ = ABORT_RUNS["aborted-evaluation"]
    tr = simulate(make())
    # the step into chart 1 is dropped when its midpoint force fails
    assert tr.chart.tolist() == [2, 2, 2, 2]
    assert tr.transitions == ()


def test_config_validation():
    at = quadrant_atlas()
    with pytest.raises(ValidationError):
        simulate(SimConfig(field=vortex(), atlas=at, q0=(1, 0), p0=(0, 1), m=-1.0))
    with pytest.raises(ValidationError):
        simulate(SimConfig(field=vortex(), atlas=at, q0=(1, 0), p0=(0, 1),
                           integrator="euler"))
    with pytest.raises(ValidationError):
        simulate(SimConfig(field=vortex(), atlas=at, q0=(1e-9, 0.0), p0=(0, 1)))
    with pytest.raises(ValidationError):
        simulate(SimConfig(field=vortex(), atlas=at, q0=(1, 0), p0=(0, 1),
                           h=1e-3, T=1e-9))


@pytest.mark.parametrize("override", [
    {"h": math.nan}, {"T": math.inf}, {"m": math.inf}, {"r_min": math.nan},
    {"q0": (math.nan, 0.0)}, {"p0": (math.nan, 1.0)},
])
def test_non_finite_configs_are_refused(override):
    with pytest.raises(ValidationError, match="finite"):
        simulate(vortex_cfg(**override))


def test_step_count_is_capped_before_anything_is_allocated(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the step count was checked")

    monkeypatch.setattr(dynamics.np, "empty", no_alloc)
    for h, T in ((1e-300, 1.0), (1e-3, 10.0 * dynamics.MAX_STEPS)):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            simulate(vortex_cfg(h=h, T=T))


def test_closed_loop_ledger_on_a_spring_vortex_orbit():
    # A vortex with an attracting spring keeps orbits bounded; this start
    # was tuned so position returns to machine precision after T.  The
    # ledger sums circulation times winding over every declared puncture,
    # so an extra one listed first that the orbit does not enclose changes
    # nothing.
    for singular, winding in ((((0.0, 0.0),), (1,)), (((10.0, 0.0), (0.0, 0.0)), (0, 1))):
        field = from_components(
            "-y/(x^2+y^2) - 4*x", "x/(x^2+y^2) - 4*y",
            singular_points=singular, name="spring-vortex",
        )
        at = atlas_for(singular)
        cfg = SimConfig(
            field=field, atlas=at,
            q0=(1.0, 0.0),
            p0=(1.2488471069451006, -2.9155852031332001),
            h=1e-3, T=7.592,
        )
        ps = PotentialSet.from_field(field, at)
        tr = simulate(cfg, ps)
        assert tr.completed
        ledger = energy_ledger(tr, ps)
        loop = ledger.loop
        assert loop is not None
        assert loop.gap < 1e-6
        assert loop.winding == winding
        # Kinetic energy comes back up by one circulation quantum per turn.
        assert loop.expected == pytest.approx(TAU, abs=1e-6)
        assert loop.deviation < 1e-4
        assert len(ledger.transition_checks) >= 4
        assert max(c.residual for c in ledger.transition_checks) < 1e-9


def test_an_off_origin_vortex_is_viewed_about_its_puncture():
    # p_theta, the lift and the cover energy are all taken about the
    # field's first singular point, wherever it is.
    field = from_components("-y/((x-2)^2+y^2)", "(x-2)/((x-2)^2+y^2)",
                            singular_points=((2.0, 0.0),))
    tr = simulate(SimConfig(field=field, atlas=atlas_for(field.singular_points),
                            q0=(3.0, 0.0), p0=(0.0, 1.0), h=1e-3, T=2.0))
    assert tr.completed
    assert float(np.max(np.abs(tr.p_theta - tr.p_theta[0] - tr.t))) < 1e-6
    lift = lift_trajectory(tr)
    assert float(np.max(np.abs(lift.reprojected() - tr.positions()))) < 1e-12
    report = cover_energy(tr, lift)
    assert report.strength == pytest.approx(1.0, abs=1e-7)
    assert report.drift < 1e-4
    assert np.array_equal(polar_diagnostics(tr).p_theta, tr.p_theta)
