"""Leapfrog runs across charts: invariants, ledgers, and abort paths."""

import math
from dataclasses import replace

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
    simulate,
)
from locmech.errors import DomainEvalError, NonFiniteError, SingularityError, ValidationError
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
    r = np.hypot(tr.qx, tr.qy)
    p_r = (tr.qx * tr.px + tr.qy * tr.py) / r
    dpr = (p_r[2:] - p_r[:-2]) / (2.0 * tr.h)
    rhs = tr.p_theta[1:-1] ** 2 / (tr.m * r[1:-1] ** 3)
    assert float(np.max(np.abs(dpr - rhs))) < 1e-4


def test_polar_diagnostics_consistency():
    tr = simulate(vortex_cfg())
    # The accumulated angle moves continuously: no step swallows a jump.
    assert float(np.max(np.abs(np.diff(tr.theta[:, 0])))) < math.pi / 2
    assert float(np.min(np.hypot(tr.qx, tr.qy))) > 0.5


def test_polar_and_lift_follow_the_angle_without_a_theta_column():
    # The exact field has no punctures, so no logged angle column exists
    # and the lift unwraps the positions itself.
    field = from_components("2*x", "2*y")
    tr = simulate(SimConfig(field=field, atlas=quadrant_atlas(), q0=(1.0, 0.2),
                            p0=(-2.0, 0.0), h=1e-3, T=1.0))
    assert tr.completed and tr.theta.shape == (tr.n_states, 0)
    theta = lift_trajectory(tr).v
    r = np.hypot(tr.qx, tr.qy)
    assert np.allclose(r * np.cos(theta), tr.qx, rtol=0, atol=1e-12)
    assert np.allclose(r * np.sin(theta), tr.qy, rtol=0, atol=1e-12)
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


# fixed runs, one per guard; each pins the abort's step through the state
# count, its reason text and its cause: the step, the guard and the
# distance or angle that tripped it
ABORT_RUNS = {
    "aborted-singularity": (
        lambda: vortex_cfg(q0=(0.002, 0.0), p0=(-1.0, 0.0), h=1e-5, T=0.01),
        105, "step 105 came within r_min=0.001 of (0.0, 0.0)", 9.940441431893043e-4),
    "aborted-step-guard": (
        lambda: SimConfig(field=from_components("0", "0", singular_points=((0, 0),)),
                          atlas=atlas_for(((0, 0),)), q0=(-0.5, 0.01), p0=(1, 0), h=1, T=2),
        1, "step 1 swept -3.102 rad about (0.0, 0.0); reduce h", -3.101597985643492),
    "aborted-coverage": (     # one chart, x >= 0, with the vortex on its wall
        lambda: SimConfig(field=vortex(), atlas=Atlas([Chart(1, [(1, 0, 0)], (1, 0),
                                                             singular_points=((0, 0),))]),
                          q0=(1, 0), p0=(0, 1), h=1e-3, T=5),
        2290, "step 2290 left the atlas at (-0.00010964679950198136, 3.741803875114206)", None),
    "aborted-evaluation": (   # log(0) at the midpoint of the step across x = 0
        lambda: SimConfig(field=from_components("0*log(abs(x))", "0"), atlas=atlas_for(()),
                          q0=(-0.875, 0.5), p0=(1, 0), h=0.25, T=2),
        4, "field evaluation failed at (0.0, 0.5): math domain error", None),
}


@pytest.mark.parametrize("status", sorted(ABORT_RUNS))
def test_abort_runs_stop_at_a_fixed_state_with_a_fixed_reason(status):
    make, n_states, reason, value = ABORT_RUNS[status]
    tr = simulate(make())
    assert (tr.status, tr.n_states, tr.abort_reason) == (status, n_states, reason)
    # the state after the last one kept is the step that failed
    assert (tr.abort.step, tr.abort.guard) == (n_states, status.removeprefix("aborted-"))
    assert tr.abort.value == (None if value is None else pytest.approx(value, rel=1e-12))
    # every logged hop leads to a kept state
    assert all(t.t <= tr.t[-1] for t in tr.transitions)
    assert len(tr.transitions) == int(np.count_nonzero(np.diff(tr.chart)))


def test_a_dropped_state_logs_no_chart_hop():
    tr = simulate(ABORT_RUNS["aborted-evaluation"][0]())
    # the step into chart 1 is dropped when its midpoint force fails
    assert tr.chart.tolist() == [2, 2, 2, 2]
    assert tr.transitions == ()


def _reference_run(cfg, ps):
    """The per-step loop simulate replaced, kept as a reference: every guard
    and every logged value taken one step at a time, in the same order
    (stepping, r_min, step angle, coverage, midpoint force).  Returns the
    status, the reason, the logged columns and the transitions."""
    field, atlas, h, m = cfg.field, cfg.atlas, cfg.h, cfg.m
    singulars, (cx, cy) = field.singular_points, field.center
    step = dynamics._leapfrog_step if cfg.integrator == "leapfrog" else dynamics._rk4_step
    x, y, vx, vy = *map(float, cfg.q0), *map(float, cfg.p0)
    fx, fy = field.eval_at(x, y)
    rows = [(x, y, vx, vy, atlas.chart_for((x, y)),
             tuple(math.atan2(y - sy, x - sx) for sx, sy in singulars),
             0.0, (x - cx) * vy - (y - cy) * vx)]
    transitions, status, reason = [], "completed", None
    for k in range(1, int(round(cfg.T / h)) + 1):
        try:
            nx, ny, npx, npy, nfx, nfy = step(x, y, vx, vy, fx, fy, h, m, field.eval_at)
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            status, reason = "aborted-evaluation", str(exc)
            break
        near = [p for p in singulars if math.hypot(nx - p[0], ny - p[1]) < cfg.r_min]
        if near:
            status = "aborted-singularity"
            reason = f"step {k} came within r_min={cfg.r_min} of {near[0]}"
            break
        d = [math.remainder(math.atan2(ny - sy, nx - sx) - math.atan2(y - sy, x - sx), TAU)
             for sx, sy in singulars]
        swept = [(v, p) for v, p in zip(d, singulars) if abs(v) >= dynamics.STEP_ANGLE_GUARD]
        if swept:
            status = "aborted-step-guard"
            reason = f"step {k} swept {swept[0][0]:.3f} rad about {swept[0][1]}; reduce h"
            break
        chart = atlas.chart_for((nx, ny))
        if chart is None:
            status, reason = "aborted-coverage", f"step {k} left the atlas at ({nx}, {ny})"
            break
        try:
            mfx, mfy = field.eval_at(0.5 * (x + nx), 0.5 * (y + ny))
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            status, reason = "aborted-evaluation", str(exc)
            break
        dx, dy = nx - x, ny - y
        dw = ((fx * dx + fy * dy) + 4.0 * (mfx * dx + mfy * dy) + (nfx * dx + nfy * dy)) / 6.0
        if chart != rows[-1][4]:
            transitions.append(dynamics._log_transition(
                atlas, ps, rows[-1][4], chart, (x, y), (nx, ny), k * h, h))
        rows.append((nx, ny, npx, npy, chart,
                     tuple(a + b for a, b in zip(rows[-1][5], d)),
                     rows[-1][6] + dw, (nx - cx) * npy - (ny - cy) * npx))
        x, y, vx, vy, fx, fy = nx, ny, npx, npy, nfx, nfy
    qx, qy, px, py, chart, theta, work_acc, p_theta = map(np.array, zip(*rows))
    V = np.empty(len(rows))
    for cid in set(chart.tolist()):
        mine = chart == cid
        V[mine] = ps.values(cid, np.column_stack([qx[mine], qy[mine]]))
    Tkin = (px ** 2 + py ** 2) / (2.0 * m)
    columns = {"t": h * np.arange(len(rows)), "qx": qx, "qy": qy, "px": px, "py": py,
               "chart": chart, "theta": theta.reshape(len(rows), len(singulars)), "V": V,
               "Tkin": Tkin, "E_local": Tkin + V, "p_theta": p_theta, "work_acc": work_acc}
    return status, reason, columns, tuple(transitions)


def _spring(vortices):
    """Unit vortices at the points, plus a spring to the origin that keeps
    orbits bounded, so they wind about the punctures and hop charts often."""
    fx = " ".join(f"- y/((x-{a})^2+(y-{b})^2)" for a, b in vortices)
    fy = " ".join(f"+ (x-{a})/((x-{a})^2+(y-{b})^2)" for a, b in vortices)
    return SimConfig(field=from_components(f"-x {fx}", f"-y {fy}", singular_points=vortices),
                     atlas=atlas_for(vortices), q0=(1.0, 0.0), p0=(1.0, 1.0))


def _assert_matches_reference(cfg):
    ps = PotentialSet.from_field(cfg.field, cfg.atlas)
    status, reason, columns, transitions = _reference_run(cfg, ps)
    tr = simulate(cfg, ps)
    assert (tr.status, tr.abort_reason) == (status, reason)
    assert tr.transitions == transitions
    assert np.array_equal(tr.chart, columns.pop("chart"))
    for name, want in columns.items():
        np.testing.assert_allclose(getattr(tr, name), want, rtol=0, atol=1e-12, err_msg=name)
    return tr


# runs against 7-step chunks: the first three hop charts at steps 5 and 7,
# the last state of the first chunk
SEAM_RUNS = {
    f"{steps} steps": (lambda steps=steps: vortex_cfg(q0=(0.3, 0.3), p0=(-1.0, -1.2), h=0.05,
                                                      T=0.05 * steps))
    for steps in (7, 14, 15)
}
SEAM_RUNS.update({
    "leapfrog, many hops": lambda: replace(_spring(((0.0, 0.0),)), h=0.05, T=7.6),
    "rk4, many hops": lambda: replace(_spring(((0.0, 0.0),)), h=0.05, T=7.6, integrator="rk4"),
    "two punctures": lambda: replace(_spring(((0.0, 0.0), (2.0, 0.0))), q0=(1.0, -1.5),
                                     p0=(1.5, 0.5), h=0.02, T=6.0),
})
# each abort kind in the second 7-step chunk (steps 8 to 14): at its first
# step, inside it, and at its last
SEAM_ABORTS = {
    "aborted-singularity": (lambda: vortex_cfg(q0=(0.002, 0.0), p0=(-1.0, 0.0), h=1.25e-4,
                                               T=0.01), 9),
    "aborted-step-guard": (lambda: SimConfig(
        field=from_components("0", "0", singular_points=((0, 0),)), atlas=atlas_for(((0, 0),)),
        q0=(-7.5, 0.01), p0=(1, 0), h=1, T=12), 8),
    "aborted-coverage": (lambda: SimConfig(
        field=zero_field(), atlas=Atlas([Chart(1, [(1, 0, -0.5)], (1, 0))]),
        q0=(0.5, 0.0), p0=(-0.075, 0.0), h=1, T=20), 14),
    "aborted-evaluation": (lambda: SimConfig(
        field=from_components("0*log(abs(x))", "0"), atlas=atlas_for(()),
        q0=(-2.875, 0.5), p0=(1, 0), h=0.25, T=4), 12),
}


@pytest.mark.parametrize("chunk", [dynamics._CHUNK, 7])
@pytest.mark.parametrize("integrator", ["leapfrog", "rk4"])
def test_chunked_bookkeeping_matches_the_per_step_reference(monkeypatch, integrator, chunk):
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    tr = _assert_matches_reference(vortex_cfg(integrator=integrator, T=4.0))
    assert tr.completed and tr.abort is None and tr.transitions


@pytest.mark.parametrize("name", sorted(SEAM_RUNS))
def test_chunk_seams_match_the_per_step_reference(monkeypatch, name):
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    tr = _assert_matches_reference(SEAM_RUNS[name]())
    assert tr.completed and tr.transitions


@pytest.mark.parametrize("status", sorted(SEAM_ABORTS))
def test_aborts_in_a_later_chunk_match_the_per_step_reference(monkeypatch, status):
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    make, step = SEAM_ABORTS[status]
    tr = _assert_matches_reference(make())
    assert tr.status == status
    assert tr.abort.step == tr.n_states == step


@pytest.mark.parametrize("fx", ["1/(1/x)*0", "0*atan2(1, 1/x)", "0*exp(-1/(x*x))"])
def test_a_midpoint_force_numpy_would_absorb_is_refused_as_eval_at_refuses(monkeypatch, fx):
    # numpy turns 1/0 into inf and then into a finite value; the scalar
    # rule raises there, and the bulk midpoint pass must stop where it does
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    make, step = SEAM_ABORTS["aborted-evaluation"]
    tr = _assert_matches_reference(replace(make(), field=from_components(fx, "0")))
    assert (tr.status, tr.n_states) == ("aborted-evaluation", step)
    assert tr.abort_reason == "field evaluation failed at (0.0, 0.5): float division by zero"


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
    assert np.array_equal((tr.qx - 2.0) * tr.py - tr.qy * tr.px, tr.p_theta)
