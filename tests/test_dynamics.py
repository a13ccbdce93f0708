"""Leapfrog runs across charts: invariants, ledgers, and abort paths."""

import math
from dataclasses import replace

import numpy as np
import pytest

from locmech import atlas as atlas_module
from locmech import dynamics, fields
from locmech.atlas import (
    Atlas,
    Chart,
    PotentialEvaluator,
    PotentialSet,
    atlas_for,
    cocycle,
    gauge_shift,
    quadrant_atlas,
)
from locmech.cover import cover_energy, lift_trajectory
from locmech.dynamics import (
    Abort,
    SimConfig,
    energy_ledger,
    simulate,
)
from locmech.errors import (
    ChartMembershipError,
    DomainEvalError,
    NonFiniteError,
    NumericError,
    SingularityError,
    ValidationError,
)
from locmech.exprlang import ScalarExpr
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
    # a row per state, then two per hop: the potentials of both charts at its
    # crossing; then the chord of each step that enters a chart, whose state's
    # row starts at the basepoint
    hops = sum(t.delta_e is not None for t in tr.transitions)
    assert hops and calls == [tr.n_states + 2 * hops + len(tr.transitions)]


def test_radial_equation_of_motion():
    # Purely azimuthal force: m r'' = p_theta^2 / (m r^3).
    cfg = vortex_cfg()
    tr = simulate(cfg)
    r = np.hypot(tr.qx, tr.qy)
    p_r = (tr.qx * tr.px + tr.qy * tr.py) / r
    dpr = (p_r[2:] - p_r[:-2]) / (2.0 * cfg.h)
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
    "aborted-evaluation": (   # log(0) where step 4 lands, on x = 0
        lambda: SimConfig(field=from_components("0*log(abs(x))", "0"), atlas=atlas_for(()),
                          q0=(-1.0, 0.5), p0=(1, 0), h=0.25, T=2),
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
    # the step into chart 1 is dropped when the force where it lands fails
    assert tr.chart.tolist() == [2, 2, 2, 2]
    assert tr.transitions == ()


def _leapfrog_step(x, y, vx, vy, fx, fy, h, m, force, guard):
    """Kick, drift, kick: the reference's own step, apart from the loops
    simulate runs.  guard sees where the step ends before the force there."""
    hx = vx + 0.5 * h * fx
    hy = vy + 0.5 * h * fy
    nx = x + h * hx / m
    ny = y + h * hy / m
    guard(nx, ny)
    nfx, nfy = force(nx, ny)
    return nx, ny, hx + 0.5 * h * nfx, hy + 0.5 * h * nfy, nfx, nfy


def _rk4_step(x, y, vx, vy, fx, fy, h, m, force, guard):
    """Classical RK4: the reference's own step.  guard sees where the step
    ends once the position stages are in, before the last stage's force."""
    k1qx, k1qy, k1px, k1py = vx / m, vy / m, fx, fy
    f2 = force(x + 0.5 * h * k1qx, y + 0.5 * h * k1qy)
    k2qx = (vx + 0.5 * h * k1px) / m
    k2qy = (vy + 0.5 * h * k1py) / m
    f3 = force(x + 0.5 * h * k2qx, y + 0.5 * h * k2qy)
    k3qx = (vx + 0.5 * h * f2[0]) / m
    k3qy = (vy + 0.5 * h * f2[1]) / m
    nx = x + (h / 6.0) * (k1qx + 2 * k2qx + 2 * k3qx + (vx + h * f3[0]) / m)
    ny = y + (h / 6.0) * (k1qy + 2 * k2qy + 2 * k3qy + (vy + h * f3[1]) / m)
    guard(nx, ny)
    f4 = force(x + h * k3qx, y + h * k3qy)
    npx = vx + (h / 6.0) * (k1px + 2 * f2[0] + 2 * f3[0] + f4[0])
    npy = vy + (h / 6.0) * (k1py + 2 * f2[1] + 2 * f3[1] + f4[1])
    nfx, nfy = force(nx, ny)
    return nx, ny, npx, npy, nfx, nfy


def _log_transition(atlas, ps, old_chart, new_chart, q_old, q_new, t, h):
    """The reference's chart hop: the potential jump at the crossing of the
    leaving chart's boundary, by two point queries."""
    ch_old = atlas.charts[old_chart]
    s = ch_old.first_exit(q_old, q_new)
    if s is None:
        s = 0.5
    q_x = (q_old[0] + s * (q_new[0] - q_old[0]),
           q_old[1] + s * (q_new[1] - q_old[1]))
    delta_e = None
    if atlas.charts[new_chart].contains(q_x, 1e-6) and ch_old.contains(q_x, 1e-6):
        delta_e = ps.value(new_chart, q_x) - ps.value(old_chart, q_x)
    return dynamics.Transition(t - (1.0 - s) * h, old_chart, new_chart, q_x, delta_e)


class _NearPuncture(Exception):
    """The reference's r_min guard: a step ends within r_min of this point."""


def _reference_run(cfg, ps):
    """The per-step loop simulate replaced, kept as a reference: every guard
    and every logged value taken one step at a time, in the same order
    (stepping, with r_min where a step ends before the force there, step
    angle, coverage, the work along the step's chord).  Returns the status,
    the reason, the logged columns and the transitions."""
    field, atlas, h, m = cfg.field, cfg.atlas, cfg.h, cfg.m
    singulars, (cx, cy) = field.singular_points, field.center
    step = _leapfrog_step if cfg.integrator == "leapfrog" else _rk4_step
    x, y, vx, vy = *map(float, cfg.q0), *map(float, cfg.p0)
    fx, fy = field.eval_at(x, y)
    rows = [(x, y, vx, vy, atlas.chart_for((x, y)),
             tuple(math.atan2(y - sy, x - sx) for sx, sy in singulars),
             0.0, (x - cx) * vy - (y - cy) * vx)]
    transitions, status, reason = [], "completed", None

    def guard(nx, ny):
        near = [p for p in singulars if math.hypot(nx - p[0], ny - p[1]) < cfg.r_min]
        if near:
            raise _NearPuncture(near[0])

    for k in range(1, int(round(cfg.T / h)) + 1):
        try:
            nx, ny, npx, npy, nfx, nfy = step(x, y, vx, vy, fx, fy, h, m, field.eval_at, guard)
        except _NearPuncture as stop:
            status = "aborted-singularity"
            reason = f"step {k} came within r_min={cfg.r_min} of {stop.args[0]}"
            break
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            status, reason = "aborted-evaluation", str(exc)
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
            dw = fields.segment_integrals(field, (x, y), [(nx, ny)])[0]
        except NumericError as exc:
            status, reason = "aborted-quadrature", f"step {k}: {exc}"
            break
        if chart != rows[-1][4]:
            transitions.append(_log_transition(
                atlas, ps, rows[-1][4], chart, (x, y), (nx, ny), k * h, h))
        rows.append((nx, ny, npx, npy, chart,
                     tuple(a + b for a, b in zip(rows[-1][5], d)),
                     rows[-1][6] + dw, (nx - cx) * npy - (ny - cy) * npx))
        x, y, vx, vy, fx, fy = nx, ny, npx, npy, nfx, nfy
    qx, qy, px, py, chart, theta, work_acc, p_theta = map(np.array, zip(*rows))
    V = np.empty(len(rows))
    for cid in set(chart.tolist()):
        mine = chart == cid
        V[mine] = ps.values_many([(cid, np.column_stack([qx[mine], qy[mine]]))])[0]
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
        q0=(-3.0, 0.5), p0=(1, 0), h=0.25, T=4), 12),
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
    # rule raises there, so the step that lands on x = 0 stops the run
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    make, step = SEAM_ABORTS["aborted-evaluation"]
    tr = _assert_matches_reference(replace(make(), field=from_components(fx, "0")))
    assert (tr.status, tr.n_states) == ("aborted-evaluation", step)
    assert tr.abort_reason == "field evaluation failed at (0.0, 0.5): float division by zero"


def test_a_midpoint_where_the_force_is_undefined_is_no_quadrature_node():
    # log(0) at the midpoint of the step across x = 0 once stopped this run;
    # no Gauss node lands there, and the force is 0 wherever it is defined
    tr = simulate(SimConfig(field=from_components("0*log(abs(x))", "0"), atlas=atlas_for(()),
                            q0=(-0.875, 0.5), p0=(1, 0), h=0.25, T=2))
    assert tr.completed and tr.n_states == 9
    assert np.count_nonzero(tr.work_acc) == 0


def _chord_sum(tr):
    q = tr.positions()
    return np.concatenate([[0.0], np.cumsum(fields.segment_integrals(tr.field, q[:-1], q[1:]))])


@pytest.mark.parametrize("chunk, make", [
    (dynamics._CHUNK, lambda: vortex_cfg(T=5.0)),
    (7, SEAM_RUNS["leapfrog, many hops"]),
    (dynamics._CHUNK, lambda: vortex_cfg(T=5.0, integrator="rk4")),
], ids=["check-5", "7-step chunks, many hops", "rk4"])
def test_work_acc_is_the_running_sum_of_the_step_chords(monkeypatch, chunk, make):
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    tr = simulate(make())
    assert tr.completed and tr.transitions
    assert float(np.max(np.abs(tr.work_acc - _chord_sum(tr)))) <= 1e-14


@pytest.mark.parametrize("h, drift", [(1e-3, 1.241677e-06), (5e-4, 3.104194e-07)])
def test_kinetic_energy_less_work_drifts_as_h_squared(h, drift):
    # the leapfrog's own error: the chord integrals add none at this size
    tr = simulate(replace(_spring(((0.0, 0.0), (2.0, 0.0))), h=h))
    assert tr.completed and len(tr.transitions) == 3
    assert float(np.ptp(tr.Tkin - tr.work_acc)) == pytest.approx(drift, rel=1e-5)


# an undeclared pole on the line x = 0.3000001, crossed by the chord of step 201
POLE = "0.001/(x-0.3000001)"


def _pole_cfg(fy="0", **kw):
    base = dict(field=from_components(POLE, fy), atlas=atlas_for(()), q0=(0.5, 0.0),
                p0=(-1.0, 0.0), h=1e-3, T=0.6)
    return SimConfig(**{**base, **kw})


def test_a_chord_across_an_undeclared_pole_is_a_quadrature_abort():
    cfg = _pole_cfg()
    tr = _assert_matches_reference(cfg)
    assert (tr.status, tr.abort, tr.n_states) == (
        "aborted-quadrature", Abort(201, "quadrature", None), 201)
    assert tr.abort_reason == ("step 201: segment quadrature did not converge: the field may "
                               "vary too fast, or have a singular point that is not declared")
    assert float(np.min(tr.qx)) > 0.3000001 > tr.qx[-1] + cfg.h * tr.px[-1]
    for name in ("t", "qx", "qy", "px", "py", "V", "Tkin", "E_local", "p_theta", "work_acc"):
        assert np.all(np.isfinite(getattr(tr, name))), name


def test_a_quadrature_abort_wins_over_a_later_loop_guard():
    # log(x + 0.1) refuses the step past x = -0.1, about 400 steps later
    tr = simulate(_pole_cfg(fy="0*log(x+0.1)", T=1.0))
    assert (tr.status, tr.abort.step, tr.n_states) == ("aborted-quadrature", 201, 201)


def test_a_refused_hop_row_ends_the_run_before_the_hop():
    # the step into chart 2 crosses the wall x = 0 and a pole just past it:
    # the hop's rows and that step's chord are refused, no earlier row is
    tr = simulate(replace(_pole_cfg(), field=from_components("0.001/(x+0.0000001)", "0")))
    assert (tr.status, tr.abort.step, tr.n_states) == ("aborted-quadrature", 501, 501)
    assert tr.transitions == () and set(tr.chart.tolist()) == {1}


def test_a_run_whose_first_potential_is_refused_raises():
    # from (0, 0) the row of state 0, from chart 1's basepoint (1, 1), crosses the pole
    with pytest.raises(NumericError) as info:
        simulate(_pole_cfg(q0=(0.0, 0.0), p0=(1.0, 0.0)))
    assert info.value.row == 0


# closed fields (each force component depends on one coordinate, or sums
# vortices and a spring) for the loop simulate compiles per field, and RK4
LOOP_RUNS = {
    "no puncture": lambda: SimConfig(field=from_components("2*x", "2*y"), atlas=quadrant_atlas(),
                                     q0=(1.0, 0.2), p0=(-2.0, 0.0), h=1e-3, T=1.0),
    "two punctures": SEAM_RUNS["two punctures"],
    "rk4, two punctures": lambda: replace(SEAM_RUNS["two punctures"](), m=1.7, integrator="rk4"),
    "pi, every function and x^-2": lambda: SimConfig(
        field=from_components(
            "-x - 0.1*atan2(x, 2) + 0.05*abs(x) - 0.02*sqrt(x*x + 1) + 0.01*(x + 3)^-2"
            " + 0.1*sin(x)",
            "-y + pi*0.01 - 0.05*exp(-y*y) + 0.02*log(y*y + 2) - 0.1*cos(y)"),
        atlas=atlas_for(()), q0=(1.0, 0.0), p0=(0.0, 1.0), m=1.7, h=1e-3, T=10.0),
    # the two components share x^2+y^2, evaluated once per step
    "spring plus vortex": lambda: SimConfig(
        field=from_components("-4*x-y/(x^2+y^2)", "-4*y+x/(x^2+y^2)",
                              singular_points=((0.0, 0.0),)),
        atlas=atlas_for(((0.0, 0.0),)), q0=(1.0, 0.0), p0=(0.0, 1.0), h=1e-3, T=2.0),
}


def _assert_steps_as_the_reference(cfg, ps):
    status, reason, columns, transitions = _reference_run(cfg, ps)
    tr = simulate(cfg, ps)
    assert (tr.status, tr.abort_reason, tr.transitions) == (status, reason, transitions)
    for name in ("qx", "qy", "px", "py"):
        assert np.array_equal(getattr(tr, name), columns[name]), name
    return tr, columns


@pytest.mark.parametrize("name", sorted(LOOP_RUNS))
def test_the_compiled_loop_steps_as_the_reference_bit_for_bit(name):
    cfg = LOOP_RUNS[name]()
    tr, columns = _assert_steps_as_the_reference(cfg, PotentialSet.from_field(cfg.field, cfg.atlas))
    assert tr.completed and tr.transitions
    assert float(np.max(np.abs(tr.V - columns["V"]))) <= 1e-12
    assert cfg.field.leapfrog_loop is cfg.field.leapfrog_loop     # built once per field


# runs whose hops each book two potentials at the crossing
HOP_RUNS = {
    "check-5 vortex": lambda: vortex_cfg(T=5.0),
    "spring plus vortex, 25 hops": lambda: replace(LOOP_RUNS["spring plus vortex"](), T=20.0),
    "two punctures": LOOP_RUNS["two punctures"],
    "pi, every function and x^-2": LOOP_RUNS["pi, every function and x^-2"],
}


@pytest.mark.parametrize("name", sorted(HOP_RUNS))
def test_hop_potentials_are_rows_of_the_run_kernel_call(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("simulate made a point query")

    cfg = HOP_RUNS[name]()
    ps = PotentialSet.from_field(cfg.field, cfg.atlas)
    with monkeypatch.context() as patch:
        for owner in (fields, atlas_module):
            patch.setattr(owner, "segment_work", refuse)
        patch.setattr(PotentialEvaluator, "raw", refuse)
        tr = simulate(cfg, ps)
    hops = [t for t in tr.transitions if t.delta_e is not None]
    assert tr.completed and hops
    for t in hops:      # a row's integral does not depend on its batch
        want = ps.value(t.to_chart, t.q) - ps.value(t.from_chart, t.q)
        assert t.delta_e.hex() == want.hex()


def test_a_hop_that_a_point_query_refuses_is_refused_by_simulate():
    # the crossing at x = 0 is within the hop's 1e-6 of chart 1 (x >= 5e-7)
    # but outside its membership tolerance of 1e-9: ps.value refuses it
    at = Atlas([Chart(1, [(1, 0, 5e-7)], (1, 0)), Chart(2, [(-1, 0, 0)], (-1, 0))])
    cfg = SimConfig(field=zero_field(), atlas=at, q0=(-0.5, 0.0), p0=(1.0, 0.0), h=0.3, T=1.0)
    ps = PotentialSet.from_field(cfg.field, at)
    with pytest.raises(ChartMembershipError) as want:
        ps.value(1, (0.0, 0.0))
    with pytest.raises(ChartMembershipError) as got:
        simulate(cfg, ps)
    assert str(got.value) == str(want.value) == "point (0.0, 0.0) is outside chart 1"


def test_a_run_compiles_each_closure_of_its_field_once(monkeypatch):
    compiles, texts = [], []
    compile_, to_text = ScalarExpr._compile, dynamics.to_text
    monkeypatch.setattr(ScalarExpr, "_compile",
                        lambda self, *args: compiles.append(args[0]) or compile_(self, *args))
    monkeypatch.setattr(dynamics, "to_text", lambda *args: texts.append(args) or to_text(*args))
    cfg = vortex_cfg(T=1.0)
    for _ in range(2):
        assert simulate(cfg).completed
    # eval_at's pair, eval_array's pair (the kernel's nodes), the loop's text
    assert sorted(compiles) == ["math", "numpy"] and len(texts) == 1


# where the compiled loop stops, the r_min guard and eval_at refuse the step
# again: the cause is the one stepping with eval_at gives
LOOP_STOPS = {
    "R_MIN_EVAL": (     # r_min under eval_at's own 1e-9: eval_at refuses first
        lambda: vortex_cfg(q0=(1e-8, 0.0), p0=(-10.0, 0.0), h=1e-10, T=5e-9, r_min=1e-12),
        Abort(10, "evaluation", None),
        "evaluation within r_min=1e-09 of singular point (0.0, 0.0)"),
    "math error": (
        lambda: SimConfig(field=from_components("0*x^-2", "0"), atlas=atlas_for(()),
                          q0=(-0.5, 0.5), p0=(1, 0), h=0.25, T=2),
        Abort(2, "evaluation", None),
        "field evaluation failed at (0.0, 0.5): 0.0 cannot be raised to a negative power"),
    "silent inf": (     # 1e308*0.2*10 overflows to inf without an exception
        lambda: SimConfig(field=from_components("1e308*(x-1)*10*1e-310", "0"),
                          atlas=atlas_for(()), q0=(1.0, 1.0), p0=(1, 0), h=0.05, T=2),
        Abort(4, "evaluation", None), "non-finite field value at (1.2001250187507813, 1.0)"),
    "shared subexpression raises": (      # log(x) of both components, once x < 0
        lambda: SimConfig(field=from_components("(log(x)+y)/x", "log(x)"), atlas=atlas_for(()),
                          q0=(1.5, -1.0), p0=(-0.5, 0.0), h=0.05, T=5.0),
        Abort(28, "evaluation", None),
        "field evaluation failed at (-0.23740821740128443, -0.884950070994813): "
        "math domain error"),
    "r_min guard": (
        ABORT_RUNS["aborted-singularity"][0],
        Abort(105, "singularity", 9.940441431893043e-4),
        "step 105 came within r_min=0.001 of (0.0, 0.0)"),
}


@pytest.mark.parametrize("name", sorted(LOOP_STOPS))
def test_each_stop_of_the_compiled_loop_keeps_its_cause(name):
    make, abort, reason = LOOP_STOPS[name]
    cfg = make()
    tr, _ = _assert_steps_as_the_reference(cfg, PotentialSet.from_field(cfg.field, cfg.atlas))
    assert (tr.abort_reason, tr.n_states) == (reason, abort.step)
    assert (tr.abort.step, tr.abort.guard) == (abort.step, abort.guard)
    assert tr.abort.value == (None if abort.value is None else pytest.approx(abort.value,
                                                                             rel=1e-12))


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
@pytest.mark.parametrize("x0, dist", [(1e-3, 0.0), (1.5e-3, 5e-4)])
def test_a_step_that_ends_within_r_min_is_a_singularity_stop(integrator, x0, dist):
    # from x0 = 1e-3 the step ends on the puncture, where eval_at refuses
    # too; the r_min guard still names the cause, as it does from 1.5e-3
    cfg = SimConfig(field=from_components("0", "0", singular_points=((0, 0),)),
                    atlas=atlas_for(((0, 0),)), q0=(x0, 0.0), p0=(-1.0, 0.0), h=1e-3, T=0.01,
                    integrator=integrator)
    tr, _ = _assert_steps_as_the_reference(cfg, PotentialSet.from_field(cfg.field, cfg.atlas))
    assert (tr.status, tr.abort.step, tr.abort.guard) == ("aborted-singularity", 1, "singularity")
    assert tr.abort.value == pytest.approx(dist, abs=1e-15)
    assert tr.abort_reason == "step 1 came within r_min=0.001 of (0.0, 0.0)"


@pytest.mark.parametrize("cfg", [
    vortex_cfg(T=100.0),        # 100 001 states: 25 chunks summed from their anchors
    SimConfig(field=from_components("-4*x - y/(x^2+y^2)", "-4*y + x/(x^2+y^2)",
                                    singular_points=((0.0, 0.0),)),
              atlas=atlas_for(((0.0, 0.0),)), q0=(1.0, 0.0), p0=(0.0, 1.0), h=1e-3, T=20.0),
], ids=["100 001 states", "spring, 25 hops"])
def test_v_summed_along_the_chords_is_the_basepoint_potential(cfg):
    ps = PotentialSet.from_field(cfg.field, cfg.atlas)
    tr = simulate(cfg, ps)
    assert tr.completed
    for cid in set(tr.chart.tolist()):
        mine = tr.chart == cid
        want = ps.values_many([(cid, np.column_stack([tr.qx[mine], tr.qy[mine]]))])[0]
        assert float(np.max(np.abs(tr.V[mine] - want))) <= 1e-12


def test_v_restarts_from_the_basepoint_at_each_chunk_and_chart_entry(monkeypatch):
    # rounding in the sum along the chords adds up over one chunk at most
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    starts, kernel = [], dynamics.segment_integrals
    monkeypatch.setattr(dynamics, "segment_integrals",
                        lambda field, a, b: starts.append(np.array(a)) or kernel(field, a, b))
    cfg = vortex_cfg(T=4.0)
    ps = PotentialSet.from_field(cfg.field, cfg.atlas)
    tr = simulate(cfg, ps)
    entries = {0, *range(8, tr.n_states, 7), *(np.flatnonzero(np.diff(tr.chart)) + 1).tolist()}
    want = np.column_stack([np.roll(tr.qx, 1), np.roll(tr.qy, 1)])
    for k in entries:
        want[k] = cfg.atlas.charts[int(tr.chart[k])].basepoint
    # then each hop's two rows start at the new and the old chart's basepoint,
    # and the chord of each of those states but the first at the state before
    hops = [cfg.atlas.charts[cid].basepoint for t in tr.transitions if t.delta_e is not None
            for cid in (t.to_chart, t.from_chart)]
    chords = np.column_stack([tr.qx, tr.qy])[np.array(sorted(entries - {0})) - 1]
    assert tr.transitions and np.array_equal(starts[0], np.vstack([want, hops, chords]))


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


def test_a_potential_set_on_relabelled_charts_is_refused():
    # the quadrant charts relabelled 1 -> III, 2 -> IV, 3 -> I, 4 -> II share
    # the ids of quadrant_atlas() but not its charts; a run with them reported
    # "completed" with V off by pi
    quadrants = quadrant_atlas().charts
    relabel = {1: 3, 2: 4, 3: 1, 4: 2}
    relabelled = Atlas([Chart(cid, quadrants[old].constraints, quadrants[old].basepoint,
                              singular_points=quadrants[old].singular_points)
                        for cid, old in relabel.items()])
    cfg = vortex_cfg(q0=(1.0, 0.2), T=0.5)
    with pytest.raises(ValidationError, match="does not match the atlas"):
        simulate(cfg, PotentialSet.from_field(cfg.field, relabelled))
    # an equal atlas built a second time is accepted, and gives the same V
    rebuilt = simulate(cfg, PotentialSet.from_field(cfg.field, quadrant_atlas()))
    assert rebuilt.completed and np.array_equal(rebuilt.V, simulate(cfg).V)


def test_a_potential_set_for_another_field_is_refused():
    # a vortex run with the potentials of grad(x^2 + y^2) on the same atlas
    # completed with delta_e 0.0 where the vortex's own potentials give pi/2
    cfg = vortex_cfg(q0=(1.0, 0.2), T=3.0)
    with pytest.raises(ValidationError, match="another field"):
        simulate(cfg, PotentialSet.from_field(from_components("2*x", "2*y"), cfg.atlas))
    # an equal field built a second time is accepted, and gives the same V
    rebuilt = simulate(cfg, PotentialSet.from_field(vortex(), cfg.atlas))
    assert rebuilt.completed and np.array_equal(rebuilt.V, simulate(cfg).V)


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
            singular_points=singular,
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
    r = np.exp(lift.u)
    reprojected = np.column_stack([2.0 + r * np.cos(lift.v), r * np.sin(lift.v)])
    assert float(np.max(np.abs(reprojected - tr.positions()))) < 1e-12
    report = cover_energy(tr, lift)
    assert report.strength == pytest.approx(1.0, abs=1e-7)
    assert report.drift < 1e-4
    assert np.array_equal((tr.qx - 2.0) * tr.py - tr.qy * tr.px, tr.p_theta)


def test_cover_energy_refuses_more_than_one_puncture():
    # Two unit vortices: T - (theta_1 + theta_2) is conserved, but one lift
    # about the first puncture alone read a drift of 2.31.
    field = from_components("-y/(x^2+y^2) - y/((x-0.5)^2+y^2)",
                            "x/(x^2+y^2) + (x-0.5)/((x-0.5)^2+y^2)",
                            singular_points=((0.0, 0.0), (0.5, 0.0)))
    tr = simulate(SimConfig(field=field, atlas=atlas_for(field.singular_points),
                            q0=(2.0, 0.0), p0=(0.0, 1.2), h=1e-3, T=20.0))
    assert tr.completed
    energy = tr.Tkin - tr.theta.sum(axis=1)
    assert float(np.max(np.abs(energy - energy[0]))) < 1e-6
    with pytest.raises(ValidationError, match="one angle per puncture"):
        cover_energy(tr, lift_trajectory(tr))


def test_cover_energy_refuses_a_non_finite_energy():
    # momenta of 1e200 square past the double range: Tkin is inf from the start
    tr = simulate(vortex_cfg(p0=(1e200, 1e200), T=0.01))
    assert np.isinf(tr.Tkin[0])
    with pytest.raises(NonFiniteError):
        cover_energy(tr, lift_trajectory(tr))
