"""Trajectory integration in a force one-form, with chart bookkeeping.

The force is global (the sharp of the one-form), so stepping never needs
charts; they matter only for energy accounting.  Each logged state gets
the potential of the lowest-id chart containing it, and every chart hop
records the potential jump at the crossing point, which must match minus
the cocycle entry of that overlap.

Leapfrog (kick-drift-kick) is the primary integrator: symplectic,
time-reversible, O(h^2).  A classical RK4 integrator is kept alongside
as a cross-check reference, not as the default.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atlas import cocycle as build_cocycle
from .errors import (
    DomainEvalError,
    NonFiniteError,
    SingularityError,
    ValidationError,
)
from .fields import (
    TAU,
    circulation,
    principal_angle_diff,
    segment_integrals,
    unwrapped_angle,
)

SIM_R_MIN = 1e-3
STEP_ANGLE_GUARD = 3.0   # radians per step; < pi so unwrapping stays unambiguous
MAX_STEPS = 1_000_000    # ~100 MB of logged columns and about half a minute of stepping
INTEGRATORS = ("leapfrog", "rk4")


@dataclass(frozen=True)
class SimConfig:
    field: object
    atlas: object
    q0: tuple
    p0: tuple
    m: float = 1.0
    h: float = 1e-3
    T: float = 5.0
    r_min: float = SIM_R_MIN
    integrator: str = "leapfrog"


@dataclass(frozen=True)
class Transition:
    t: float
    from_chart: int
    to_chart: int
    q: tuple
    delta_e: float | None


class Trajectory:
    """Column-oriented log of a run: one array per logged quantity."""

    def __init__(self, cfg, arrays, transitions, status, abort_reason=None):
        self.config = cfg
        self.field = cfg.field
        self.atlas = cfg.atlas
        self.m = cfg.m
        self.h = cfg.h
        self.integrator = cfg.integrator
        for name, arr in arrays.items():
            setattr(self, name, arr)
        self.transitions = tuple(transitions)
        self.status = status
        self.abort_reason = abort_reason

    @property
    def n_states(self):
        return len(self.t)

    @property
    def completed(self):
        return self.status == "completed"

    def positions(self):
        return np.column_stack([self.qx, self.qy])


def _validate_config(cfg, ps):
    scalars = (cfg.m, cfg.h, cfg.T, cfg.r_min, *cfg.q0, *cfg.p0)
    if not all(math.isfinite(v) for v in scalars):
        raise ValidationError("m, h, T, r_min, q0 and p0 must be finite")
    if cfg.m <= 0 or cfg.h <= 0 or cfg.T <= 0:
        raise ValidationError("m, h and T must be positive")
    if cfg.T / cfg.h > MAX_STEPS:
        raise ValidationError(
            f"T/h = {cfg.T / cfg.h:.3g} steps exceeds the limit of {MAX_STEPS}"
        )
    if cfg.integrator not in INTEGRATORS:
        raise ValidationError(f"integrator must be one of {INTEGRATORS}")
    if cfg.r_min <= 0:
        raise ValidationError("r_min must be positive")
    if ps is not None and ps.atlas is not cfg.atlas:
        if set(ps.atlas.ids) != set(cfg.atlas.ids):
            raise ValidationError("potential set does not match the atlas")
    for sx, sy in cfg.field.singular_points:
        if math.hypot(cfg.q0[0] - sx, cfg.q0[1] - sy) < cfg.r_min:
            raise ValidationError("q0 starts within r_min of a singular point")
    if cfg.atlas.chart_for(cfg.q0) is None:
        raise ValidationError("q0 is not covered by the atlas")


def simulate(cfg, potentials=None):
    """Integrate and log the run; aborts are clean partial trajectories.

    status is one of completed, aborted-singularity, aborted-step-guard,
    aborted-coverage, aborted-evaluation.
    """
    from .atlas import PotentialSet

    _validate_config(cfg, potentials)
    ps = potentials or PotentialSet.from_field(cfg.field, cfg.atlas)
    field, atlas, m, h = cfg.field, cfg.atlas, cfg.m, cfg.h
    n_steps = int(round(cfg.T / h))
    if n_steps < 1:
        raise ValidationError("T too small for the step size")
    singulars = field.singular_points
    n_sing = len(singulars)
    cx, cy = field.center

    qx = np.empty(n_steps + 1)
    qy = np.empty(n_steps + 1)
    px = np.empty(n_steps + 1)
    py = np.empty(n_steps + 1)
    chart = np.empty(n_steps + 1, dtype=np.int64)
    theta = np.empty((n_steps + 1, n_sing))
    work_acc = np.empty(n_steps + 1)
    p_theta = np.empty(n_steps + 1)

    x, y = float(cfg.q0[0]), float(cfg.q0[1])
    vx, vy = float(cfg.p0[0]), float(cfg.p0[1])
    qx[0], qy[0], px[0], py[0] = x, y, vx, vy
    chart[0] = atlas.chart_for((x, y))
    for s_idx, (sx, sy) in enumerate(singulars):
        theta[0, s_idx] = math.atan2(y - sy, x - sx)
    work_acc[0] = 0.0
    p_theta[0] = (x - cx) * vy - (y - cy) * vx

    transitions = []
    status, reason = "completed", None
    filled = 1

    force = field.eval_at
    try:
        fx, fy = force(x, y)
    except (DomainEvalError, NonFiniteError, SingularityError) as exc:
        raise ValidationError(f"force undefined at q0: {exc}") from None

    stepper = _leapfrog_step if cfg.integrator == "leapfrog" else _rk4_step

    for k in range(n_steps):
        try:
            nx, ny, npx, npy, nfx, nfy = stepper(x, y, vx, vy, fx, fy, h, m, force)
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            status, reason = "aborted-evaluation", str(exc)
            break

        hit = False
        for sx, sy in singulars:
            if math.hypot(nx - sx, ny - sy) < cfg.r_min:
                status = "aborted-singularity"
                reason = (
                    f"step {k + 1} came within r_min={cfg.r_min} of ({sx}, {sy})"
                )
                hit = True
                break
        if hit:
            break

        guard = False
        for s_idx, (sx, sy) in enumerate(singulars):
            d = principal_angle_diff(
                math.atan2(ny - sy, nx - sx), math.atan2(y - sy, x - sx)
            )
            if abs(d) >= STEP_ANGLE_GUARD:
                status = "aborted-step-guard"
                reason = (
                    f"step {k + 1} swept {d:.3f} rad about ({sx}, {sy}); "
                    "reduce h"
                )
                guard = True
                break
            theta[filled, s_idx] = theta[filled - 1, s_idx] + d
        if guard:
            break

        new_chart = atlas.chart_for((nx, ny))
        if new_chart is None:
            status = "aborted-coverage"
            reason = f"step {k + 1} left the atlas at ({nx}, {ny})"
            break

        # running work by one Simpson panel on the step chord; endpoint
        # forces are already in hand, only the midpoint costs an eval
        mx, my = 0.5 * (x + nx), 0.5 * (y + ny)
        try:
            mfx, mfy = force(mx, my)
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            status, reason = "aborted-evaluation", str(exc)
            break
        dxs, dys = nx - x, ny - y
        dw = (
            (fx * dxs + fy * dys)
            + 4.0 * (mfx * dxs + mfy * dys)
            + (nfx * dxs + nfy * dys)
        ) / 6.0

        # the state is kept: log its chart hop
        old_chart = int(chart[filled - 1])
        if new_chart != old_chart:
            transitions.append(_log_transition(
                atlas, ps, old_chart, new_chart, (x, y), (nx, ny), (k + 1) * h, h,
            ))

        qx[filled], qy[filled] = nx, ny
        px[filled], py[filled] = npx, npy
        chart[filled] = new_chart
        work_acc[filled] = work_acc[filled - 1] + dw
        p_theta[filled] = (nx - cx) * npy - (ny - cy) * npx
        filled += 1
        x, y, vx, vy, fx, fy = nx, ny, npx, npy, nfx, nfy

    n = filled
    t = h * np.arange(n)
    Tkin = (px[:n] ** 2 + py[:n] ** 2) / (2.0 * m)
    # V from each state's chart basepoint, independent of work_acc
    row = np.searchsorted(ps.atlas.ids, chart[:n])   # the ids are sorted
    base = np.array([ch.basepoint for ch in ps.atlas.charts.values()])[row]
    gauge = np.array([ps.gauges[c] for c in ps.atlas.ids])[row]
    V = gauge - segment_integrals(field, base, np.column_stack([qx[:n], qy[:n]]))
    arrays = {
        "t": t, "qx": qx[:n], "qy": qy[:n], "px": px[:n], "py": py[:n],
        "chart": chart[:n], "theta": theta[:n], "V": V, "Tkin": Tkin,
        "E_local": Tkin + V, "p_theta": p_theta[:n], "work_acc": work_acc[:n],
    }
    return Trajectory(cfg, arrays, transitions, status, reason)


def _leapfrog_step(x, y, vx, vy, fx, fy, h, m, force):
    hx = vx + 0.5 * h * fx
    hy = vy + 0.5 * h * fy
    nx = x + h * hx / m
    ny = y + h * hy / m
    nfx, nfy = force(nx, ny)
    return nx, ny, hx + 0.5 * h * nfx, hy + 0.5 * h * nfy, nfx, nfy


def _rk4_step(x, y, vx, vy, fx, fy, h, m, force):
    k1qx, k1qy, k1px, k1py = vx / m, vy / m, fx, fy
    f2 = force(x + 0.5 * h * k1qx, y + 0.5 * h * k1qy)
    k2qx = (vx + 0.5 * h * k1px) / m
    k2qy = (vy + 0.5 * h * k1py) / m
    f3 = force(x + 0.5 * h * k2qx, y + 0.5 * h * k2qy)
    k3qx = (vx + 0.5 * h * f2[0]) / m
    k3qy = (vy + 0.5 * h * f2[1]) / m
    f4 = force(x + h * k3qx, y + h * k3qy)
    nx = x + (h / 6.0) * (k1qx + 2 * k2qx + 2 * k3qx + (vx + h * f3[0]) / m)
    ny = y + (h / 6.0) * (k1qy + 2 * k2qy + 2 * k3qy + (vy + h * f3[1]) / m)
    npx = vx + (h / 6.0) * (k1px + 2 * f2[0] + 2 * f3[0] + f4[0])
    npy = vy + (h / 6.0) * (k1py + 2 * f2[1] + 2 * f3[1] + f4[1])
    nfx, nfy = force(nx, ny)
    return nx, ny, npx, npy, nfx, nfy


def _log_transition(atlas, ps, old_chart, new_chart, q_old, q_new, t, h):
    """Potential jump at the overlap crossing of a chart hop.

    The crossing point of the leaving chart's boundary lies in both closed
    charts, so both potentials are defined there and the jump is exactly
    the (negated) cocycle entry up to quadrature noise.
    """
    ch_old = atlas.charts[old_chart]
    s = ch_old.first_exit(q_old, q_new)
    if s is None:
        s = 0.5
    q_x = (q_old[0] + s * (q_new[0] - q_old[0]),
           q_old[1] + s * (q_new[1] - q_old[1]))
    delta_e = None
    if atlas.charts[new_chart].contains(q_x, 1e-6) and ch_old.contains(q_x, 1e-6):
        delta_e = ps.value(new_chart, q_x) - ps.value(old_chart, q_x)
    return Transition(t - (1.0 - s) * h, old_chart, new_chart, q_x, delta_e)


# ---------------------------------------------------------------------------
# chart-local energy functions

def hamiltonian(cid, q, p, ps, m):
    """Kinetic energy plus the chart potential; q must lie in chart cid."""
    return (p[0] ** 2 + p[1] ** 2) / (2.0 * m) + ps.value(cid, q)


def lagrangian(cid, q, qdot, ps, m):
    return 0.5 * m * (qdot[0] ** 2 + qdot[1] ** 2) - ps.value(cid, q)


def legendre_check(cid, q, qdot, ps, m):
    """|p . qdot - L - H| with p = m qdot; identically zero in exact
    arithmetic and at rounding level in floats."""
    p = (m * qdot[0], m * qdot[1])
    lag = lagrangian(cid, q, qdot, ps, m)
    ham = hamiltonian(cid, q, p, ps, m)
    return abs(p[0] * qdot[0] + p[1] * qdot[1] - lag - ham)


# ---------------------------------------------------------------------------
# ledgers and diagnostics

@dataclass(frozen=True)
class ChartSegment:
    chart: int
    t_start: float
    t_end: float
    max_drift: float


@dataclass(frozen=True)
class TransitionCheck:
    t: float
    from_chart: int
    to_chart: int
    delta_e: float
    cocycle_value: float
    residual: float


@dataclass(frozen=True)
class LoopCheck:
    gap: float
    winding: tuple    # one winding number per singular point
    delta_T: float
    expected: float
    deviation: float


@dataclass(frozen=True)
class EnergyLedger:
    segments: tuple
    max_drift: float
    transition_checks: tuple
    loop: LoopCheck | None


def energy_ledger(tr, ps, cc=None, closure_tol=1e-6):
    """Per-chart-segment energy drift, transition-jump audit, and, for
    trajectories that nearly close in position, the kinetic energy gained
    against the sum over singular points of circulation times winding."""
    if cc is None:
        cc = build_cocycle(ps)
    segments = []
    boundaries = [0] + [
        k for k in range(1, tr.n_states) if tr.chart[k] != tr.chart[k - 1]
    ] + [tr.n_states]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        seg = tr.E_local[a:b]
        segments.append(ChartSegment(
            int(tr.chart[a]), float(tr.t[a]), float(tr.t[b - 1]),
            float(np.max(np.abs(seg - seg[0]))),
        ))
    checks = []
    for trans in tr.transitions:
        if trans.delta_e is None:
            continue
        c = cc.value(trans.from_chart, trans.to_chart)
        checks.append(TransitionCheck(
            trans.t, trans.from_chart, trans.to_chart,
            trans.delta_e, c, abs(trans.delta_e + c),
        ))
    loop = None
    gap = math.hypot(
        float(tr.qx[-1] - tr.qx[0]), float(tr.qy[-1] - tr.qy[0])
    )
    if gap <= closure_tol and tr.n_states > 2:
        delta_T = float(tr.Tkin[-1] - tr.Tkin[0])
        winding = tuple(int(w) for w in np.rint((tr.theta[-1] - tr.theta[0]) / TAU))
        expected = sum((circulation(tr.field, i) * w for i, w in enumerate(winding) if w), 0.0)
        loop = LoopCheck(gap, winding, delta_T, expected, abs(delta_T - expected))
    max_drift = max(s.max_drift for s in segments)
    return EnergyLedger(tuple(segments), max_drift, tuple(checks), loop)


@dataclass(frozen=True)
class PolarSeries:
    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    p_r: np.ndarray
    p_theta: np.ndarray


def polar_diagnostics(tr, about=None):
    """Polar view of a trajectory: r, continuous angle, p_r, p_theta."""
    if about is None:
        about = tr.field.center
    ax, ay = float(about[0]), float(about[1])
    dx = tr.qx - ax
    dy = tr.qy - ay
    r = np.hypot(dx, dy)
    if float(np.min(r)) <= 0.0:
        raise SingularityError("trajectory touches the reference point")
    if (ax, ay) in tr.field.singular_points:
        theta = tr.theta[:, tr.field.singular_points.index((ax, ay))].copy()
    else:
        theta = unwrapped_angle(tr.positions(), (ax, ay))
    p_theta = dx * tr.py - dy * tr.px
    p_r = (dx * tr.px + dy * tr.py) / r
    return PolarSeries(tr.t.copy(), r, theta, p_r, p_theta)
