"""Trajectory integration in a force one-form, with chart bookkeeping.

The force is global (the sharp of the one-form), so stepping never needs
charts; they matter only for energy accounting.  Each logged state gets
the potential of the lowest-id chart containing it, and every chart hop
records the potential jump at the crossing point, which must match minus
the cocycle entry of that overlap.

Leapfrog (kick-drift-kick) is the primary integrator: symplectic,
time-reversible, O(h^2).  A classical RK4 integrator is kept alongside
as a cross-check reference, not as the default.

simulate steps in a bare loop that keeps only the state and the r_min
guard, and books everything else in numpy once per chunk of steps:
the angles about each singular point and the step-angle guard, the
chart of each state (Atlas.locate), the Simpson midpoint forces, work,
p_theta and the chart hops.  The run is cut at the first step that
fails any guard, in the order a step-by-step loop checks them, so the
log is the same; an abort's cause is kept as tr.abort.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub

import numpy as np

from .atlas import PotentialSet
from .atlas import cocycle as build_cocycle
from .errors import (
    DomainEvalError,
    NonFiniteError,
    SingularityError,
    ValidationError,
)
from .fields import TAU, circulation, segment_integrals

SIM_R_MIN = 1e-3
STEP_ANGLE_GUARD = 3.0   # radians per step; < pi so unwrapping stays unambiguous
MAX_STEPS = 1_000_000    # ~100 MB of logged columns and about half a minute of stepping
INTEGRATORS = ("leapfrog", "rk4")
_CHUNK = 4096            # steps per bookkeeping pass: ~1 MB of floats in flight


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
class Abort:
    """Why a run stopped early: the step that failed, the guard it failed
    (singularity, step-guard, coverage or evaluation) and, for the first
    two, the distance to the singular point or the angle swept."""
    step: int
    guard: str
    value: float | None


@dataclass(frozen=True)
class Transition:
    t: float
    from_chart: int
    to_chart: int
    q: tuple
    delta_e: float | None


class Trajectory:
    """Column-oriented log of a run: one array per logged quantity."""

    def __init__(self, cfg, arrays, transitions, status, abort_reason=None, abort=None):
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
        self.abort = abort

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
    aborted-coverage, aborted-evaluation; tr.abort is the cause of an abort
    (an Abort) and None for a completed run.

    The step loop keeps only what feeds back into the state: the stepper,
    with its force calls, and the r_min guard.  After every _CHUNK steps
    one numpy pass books the rest (the angles and the step-angle guard, the
    charts and coverage, the Simpson midpoint forces, work_acc, p_theta and
    the chart hops) and cuts the run at the first step that fails a guard.
    A run so steps up to one chunk past its abort, but logs what stepping
    and booking one step at a time would log.
    """
    _validate_config(cfg, potentials)
    ps = potentials or PotentialSet.from_field(cfg.field, cfg.atlas)
    field, h, m, r_min = cfg.field, cfg.h, cfg.m, cfg.r_min
    n_steps = int(round(cfg.T / h))
    if n_steps < 1:
        raise ValidationError("T too small for the step size")
    singulars = field.singular_points

    x, y = float(cfg.q0[0]), float(cfg.q0[1])
    vx, vy = float(cfg.p0[0]), float(cfg.p0[1])
    force = field.eval_at
    try:
        fx, fy = force(x, y)
    except (DomainEvalError, NonFiniteError, SingularityError) as exc:
        raise ValidationError(f"force undefined at q0: {exc}") from None
    stepper = _leapfrog_step if cfg.integrator == "leapfrog" else _rk4_step

    book = _Books(cfg, ps)
    cause = None
    while book.steps < n_steps and cause is None:
        flat = [x, y, vx, vy, fx, fy]     # the last state kept, then one per step
        extend = flat.extend
        for k in range(book.steps + 1, min(book.steps + _CHUNK, n_steps) + 1):
            try:
                s = stepper(x, y, vx, vy, fx, fy, h, m, force)
            except (DomainEvalError, NonFiniteError, SingularityError) as exc:
                cause = Abort(k, "evaluation", None), str(exc)
                break
            x, y, vx, vy, fx, fy = s
            for sx, sy in singulars:
                dist = math.hypot(x - sx, y - sy)
                if dist < r_min:
                    break
            else:
                extend(s)
                continue
            cause = (Abort(k, "singularity", dist),
                     f"step {k} came within r_min={r_min} of ({sx}, {sy})")
            break
        cause = book.chunk(flat) or cause
        x, y, vx, vy, fx, fy = flat[-6:]
    del flat, extend    # up to a megabyte of floats: free before the post-pass
    return book.trajectory(*cause or (None, None))


class _Books:
    """The logged columns of a run, booked a chunk of steps at a time."""

    def __init__(self, cfg, ps):
        self.cfg, self.ps = cfg, ps
        self.points = cfg.field.singular_points
        self.center = np.reshape(cfg.field.center, (2, 1))
        self.steps = 0          # steps kept so far
        self.theta = None       # the angles and the work at the last state kept
        self.work = 0.0
        self.blocks = []
        self.transitions = []

    def chunk(self, flat):
        """Book the states of flat, six numbers each (x, y, px, py, fx, fy):
        the last state kept, then one per step.  Keeps them up to the first
        step that fails a guard, and returns that step's (Abort, reason), or
        None if all pass."""
        field, atlas, done = self.cfg.field, self.cfg.atlas, self.steps
        state = np.fromiter(flat, float, len(flat)).reshape(-1, 6).T.copy()
        end, cause = state.shape[1] - 1, None   # steps kept; why the next one is not
        row = atlas.locate(state[0], state[1])  # each state's chart, as its index in ids
        with np.errstate(over="ignore", invalid="ignore"):
            theta, swept = self._angles(flat[0::6], flat[1::6])
            if swept is not None:
                end, j, r = swept
                sx, sy = self.points[j]
                cause = (Abort(done + end + 1, "step-guard", r),
                         f"step {done + end + 1} swept {r:.3f} rad about ({sx}, {sy}); reduce h")
            k = int(row.argmax())
            if k <= end and row[k] == len(atlas.charts):
                end, cause = k - 1, (Abort(done + k, "coverage", None),
                                     f"step {done + k} left the atlas at "
                                     f"({flat[6 * k]}, {flat[6 * k + 1]})")
            # one Simpson panel of work on each step chord: the endpoint
            # forces are in hand, the midpoints cost one bulk evaluation
            mfx, mfy, failed = _midpoint_forces(
                field, *(0.5 * (state[:2, :end] + state[:2, 1:end + 1])))
            if failed is not None:
                end, exc = failed
                cause = Abort(done + end + 1, "evaluation", None), str(exc)
            state, row = state[:, :end + 1], row[:end + 1]
            d = state[:2, 1:] - state[:2, :-1]
            a, b = state[4:, :-1] * d, state[4:, 1:] * d
            work = np.empty(end + 1)
            work[0] = self.work
            np.divide((a[0] + a[1]) + 4.0 * (mfx * d[0] + mfy * d[1]) + (b[0] + b[1]), 6.0,
                      out=work[1:])
            np.add.accumulate(work, out=work)
            theta = np.add.accumulate(theta[:end + 1], out=theta[:end + 1])
            lever = (state[:2] - self.center) * state[3:1:-1]   # (x - cx) py, (y - cy) px
        X, Y = state[0], state[1]
        for k in _chart_changes(row).tolist():
            self.transitions.append(_log_transition(
                atlas, self.ps, atlas.ids[row[k - 1]], atlas.ids[row[k]],
                (float(X[k - 1]), float(Y[k - 1])), (float(X[k]), float(Y[k])),
                (done + k) * self.cfg.h, self.cfg.h,
            ))
        first = 0 if self.theta is None else 1     # row 0 is booked already
        self.blocks.append((state[:4, first:], row[first:], theta[first:], work[first:],
                            lever[0, first:] - lever[1, first:]))
        self.steps, self.theta, self.work = done + end, theta[-1], work[-1]
        return cause

    def _angles(self, xs, ys):
        """The angle of each state (coordinates in the lists xs, ys) about
        each singular point, less its predecessor's (row 0: the angle kept
        last, or the first one), by math.atan2 and math.remainder as the
        scalar rule takes them; and (step, point, angle) of the first step
        that sweeps STEP_ANGLE_GUARD or more, or None.  A difference under
        3 < pi is its own principal value: only larger ones need remainder."""
        theta = np.empty((len(xs), len(self.points)))
        for j, (sx, sy) in enumerate(self.points):
            theta[:, j] = np.fromiter(map(math.atan2, map(sub, ys, repeat(sy)),
                                          map(sub, xs, repeat(sx))), float, len(xs))
        d = theta[1:]
        d -= theta[:-1]
        if self.theta is not None:
            theta[0] = self.theta
        big = np.abs(d) >= STEP_ANGLE_GUARD
        if np.count_nonzero(big):
            steps, points = big.nonzero()
            for i, j in zip(steps.tolist(), points.tolist()):
                d[i, j] = r = math.remainder(d[i, j], TAU)
                if abs(r) >= STEP_ANGLE_GUARD:
                    return theta, (i, j, r)
        return theta, None

    def trajectory(self, cause, reason):
        """The Trajectory of the kept states, with V from one segment
        kernel call, from each state's chart basepoint."""
        cfg, ps = self.cfg, self.ps
        q, row, theta, work_acc, p_theta = (
            p[0] if len(p) == 1 else np.concatenate(p, axis=-1 if k == 0 else 0)
            for k, p in enumerate(zip(*self.blocks)))
        self.blocks = None      # free the chunks before the post-pass
        qx, qy, px, py = q
        with np.errstate(over="ignore"):    # momenta past 1e154 square to inf
            Tkin = (px ** 2 + py ** 2) / (2.0 * cfg.m)
        # independent of work_acc; ps.atlas has cfg.atlas's ids, so its rows
        V = ps.gauge_array[row] - segment_integrals(cfg.field, ps.basepoints[row], q[:2].T)
        arrays = {
            "t": cfg.h * np.arange(len(qx)), "qx": qx, "qy": qy, "px": px, "py": py,
            "chart": np.array(cfg.atlas.ids)[row], "theta": theta, "V": V, "Tkin": Tkin,
            "E_local": Tkin + V, "p_theta": p_theta, "work_acc": work_acc,
        }
        status = "completed" if cause is None else "aborted-" + cause.guard
        return Trajectory(cfg, arrays, self.transitions, status, reason, cause)


def _midpoint_forces(field, mx, my):
    """The field at the midpoints by one strict eval_array call; if that
    raises, eval_at at each in turn up to the first that fails, whose
    exception gives the reason.  Returns the forces before any failure and
    (its index, the exception) or None."""
    if not len(mx):
        return mx, my, None
    try:
        return *field.eval_array(mx, my, strict=True), None
    except (DomainEvalError, NonFiniteError, SingularityError):
        pass
    fx, fy = [], []
    for i, (x, y) in enumerate(zip(mx.tolist(), my.tolist())):
        try:
            vx, vy = field.eval_at(x, y)
        except (DomainEvalError, NonFiniteError, SingularityError) as exc:
            return np.array(fx), np.array(fy), (i, exc)
        fx.append(vx)
        fy.append(vy)
    return np.array(fx), np.array(fy), None


def _chart_changes(chart):
    """The indices k >= 1 where chart[k] differs from chart[k - 1]."""
    return (chart[1:] != chart[:-1]).nonzero()[0] + 1


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
# ledgers

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
    boundaries = [0, *_chart_changes(tr.chart).tolist(), tr.n_states]
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

