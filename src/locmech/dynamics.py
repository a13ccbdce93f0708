"""Trajectory integration in a force one-form, with chart bookkeeping.

The force is global (the sharp of the one-form), so stepping never needs
charts; they matter only for energy accounting.  Each logged state gets
the potential of the lowest-id chart containing it, and every chart hop
records the potential jump at the crossing point, which must match minus
the cocycle entry of that overlap.

Leapfrog (kick-drift-kick) is the primary integrator: symplectic,
time-reversible, O(h^2).  A classical RK4 integrator is kept alongside
as a cross-check reference, not as the default.

simulate steps in a bare loop (for leapfrog, compiled per field) that
keeps only the state and the r_min guard, and books everything else in
numpy once per chunk of steps: the angles about each singular point and
the step-angle guard, the chart of each state (Atlas.locate), p_theta
and the chart hops.  The run is cut at the first step that fails any
guard, in the order a step-by-step loop checks them, so the log is the
same; an abort's cause is kept as tr.abort.  All line integrals of a
run, V, each hop's jump and the work along each step chord, are rows of
one kernel call after stepping ends; a row the kernel refuses cuts the
run at its step too.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .atlas import PotentialSet
from .atlas import cocycle as build_cocycle
from .errors import (
    DomainEvalError,
    NonFiniteError,
    NumericError,
    SingularityError,
    ValidationError,
)
from .exprlang import MATH_ERRORS, MATH_FUNCS, PYTHON_GLOBALS, to_text
from .fields import R_MIN_EVAL, TAU, segment_integrals

SIM_R_MIN = 1e-3
STEP_ANGLE_GUARD = 3.0   # radians per step; < pi so unwrapping stays unambiguous
MAX_STEPS = 1_000_000    # ~100 MB of logged columns and about half a minute of stepping
INTEGRATORS = ("leapfrog", "rk4")
_CHUNK = 4096            # steps per bookkeeping pass: ~1 MB of floats in flight
LOOP_CLOSURE_TOL = 1e-6  # a run whose end is this near its start gets the loop check
_EVAL_ERRORS = (DomainEvalError, NonFiniteError, SingularityError)


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
    (singularity, step-guard, coverage, evaluation or quadrature) and, for
    the first two, the distance to the singular point or the angle swept."""
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
    """Column-oriented log of a run: one array per logged quantity.  status
    is completed, or aborted- and the guard of abort (an Abort)."""

    def __init__(self, cfg, arrays, transitions, abort_reason, abort):
        self.field = cfg.field
        self.m = cfg.m
        for name, arr in arrays.items():
            setattr(self, name, arr)
        self.transitions = tuple(transitions)
        self.status = "completed" if abort is None else "aborted-" + abort.guard
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
    if ps is not None and ps.atlas is not cfg.atlas and _charts(ps.atlas) != _charts(cfg.atlas):
        raise ValidationError("potential set does not match the atlas: its charts differ "
                              "in id, walls, basepoint or singular points")
    if ps is not None and ps.field is not cfg.field and ps.field != cfg.field:
        raise ValidationError("potential set was built for another field")
    for sx, sy in cfg.field.singular_points:
        if math.hypot(cfg.q0[0] - sx, cfg.q0[1] - sy) < cfg.r_min:
            raise ValidationError("q0 starts within r_min of a singular point")
    if cfg.atlas.chart_for(cfg.q0) is None:
        raise ValidationError("q0 is not covered by the atlas")


def _charts(atlas):
    """What a chart's potential depends on, chart by chart in id order."""
    return [(cid, ch.constraints, ch.basepoint, ch.singular_points)
            for cid, ch in atlas.charts.items()]


def simulate(cfg, potentials=None):
    """Integrate and log the run; aborts are clean partial trajectories.

    status is one of completed, aborted-singularity, aborted-step-guard,
    aborted-coverage, aborted-evaluation, aborted-quadrature; tr.abort is
    the cause of an abort (an Abort) and None for a completed run.

    The step loop (leapfrog_loop or _rk4_loop) keeps only what feeds back
    into the state, and stops where _refusal gives the cause.  After every
    _CHUNK steps one numpy pass books the rest (the angles and the step-angle
    guard, the charts and coverage, p_theta and the chart hops) and cuts the
    run at the first step that fails a guard.  A run so steps up to one chunk
    past its abort, but logs what stepping and booking one step at a time
    would log.  Then one kernel call integrates V, the hops' jumps and
    work_acc; the first step with a row it refuses is a quadrature abort,
    which wins over any later one.
    """
    _validate_config(cfg, potentials)
    ps = potentials or PotentialSet.from_field(cfg.field, cfg.atlas)
    field, h, m, r_min = cfg.field, cfg.h, cfg.m, cfg.r_min
    n_steps = int(round(cfg.T / h))
    if n_steps < 1:
        raise ValidationError("T too small for the step size")

    x, y = float(cfg.q0[0]), float(cfg.q0[1])
    vx, vy = float(cfg.p0[0]), float(cfg.p0[1])
    try:
        fx, fy = field.eval_at(x, y)
    except _EVAL_ERRORS as exc:
        raise ValidationError(f"force undefined at q0: {exc}") from None
    loop = field.leapfrog_loop if cfg.integrator == "leapfrog" else partial(_rk4_loop, field)
    near = max(r_min, R_MIN_EVAL)

    book = _Books(cfg, ps)
    cause = None
    while book.steps < n_steps and cause is None:
        flat = [x, y, vx, vy, fx, fy]     # the last state kept, then one per step
        first, n = book.steps + 1, min(_CHUNK, n_steps - book.steps)
        try:
            kept, x, y = loop(x, y, vx, vy, fx, fy, h, m, near, n, flat.extend)
            cause = _refusal(field, first + kept, x, y, r_min) if kept < n else None
        except _EVAL_ERRORS as exc:     # eval_at refused a stage of an RK4 step
            cause = Abort(first + len(flat) // 6 - 1, "evaluation", None), str(exc)
        cause = book.chunk(flat) or cause
        x, y, vx, vy, fx, fy = flat[-6:]
    del flat    # up to a megabyte of floats: free before the post-pass
    return book.trajectory(*cause or (None, None))


# The one leapfrog (kick-drift-kick) text; leapfrog_loop fills in the field.
_LEAPFROG = """\
def loop(x, y, vx, vy, fx, fy, h, m, near, n, extend):
    hh = 0.5 * h
    for k in range(n):
        hx, hy = vx + hh * fx, vy + hh * fy
        x, y = x + h * hx / m, y + h * hy / m
        try:
            fx, fy = {fx}, {fy}
        except math_errors:
            return k, x, y
        if {near} or not (isfinite(fx) and isfinite(fy)):
            return k, x, y
        vx, vy = hx + hh * fx, hy + hh * fy
        extend((x, y, vx, vy, fx, fy))
    return n, x, y
"""


def leapfrog_loop(field):
    """loop(x, y, vx, vy, fx, fy, h, m, near, n, extend), field.leapfrog_loop:
    up to n steps, each new state passed to extend; returns how many it kept
    and where the last one taken ends.  It stops where a step ends within
    near of a singular point or its force (as eval_at's) raises or is not finite."""
    near = " or ".join(f"hypot(x - {sx!r}, y - {sy!r}) < near"
                       for sx, sy in field.singular_points)
    names = {**PYTHON_GLOBALS, "range": range, "hypot": math.hypot,
             "isfinite": math.isfinite, "math_errors": MATH_ERRORS}
    fx, fy = to_text([field.fx.root, field.fy.root], MATH_FUNCS)
    exec(_LEAPFROG.format(near=near or "False", fx=fx, fy=fy), names)
    return names["loop"]


def _rk4_loop(field, x, y, vx, vy, fx, fy, h, m, near, n, extend):
    """Classical RK4 steps under the contract of leapfrog_loop, with the field
    first, except that where eval_at refuses a step that does not end within
    near of a singular point, it raises."""
    force = field.eval_at
    for k in range(n):
        k1qx, k1qy = vx / m, vy / m
        f2 = force(x + 0.5 * h * k1qx, y + 0.5 * h * k1qy)
        k2qx, k2qy = (vx + 0.5 * h * fx) / m, (vy + 0.5 * h * fy) / m
        f3 = force(x + 0.5 * h * k2qx, y + 0.5 * h * k2qy)
        k3qx, k3qy = (vx + 0.5 * h * f2[0]) / m, (vy + 0.5 * h * f2[1]) / m
        nx = x + (h / 6.0) * (k1qx + 2 * k2qx + 2 * k3qx + (vx + h * f3[0]) / m)
        ny = y + (h / 6.0) * (k1qy + 2 * k2qy + 2 * k3qy + (vy + h * f3[1]) / m)
        if any(math.hypot(nx - sx, ny - sy) < near for sx, sy in field.singular_points):
            return k, nx, ny
        f4 = force(x + h * k3qx, y + h * k3qy)
        x, y = nx, ny
        vx = vx + (h / 6.0) * (fx + 2 * f2[0] + 2 * f3[0] + f4[0])
        vy = vy + (h / 6.0) * (fy + 2 * f2[1] + 2 * f3[1] + f4[1])
        fx, fy = force(x, y)
        extend((x, y, vx, vy, fx, fy))
    return n, x, y


def _refusal(field, k, x, y, r_min):
    """Why step k, ending at (x, y) where a loop stopped, is not kept: the
    r_min guard refuses (x, y), or else eval_at does (near >= r_min, R_MIN_EVAL)."""
    for sx, sy in field.singular_points:
        dist = math.hypot(x - sx, y - sy)
        if dist < r_min:
            return (Abort(k, "singularity", dist),
                    f"step {k} came within r_min={r_min} of ({sx}, {sy})")
    try:
        field.eval_at(x, y)
    except _EVAL_ERRORS as exc:
        return Abort(k, "evaluation", None), str(exc)


class _Books:
    """The logged columns and the hops of a run, booked a chunk of steps at a time."""

    def __init__(self, cfg, ps):
        self.cfg, self.ps = cfg, ps
        (self.sx, self.sy), self.center = cfg.field.columns
        self.steps = 0          # steps kept so far
        self.theta = None       # the angles at the last state kept
        self.blocks = []
        self.hops = []          # (step, t, old chart, new chart, crossing, in both charts)
        self.anchors = []       # the first state of each chunk and each chart entry

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
            theta, swept = self._angles(state[0], state[1])
            if swept is not None:
                end, j, r = swept
                sx, sy = field.singular_points[j]
                cause = (Abort(done + end + 1, "step-guard", r),
                         f"step {done + end + 1} swept {r:.3f} rad about ({sx}, {sy}); reduce h")
            k = int(row.argmax())
            if k <= end and row[k] == len(atlas.charts):
                end, cause = k - 1, (Abort(done + k, "coverage", None),
                                     f"step {done + k} left the atlas at "
                                     f"({flat[6 * k]}, {flat[6 * k + 1]})")
            state, row = state[:, :end + 1], row[:end + 1]
            theta = np.add.accumulate(theta[:end + 1], out=theta[:end + 1])
            lever = (state[:2] - self.center) * state[3:1:-1]   # (x - cx) py, (y - cy) px
        changes = _chart_changes(row).tolist()
        self.hops += [self._crossing(atlas.ids[row[k - 1]], atlas.ids[row[k]],
                                     state[:2, k - 1:k + 1].T.tolist(), done + k) for k in changes]
        first = 0 if self.theta is None else 1     # row 0 is booked already
        self.anchors += [done + k for k in sorted({first, *changes}) if k <= end]
        self.blocks.append((state[:4, first:], row[first:], theta[first:],
                            lever[0, first:] - lever[1, first:]))
        self.steps, self.theta = done + end, theta[-1]
        return cause

    def _crossing(self, old, new, q, k):
        """(step, time, old, new, point, in both charts) where a hop from
        chart old to chart new, on step k from q[0] to q[1], leaves the old
        chart; the jump of the potential there is minus the cocycle entry."""
        ch_old, ch_new, h = self.cfg.atlas.charts[old], self.cfg.atlas.charts[new], self.cfg.h
        (x0, y0), (x1, y1) = q
        s = ch_old.first_exit(q[0], q[1])
        s = 0.5 if s is None else s
        q_x = (x0 + s * (x1 - x0), y0 + s * (y1 - y0))
        both = ch_new.contains(q_x, 1e-6) and ch_old.contains(q_x, 1e-6)
        for cid in (new, old) if both else ():      # refuse as ps.value would
            self.ps.evaluators[cid].member(q_x)
        return k, k * h - (1.0 - s) * h, old, new, q_x, both

    def _angles(self, x, y):
        """The angle of each state (coordinates x, y) about each singular
        point, less its predecessor's and wrapped to [-pi, pi] as
        fields.unwrapped_angle wraps path steps (row 0: the angle kept last,
        or the first one); and (step, point, angle) of the first step that
        sweeps STEP_ANGLE_GUARD or more, or None."""
        theta = np.arctan2(y[:, None] - self.sy, x[:, None] - self.sx)
        d = theta[1:]
        d -= theta[:-1]
        d -= TAU * np.rint(d / TAU)
        if self.theta is not None:
            theta[0] = self.theta
        big = np.abs(d) >= STEP_ANGLE_GUARD
        if big.any():
            i, j = np.argwhere(big)[0].tolist()
            return theta, (i, j, float(d[i, j]))
        return theta, None

    def trajectory(self, cause, reason):
        """The Trajectory of the kept states, with V, the hops' jumps and
        work_acc from one kernel call.  Its rows: V of each state, from its
        chart's basepoint at an anchor and along the chord from the state
        before it elsewhere (in a chart, the potential does not depend on
        the path); two per hop inside both charts, from its new and its old
        chart's basepoint to its crossing; the chords at the later anchors.
        work_acc sums the chords.  A refused row ends the run before its
        step, as a failed guard does, and the kept states are integrated again."""
        cfg, ps = self.cfg, self.ps
        q, row, theta, p_theta = (
            p[0] if len(p) == 1 else np.concatenate(p, axis=-1 if k == 0 else 0)
            for k, p in enumerate(zip(*self.blocks)))
        self.blocks = None      # free the chunks before the post-pass
        n = len(row)
        while True:
            anchors, hops = [k for k in self.anchors if k < n], [h for h in self.hops if h[0] < n]
            pts = q[:2, :n].T
            starts = pts[np.arange(-1, n - 1)]      # row k - 1
            starts[anchors] = ps.basepoints[row[anchors]]
            extra = [(ps.atlas.charts[c].basepoint, q_x, k)      # (start, end, step)
                     for k, _, a, b, q_x, both in hops if both for c in (b, a)]
            extra += [(pts[k - 1], pts[k], k) for k in anchors[1:]]
            starts = np.concatenate([starts, np.reshape([e[0] for e in extra], (-1, 2))])
            ends = np.concatenate([pts, np.reshape([e[1] for e in extra], (-1, 2))])
            try:
                kernel = segment_integrals(cfg.field, starts, ends)
                break
            except NumericError as exc:
                k = exc.row if exc.row is None or exc.row < n else extra[exc.row - n][2]
                if not k:       # no row named, or the first state's potential
                    raise
                n, cause, reason = k, Abort(k, "quadrature", None), f"step {k}: {exc}"
        V, raw, chords = np.split(kernel, [n, len(kernel) - len(anchors) + 1])
        work_acc = V.copy()
        work_acc[0], work_acc[anchors[1:]] = 0.0, chords
        np.add.accumulate(work_acc, out=work_acc)
        for a, b in zip(anchors, anchors[1:] + [n]):
            np.add.accumulate(V[a:b], out=V[a:b])
        row, (qx, qy, px, py) = row[:n], q[:, :n]
        V = ps.gauge_array[row] - V
        raw, gauge = iter((-raw).tolist()), ps.gauges     # ps.value: gauge + raw
        transitions = [Transition(t, a, b, q_x, (gauge[b] + next(raw)) - (gauge[a] + next(raw))
                                  if both else None) for _, t, a, b, q_x, both in hops]
        with np.errstate(over="ignore"):    # momenta past 1e154 square to inf
            Tkin = (px ** 2 + py ** 2) / (2.0 * cfg.m)
        arrays = {
            "t": cfg.h * np.arange(n), "qx": qx, "qy": qy, "px": px, "py": py,
            "chart": np.array(cfg.atlas.ids)[row], "theta": theta[:n], "V": V, "Tkin": Tkin,
            "E_local": Tkin + V, "p_theta": p_theta[:n], "work_acc": work_acc,
        }
        return Trajectory(cfg, arrays, transitions, reason, cause)


def _chart_changes(chart):
    """The indices k >= 1 where chart[k] differs from chart[k - 1]."""
    return (chart[1:] != chart[:-1]).nonzero()[0] + 1


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


def energy_ledger(tr, ps, cc=None):
    """Per-chart-segment energy drift, transition-jump audit, and, for
    trajectories that end within LOOP_CLOSURE_TOL of their start, the
    kinetic energy gained against the sum over singular points of
    circulation times winding."""
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
    if gap <= LOOP_CLOSURE_TOL and tr.n_states > 2:
        delta_T = float(tr.Tkin[-1] - tr.Tkin[0])
        winding = tuple(int(w) for w in np.rint((tr.theta[-1] - tr.theta[0]) / TAU))
        expected = sum((tr.field.circulations[i] * w for i, w in enumerate(winding) if w), 0.0)
        loop = LoopCheck(gap, winding, delta_T, expected, abs(delta_T - expected))
    max_drift = max(s.max_drift for s in segments)
    return EnergyLedger(tuple(segments), max_drift, tuple(checks), loop)

