"""Force one-forms on punctured planar domains, paths, and line integrals.

The central objects are FieldOneForm (components fx, fy as expression
trees plus a list of singular points) and two path flavors, polyline and
parametric.  Every line integral goes through one kernel, _row_sums:
16-node Gauss-Legendre panels graded toward each singular point, bisected
where their Legendre tail is large.  A panel is straight, in the plane, or
in the parameter of a parametric path, whose form is pulled back with
tangents from the exact derivatives of the path's expressions.  Straight
segments come one call per batch (segment_integrals): a polyline's edges,
a chart's overlap samples, a run's logged V.

Winding numbers are deliberately not computed as a work integral: they
come from continuous angle accumulation with principal-value steps kept
below pi/2 by recursive subdivision.  That keeps the two routes
independent so one can check the other.

Closedness is probed with the exact partials dfx/dy and dfy/dx, relative
to their size, so a closed field reads at rounding level even near a
singular point; no derivative here is a finite difference.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DomainEvalError,
    NonFiniteError,
    RefinementLimitError,
    SingularityError,
    ValidationError,
)
from .exprlang import (MATH_ERRORS, QUIET, Call, Num, ScalarExpr, Var, at_shape, compile_tuple,
                       fold, parse_expr)

TAU = math.tau
R_MIN_EVAL = 1e-9
DEFAULT_SEGMENTS = 2000
MAX_PATH_SEGMENTS = 100_000    # parameter segments of a ParametricPath
MAX_CLOSEDNESS_GRID = 1000     # nodes per side of the closedness grid
PATH_CLOSE_TOL = 1e-12
PROBE_REGION = (0.5, 0.5, 2.0, 2.0)    # where is_closed tests closedness by default
_THETA_MAX = math.pi / 2
_MAX_REFINE_DEPTH = 48          # halvings of an angle step; bisection rounds of a panel
MAX_SEGMENT_LENGTH = 1e5


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_S = 0.5 * (_GL_X + 1.0)     # the Gauss-Legendre nodes moved to [0, 1]
_GL_H = 0.5 * _GL_W             # weights on [0, 1]; they sum to 1, so only an
                                # integral past the double range overflows
# c_k = (2k + 1) sum_j h_j P_k(x_j) g_j: the Legendre coefficients of the
# interpolant of the node values g_j; column 0 is _GL_H, the panel integral
_GL_TAIL = (np.polynomial.legendre.legvander(_GL_X, 15)
            * (_GL_H[:, None] * (2.0 * np.arange(16) + 1.0)))[:, [0, 12, 13, 14, 15]]
_TAIL_SUM = np.array([0.0, 1.0, 1.0, 1.0, 1.0])   # |c_12| + ... + |c_15| as a product
_GL_NODES = np.stack([np.ones(16), _GL_S])        # (start, width) -> the 16 nodes
# Exact to degree 31: a tail of q * scale at degree 12, falling geometrically,
# leaves about q^(32/12) * scale past 31, under the terms' rounding eps * scale
# once q <= eps^(3/8) (Trefethen, ATAP ch. 8 and 19)
_TAIL_TOL = np.finfo(float).eps ** 0.375
# A kink where the integrand vanishes, or a jump, keeps a panel's q as it
# halves; such a panel is kept once its tail is under eps^(3/4) of its
# row's scale, about 20 halvings for a kink and 40 for a jump
_ROW_TOL = np.finfo(float).eps ** 0.75
_MAX_SEGMENT_PANELS = 4096      # bounds the work and memory of one segment or path
_APPROACH_STEPS = 3             # Gauss-Newton steps to a path's closest approach
_POW2 = np.ldexp(np.tile([-1.0, 1.0], 1024), np.arange(2048) // 2)   # -+2^j, j = 0, 1, ...
_H_MIN = np.finfo(float).tiny   # least first cut offset h: h 2^j passes 1 within _POW2
_BLOCK_PANELS = 512             # panels per field evaluation (8 192 nodes)
_BLOCK_STATES = 2048            # (segment, singular point) pairs cut at once


# ---------------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class FieldOneForm:
    """A one-form fx dx + fy dy with known singular points."""

    fx: ScalarExpr
    fy: ScalarExpr
    singular_points: tuple = ()

    def eval_at(self, x, y):
        for sx, sy in self.singular_points:
            if math.hypot(x - sx, y - sy) < R_MIN_EVAL:
                raise SingularityError(
                    f"evaluation within r_min={R_MIN_EVAL} of singular point ({sx}, {sy})"
                )
        try:
            vx, vy = self.pair_fn(x, y)
            if math.isfinite(vx) and math.isfinite(vy):     # as ScalarExpr.evaluate
                return vx, vy
        except MATH_ERRORS as exc:
            raise DomainEvalError(f"field evaluation failed at ({x}, {y}): {exc}") from None
        raise NonFiniteError(f"non-finite field value at ({x}, {y})")

    def eval_array(self, xs, ys, r_min=R_MIN_EVAL):
        """The field at the points of the arrays xs, ys.  r_min = 0 skips the
        distance pass, for nodes kept away already.  numpy carries inf and
        nan through a division by zero, an invalid operation or an overflow,
        and a later step may absorb them (1/(1/x) at x = 0, where eval_at
        raises); a value that is not finite comes back as it is, for the
        caller to refuse."""
        with np.errstate(**QUIET):
            for sx, sy in self.singular_points if r_min else ():
                dx, dy = xs - sx, ys - sy
                if np.count_nonzero(dx * dx + dy * dy < r_min * r_min):
                    raise SingularityError(
                        f"evaluation within r_min={r_min} of singular point ({sx}, {sy})"
                    )
            try:
                return tuple(at_shape(v, (xs,)) for v in self.pair_array(xs, ys))
            except MATH_ERRORS as exc:      # constants run in Python floats
                raise DomainEvalError(f"bulk field evaluation failed: {exc}") from None

    @property
    def center(self):
        """Where lifts and p_theta are taken about: the first
        singular point, or the origin when there is none."""
        return self.singular_points[0] if self.singular_points else (0.0, 0.0)

    @cached_property
    def circulations(self):
        """The work around a small circle about each singular point, in
        order: radius 0.5, or half the distance to the nearest other one."""
        out, pts = [], self.singular_points
        for i, (sx, sy) in enumerate(pts):
            others = pts[:i] + pts[i + 1:]
            r = min([0.5] + [0.5 * math.hypot(ox - sx, oy - sy) for ox, oy in others])
            out.append(work(self, circle_path(sx, sy, r, 1.0, 512)))
        return tuple(out)

    @cached_property
    def columns(self):
        """The singular points as a (2, 1, n) array and the center as a (2, 1) column."""
        return (np.reshape(np.array(self.singular_points, float).T, (2, 1, -1)),
                np.reshape(self.center, (2, 1)))

    @cached_property
    def pair_fn(self):
        """(fx, fy) by one math closure, built on first use and kept."""
        return compile_tuple((self.fx, self.fy))

    @cached_property
    def pair_array(self):
        """(fx, fy) by one numpy closure: a constant comes back as a scalar."""
        return compile_tuple((self.fx, self.fy), "numpy")

    @cached_property
    def leapfrog_loop(self):
        """dynamics.leapfrog_loop(self), built once, like pair_fn."""
        from .dynamics import leapfrog_loop
        return leapfrog_loop(self)


def from_components(fx_source, fy_source, singular_points=()):
    points = tuple((float(a), float(b)) for a, b in singular_points)
    if not all(map(math.isfinite, chain.from_iterable(points))):
        raise ValidationError("singular points must be finite")
    return FieldOneForm(parse_expr(fx_source), parse_expr(fy_source), points)


def vortex():
    """The closed, non-exact unit-circulation field on the punctured plane."""
    return from_components("-y/(x^2+y^2)", "x/(x^2+y^2)", singular_points=((0.0, 0.0),))


def zero_field():
    return from_components("0", "0")


# ---------------------------------------------------------------------------
# paths

class _Path:
    """A path closes when its ends lie within PATH_CLOSE_TOL."""

    @property
    def is_closed(self):
        (x0, y0), (x1, y1) = self.start, self.end
        return math.hypot(x1 - x0, y1 - y0) <= PATH_CLOSE_TOL


class PolylinePath(_Path):
    """Straight segments through an ordered vertex list."""

    def __init__(self, vertices):
        pts = [(float(a), float(b)) for a, b in vertices]
        if len(pts) < 2:
            raise ValidationError("a polyline needs at least two vertices")
        self.vertices = tuple(pts)

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def edges(self):
        return zip(self.vertices[:-1], self.vertices[1:])

    def reversed(self):
        return PolylinePath(self.vertices[::-1])

    def __repr__(self):
        return f"PolylinePath({len(self.vertices)} vertices)"


class ParametricPath(_Path):
    """t -> (x(t), y(t)) over [t0, t1], sampled at n parameter segments."""

    def __init__(self, x_expr, y_expr, t0, t1, n=DEFAULT_SEGMENTS):
        if isinstance(x_expr, str):
            x_expr = parse_expr(x_expr, ("t",))
        if isinstance(y_expr, str):
            y_expr = parse_expr(y_expr, ("t",))
        if x_expr.variables != ("t",) or y_expr.variables != ("t",):
            raise ValidationError("parametric components must be expressions in t")
        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
            raise ValidationError("need a nondegenerate finite parameter interval")
        if not 1 <= n <= MAX_PATH_SEGMENTS:
            raise ValidationError(f"need 1 to {MAX_PATH_SEGMENTS} parameter segments, got {n}")
        self.x_expr = x_expr
        self.y_expr = y_expr
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.n = int(n)

    @cached_property
    def _compiled(self):
        x, y = self.x_expr, self.y_expr
        return compile_tuple((x, y, x.diff("t"), y.diff("t")), "numpy")

    def point_tangent_array(self, ts):
        """x, y, dx/dt and dy/dt at the parameters ts, by one closure."""
        with np.errstate(**QUIET):
            try:
                return [at_shape(v, (ts,)) for v in self._compiled(ts)]
            except MATH_ERRORS as exc:
                raise DomainEvalError(f"path evaluation failed: {exc}") from None

    def point(self, t):
        return tuple(float(v[0]) for v in self.point_tangent_array(np.array([t]))[:2])

    def point_array(self, ts):
        return self.point_tangent_array(ts)[:2]

    @property
    def start(self):
        return self.point(self.t0)

    @property
    def end(self):
        return self.point(self.t1)

    def sample(self):
        ts = np.linspace(self.t0, self.t1, self.n + 1)
        return np.column_stack(self.point_array(ts))

    def __repr__(self):
        return (
            f"ParametricPath({self.x_expr.to_source()}, {self.y_expr.to_source()}, "
            f"[{self.t0}, {self.t1}], n={self.n})"
        )


def circle_path(cx, cy, r, turns=1.0, n=DEFAULT_SEGMENTS):
    """Circle of radius r about (cx, cy); turns < 0 runs clockwise."""
    cx, cy, r, w = (float(v) for v in (cx, cy, r, turns))
    if not all(math.isfinite(v) for v in (cx, cy, r, w)):
        raise ValidationError("circle center, radius and turns must be finite")
    if r <= 0:
        raise ValidationError("circle radius must be positive")
    angle = fold("*", Num(w), Var("t"))
    x, y = (ScalarExpr(fold("+", Num(c), fold("*", Num(r), Call(f, (angle,)))), ("t",))
            for c, f in ((cx, "cos"), (cy, "sin")))
    return ParametricPath(x, y, 0.0, TAU, n)


def concatenate(first, second):
    """Join two polylines whose endpoints meet."""
    if not isinstance(first, PolylinePath) or not isinstance(second, PolylinePath):
        raise ValidationError("concatenation is defined for polylines")
    (x1, y1), (x2, y2) = first.end, second.start
    if math.hypot(x2 - x1, y2 - y1) > 1e-9:
        raise ValidationError("paths do not meet end to start")
    return PolylinePath(first.vertices + second.vertices[1:])


# ---------------------------------------------------------------------------
# quadrature

def closest_approach(a, b, p):
    """Where the segment a -> b passes nearest to p: the parameter s in
    [0, 1] of that point, and its distance from p (+, -, *, / and sqrt
    only, so _batch_cuts repeats it bit for bit)."""
    dx, dy, rx, ry = b[0] - a[0], b[1] - a[1], p[0] - a[0], p[1] - a[1]
    L2 = dx * dx + dy * dy
    s = min(1.0, max(0.0, (rx * dx + ry * dy) / L2)) if L2 > 0.0 else 0.0
    ex, ey = rx - s * dx, ry - s * dy
    return s, math.sqrt(ex * ex + ey * ey)


def _cuts(a, b, singular_points):
    """Sorted distinct panel breakpoints in [0, 1] of the segment a -> b:
    for each singular point, with s* the closest approach and d the
    distance there, s* +- (d / 2L) 2^j, j = 0, 1, ..., inside (0, 1).  No
    panel is wider than its distance to the point, so each is analytic in
    a Bernstein ellipse of fixed size (Trefethen, ATAP ch. 8), and there
    are about log(L/d) of them (Schwab, Computing 53, 1994)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise NonFiniteError(f"non-finite segment {tuple(a)} -> {tuple(b)}")
    L = math.sqrt(dx * dx + dy * dy)
    if L > MAX_SEGMENT_LENGTH:
        raise ValidationError(f"segment longer than {MAX_SEGMENT_LENGTH:g}")
    cuts = [0.0, 1.0] if L > 0.0 else [0.0]
    for p in singular_points if L > 0.0 else ():
        s, d = closest_approach(a, b, p)
        h = d / (2.0 * L)
        if d < R_MIN_EVAL or h < _H_MIN:
            raise SingularityError(
                f"segment passes within r_min={R_MIN_EVAL} of singular point {p}")
        while s - h > 0.0 or s + h < 1.0:
            cuts += [c for c in (s - h, s + h) if 0.0 < c < 1.0]
            h *= 2.0
    return sorted(set(cuts))


def _batch_cuts(field, a, b):
    """_cuts of the segments a -> b, the columns of the (2, n) arrays a (or
    its one column) and b, flat: each panel's start, width and row, row
    after row; with the displacements b - a."""
    d = b - a
    L2 = d[0] * d[0] + d[1] * d[1]
    L = np.sqrt(L2)
    if not np.maximum.reduce(L, initial=0.0) <= MAX_SEGMENT_LENGTH:   # raise as _cuts does
        k = int(np.argmin(L <= MAX_SEGMENT_LENGTH))
        _cuts(a[:, k % a.shape[1]].tolist(), b[:, k].tolist(), ())
    if not field.singular_points:
        owner = np.flatnonzero(L)
        return np.zeros(len(owner)), np.ones(len(owner)), owner, d
    # closest_approach per (row, point); a zero-length row is NaN from here on
    r = field.columns[0] - a[:, :, None]
    s = r * d[:, :, None]
    s = np.minimum(np.maximum((s[0] + s[1]) / L2[:, None], 0.0), 1.0)
    e = r - s * d[:, :, None]
    e *= e
    dist = np.sqrt(e[0] + e[1])
    h = dist / (2.0 * L[:, None])
    near = (dist < R_MIN_EVAL) | (h < _H_MIN)
    if np.count_nonzero(near):
        k = np.argwhere(near)[0, 0]
        _cuts(a[:, k % a.shape[1]].tolist(), b[:, k].tolist(), field.singular_points)
    return (*_graded_cuts(s, h), d)


def _graded_cuts(s, h):
    """The panels of [0, 1] cut as _cuts cuts, at s -+ h 2^j until h 2^j >= 1
    on every row, for the closest approaches s and first offsets h, (rows,
    points) arrays: each panel's start, width and row, row after row.  In
    the cuts, clipped to [0, 1] and sorted row by row, a panel is a positive step."""
    hmin = np.fmin.reduce(h, axis=None, initial=np.inf)
    c = s[..., None] + h[..., None] * _POW2[:2 * max(1, 2 - math.frexp(hmin)[1])]
    c = np.sort(np.minimum(np.maximum(c, 0.0), 1.0).reshape(len(s), -1), axis=1).ravel()
    width = c[1:] - c[:-1]
    keep = (width > 0.0).nonzero()[0]
    return c[keep], width[keep], keep // (len(c) // len(s))


def _path_panels(field, path):
    """A ParametricPath's panels in t, as pan of _panel_sums, cut as _cuts
    cuts a segment: s* is the closest approach to a singular point, in
    s = (t - t0) / (t1 - t0), and L the speed there times |t1 - t0|.  The
    search starts at the nearest of the path's n + 1 samples, so no spike
    between nodes is missed, and takes _APPROACH_STEPS Gauss-Newton steps
    on (gamma - p).gamma' = 0 within the sample intervals either side."""
    (px, py), (t0, t1) = field.columns[0][:, 0], (path.t0, path.t1)
    if not field.singular_points:
        return np.array([[[t0]], [[t1 - t0]]])
    ts = np.linspace(t0, t1, path.n + 1)
    x, y, dx, dy = path.point_tangent_array(ts)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("non-finite path sample")
    rx, ry = x[:, None] - px, y[:, None] - py
    i = np.argmin(rx * rx + ry * ry, axis=0)
    lo, hi = np.sort([ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, path.n)]], axis=0)
    t, x, y, dx, dy = ts[i], x[i], y[i], dx[i], dy[i]
    for _ in range(_APPROACH_STEPS):
        step = ((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy)
        t = np.fmin(np.fmax(t - step, lo), hi)      # a NaN step leaves t at lo
        x, y, dx, dy = path.point_tangent_array(t)
    if not np.isfinite([x, y, dx, dy]).all():
        raise NonFiniteError("non-finite path point or tangent")
    d = np.hypot(x - px, y - py)
    h = d / (2.0 * np.hypot(dx, dy) * abs(t1 - t0))
    near = np.flatnonzero((d < R_MIN_EVAL) | (h < _H_MIN))
    if len(near):
        raise SingularityError(f"path passes within r_min={R_MIN_EVAL} of singular point "
                               f"{field.singular_points[near[0]]}")
    lo, width, _ = _graded_cuts(((t - t0) / (t1 - t0))[None], h[None])
    return np.stack([t0 + lo * (t1 - t0), width * (t1 - t0)])[:, None]


def _panel_sums(field, pan, path=None):
    """16-node Gauss-Legendre sums of g over the panels from pan[0, :, i]
    to pan[0, :, i] + pan[1, :, i], _BLOCK_PANELS per field evaluation;
    with each its tail |c_12| + ... + |c_15| and scale sum_j h_j |g_j|_1.
    A straight panel (no path) has nodes x0 + ex s_j, y0 + ey s_j and
    g = (fx ex, fy ey), and no distance pass: the cuts keep the nodes r_min
    from the singular points.  A path's panel has nodes gamma(t0 + w s_j)
    and g = (fx x', fy y') w."""
    if pan.shape[2] > _BLOCK_PANELS:
        parts = [_panel_sums(field, pan[..., i:i + _BLOCK_PANELS], path)
                 for i in range(0, pan.shape[2], _BLOCK_PANELS)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    if (k := pan.shape[2]) == 1:    # numpy's one-row matmul rounds otherwise: two rows
        pan = pan.repeat(2, 2)
    nodes = pan.transpose(1, 2, 0) @ _GL_NODES   # start + width s_j
    if path is None:
        xs, ys, jx, jy, r_min = nodes[0], nodes[1], pan[1, 0, :, None], pan[1, 1, :, None], 0.0
    else:
        xs, ys, jx, jy = path.point_tangent_array(nodes[0])
        jx, jy, r_min = jx * pan[1, 0, :, None], jy * pan[1, 0, :, None], R_MIN_EVAL
    vx, vy = field.eval_array(xs[:k].reshape(-1), ys[:k].reshape(-1), r_min)
    gx = vx.reshape(k, _GL_S.size) * jx
    gy = vy.reshape(k, _GL_S.size) * jy
    c = (gx + gy) @ _GL_TAIL
    return c[:k, 0], (np.abs(c) @ _TAIL_SUM)[:k], ((np.abs(gx) + np.abs(gy)) @ _GL_H)[:k]


def _row_sums(field, pan, owner, rows, path=None, first=0):
    """The panel integrals (see _panel_sums) summed per row, owner giving
    each panel's row.  A panel whose tail is over _TAIL_TOL of its scale
    and over _ROW_TOL of its row's first-round scale is bisected and
    integrated again, all rows in one round (Piessens et al., QUADPACK,
    1983).  A row past _MAX_REFINE_DEPTH rounds or _MAX_SEGMENT_PANELS
    added panels is refused and refined no further (RefinementLimitError),
    and so is one whose sum is not finite, from a field value or a panel
    past the double range (NonFiniteError): the error names the lowest, as
    first + its index."""
    out, added = 0.0, np.zeros(rows, np.intp)
    for depth in range(_MAX_REFINE_DEPTH + 1):
        sums, tail, scale = _panel_sums(field, pan, path)
        bad = tail > _TAIL_TOL * scale
        if np.count_nonzero(bad):
            if not depth:
                floor = _ROW_TOL * np.bincount(owner, scale, rows)
            bad &= tail > floor[owner]
        if not np.count_nonzero(bad):
            out = out + np.bincount(owner, sums, rows)
            break
        out = out + np.bincount(owner, np.where(bad, 0.0, sums), rows)
        owner, half = owner[bad], pan[..., bad]     # a copy: (start, width)
        added += np.bincount(owner, minlength=rows)
        live = added[owner] <= _MAX_SEGMENT_PANELS
        owner, half = owner[live], half[..., live]
        half[1] *= 0.5
        right = half.copy()
        right[0] += half[1]
        owner, pan = np.tile(owner, 2), np.concatenate([half, right], 2)
    else:
        added[owner] = _MAX_SEGMENT_PANELS + 1      # unresolved after the last round
    capped = added > _MAX_SEGMENT_PANELS
    refused = capped | ~np.isfinite(out)
    if np.count_nonzero(refused):
        row = int(refused.argmax())
        error = (RefinementLimitError("segment quadrature did not converge: the field may vary "
                                      "too fast, or have a singular point that is not declared")
                 if capped[row] else NonFiniteError("non-finite field value or line integral"))
        error.row = first + row
        raise error
    return out


def segment_integrals(field, a, bs):
    """Line integrals along the segments a -> b for the rows b of the (n, 2)
    array bs, from one start point a (shape (2,) or (1, 2)) or from row i of
    an (n, 2) array a: _batch_cuts panels refined by _row_sums, _BLOCK_STATES
    (segment, singular point) pairs at a time.  No row depends on the
    others; the error of a row _row_sums refuses names the lowest such row."""
    bs = np.asarray(bs, dtype=float).reshape(-1, 2)
    starts = np.broadcast_to(np.asarray(a, dtype=float).reshape(-1, 2), bs.shape)
    out = np.empty(len(bs))
    with np.errstate(over="ignore", invalid="ignore"):
        step = max(1, _BLOCK_STATES // max(1, len(field.singular_points)))
        for i in range(0, len(bs), step):
            a_j, b_j = starts[i:i + step].T, bs[i:i + step].T
            lo, width, owner, d = _batch_cuts(field, a_j, b_j)
            d, pan = d.take(owner, 1), np.empty((2, 2, len(owner)))
            np.multiply(lo, d, out=pan[0])    # then x0 = ax + lo dx, ...
            pan[0] += a_j.take(owner, 1)
            np.multiply(width, d, out=pan[1])
            out[i:i + step] = _row_sums(field, pan, owner, b_j.shape[1], first=i)
    return out


def segment_work(field, a, b):
    """Line integral of the field along the straight segment a -> b: the
    one-segment case of segment_integrals, with the same cuts and panels
    but no batch bookkeeping."""
    cuts = _cuts(a, b, field.singular_points)
    (ax, ay), dx, dy = a, b[0] - a[0], b[1] - a[1]
    pan = np.array([[[lo * dx + ax, lo * dy + ay], [(hi - lo) * dx, (hi - lo) * dy]]
                    for lo, hi in zip(cuts, cuts[1:])]).reshape(-1, 2, 2).transpose(1, 2, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_row_sums(field, pan, np.zeros(len(cuts) - 1, np.intp), 1)[0])


def work(field, path, quad=None):
    """Work integral of the field along the path, by the kernel's
    error-controlled panels: a polyline's edges in one segment_integrals
    call, a ParametricPath's _path_panels in one _row_sums call.

    quad is ignored, as no rule is chosen any more; the third positional
    parameter stays for callers that still pass one, such as perfbench's
    queries workload.
    """
    if isinstance(path, PolylinePath):
        v = np.array(path.vertices)
        return float(segment_integrals(field, v[:-1], v[1:]).sum())
    with np.errstate(**QUIET):
        pan = _path_panels(field, path)
        return float(_row_sums(field, pan, np.zeros(pan.shape[2], np.intp), 1, path)[0])


# ---------------------------------------------------------------------------
# winding

def _angle_about(p, about):
    dx, dy = p[0] - about[0], p[1] - about[1]
    if dx == 0.0 and dy == 0.0:
        raise SingularityError("path touches the reference point")
    return math.atan2(dy, dx)


def unwrapped_angle(path, about=(0.0, 0.0)):
    """Continuous angle about a point at each sample of a path.

    path is a ParametricPath (sampled at its n + 1 parameter values), a
    PolylinePath, or an (n, 2) array of points joined by chords, such as
    a logged trajectory (n >= 1).  Principal-value steps between
    consecutive samples come from one vectorized pass; a step over pi/2
    is split at its midpoint (in t for parametric paths, on the chord
    otherwise) until every piece complies or the depth limit trips.
    Entry 0 is the principal angle of the first sample.
    """
    return angle_samples(path, about)[1]


def angle_samples(path, about=(0.0, 0.0)):
    """The samples of path as an (n, 2) array, and unwrapped_angle there."""
    if isinstance(path, ParametricPath):
        params, pts = np.linspace(path.t0, path.t1, path.n + 1), path.sample()
        point_at = path.point
    else:
        vertices = path.vertices if isinstance(path, PolylinePath) else path
        # a chord is parametrized by its own endpoints, so the parameter
        # midpoint is the chord midpoint
        pts = params = np.asarray(vertices, dtype=float).reshape(-1, 2)
        point_at = tuple
    dx = pts[:, 0] - about[0]
    dy = pts[:, 1] - about[1]
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
        raise NonFiniteError("non-finite path sample or reference point")
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise SingularityError("path touches the reference point")
    raw = np.arctan2(dy, dx)
    steps = np.diff(raw)
    steps -= TAU * np.rint(steps / TAU)
    for k in np.flatnonzero(np.abs(steps) > _THETA_MAX):
        steps[k] = _refined_step(
            point_at, about, params[k], raw[k], params[k + 1], raw[k + 1],
            _MAX_REFINE_DEPTH,
        )
    return pts, np.cumsum(np.concatenate([raw[:1], steps]))


def _refined_step(point_at, about, s0, a0, s1, a1, depth):
    d = math.remainder(a1 - a0, TAU)
    if abs(d) <= _THETA_MAX:
        return d
    if depth <= 0:
        raise RefinementLimitError(
            "angle step refinement hit its depth limit; the path is too coarse "
            "or passes through the reference point"
        )
    sm = 0.5 * (s0 + s1)
    am = _angle_about(point_at(sm), about)
    return _refined_step(point_at, about, s0, a0, sm, am, depth - 1) + _refined_step(
        point_at, about, sm, am, s1, a1, depth - 1
    )


def angle_change(path, about=(0.0, 0.0)):
    """Continuous angle swept about a point along the path."""
    track = unwrapped_angle(path, about)
    return float(track[-1] - track[0])


@dataclass(frozen=True)
class WindingResult:
    number: int
    residual: float


def winding_number(path, about=(0.0, 0.0)):
    """Winding number of a closed path about a point, with the distance of
    the accumulated angle from 2*pi*n as a residual."""
    if not path.is_closed:
        raise ValidationError("winding number requires a closed path")
    swept = angle_change(path, about)
    n = int(round(swept / TAU))
    return WindingResult(n, abs(swept - TAU * n))


# ---------------------------------------------------------------------------
# closedness

@dataclass(frozen=True)
class ClosednessReport:
    passed: bool
    max_residual: float
    tol: float
    grid: int
    region: tuple
    worst_point: tuple


def is_closed(field, region=PROBE_REGION, grid=20, tol=1e-4):
    """Check d(fx dx + fy dy) = 0 on a grid x grid lattice over region.

    The residual |dfx/dy - dfy/dx| / max(1, |dfx/dy| + |dfy/dx|) comes from
    the exact partials (ScalarExpr.diff), so a closed field reads at rounding
    level even where they grow like 1/r^2 near a singular point.  region is
    a finite (x0, y0, x1, y1); no grid node may lie within R_MIN_EVAL of a singular
    point, grid is at most MAX_CLOSEDNESS_GRID, and tol is finite and positive.
    """
    x0, y0, x1, y1 = (float(v) for v in region)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise ValidationError(f"region {(x0, y0, x1, y1)} is not finite")
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("region must satisfy x1 > x0 and y1 > y0")
    if not 0.0 < tol < math.inf:    # nan fails both
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    if not 2 <= grid <= MAX_CLOSEDNESS_GRID:
        raise ValidationError(f"grid must be in [2, {MAX_CLOSEDNESS_GRID}], got {grid}")
    X, Y = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid))
    for sx, sy in field.singular_points:
        if float(np.min(np.hypot(X - sx, Y - sy))) < R_MIN_EVAL:
            raise SingularityError(
                f"closedness grid within r_min={R_MIN_EVAL} of singular point ({sx}, {sy})"
            )
    with np.errstate(**QUIET):      # a constant partial broadcasts in resid
        try:
            dfx, dfy = compile_tuple((field.fx.diff("y"), field.fy.diff("x")), "numpy")(X, Y)
        except MATH_ERRORS as exc:
            raise DomainEvalError(f"closedness check failed: {exc}") from None
    resid = np.abs(dfx - dfy) / np.maximum(1.0, np.abs(dfx) + np.abs(dfy))
    if not np.all(np.isfinite(resid)):
        raise NonFiniteError("non-finite derivative in closedness check")
    k = int(np.argmax(resid))
    worst = (float(X.ravel()[k]), float(Y.ravel()[k]))
    mr = float(np.max(resid))
    return ClosednessReport(mr < tol, mr, tol, grid, (x0, y0, x1, y1), worst)


def classify(field, atlas=None):
    """Label a field exact, closed-not-exact, or not-closed.

    Closedness comes from the exact-derivative residual of is_closed on
    PROBE_REGION; the exact/closed-not-exact split is decided by the chart
    machinery (potentials, cocycle, spanning-tree periods).
    """
    from . import atlas as atlas_mod

    report = is_closed(field)
    if not report.passed:
        return "not-closed"
    if atlas is None:
        atlas = atlas_mod.atlas_for(field.singular_points)
    potentials = atlas_mod.PotentialSet.from_field(field, atlas)
    cocycle = atlas_mod.cocycle(potentials)
    result = atlas_mod.exactness_test(cocycle)
    return "exact" if result.exact else "closed-not-exact"
