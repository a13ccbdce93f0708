"""Force one-forms on punctured planar domains, paths, and line integrals.

The central objects are FieldOneForm (components fx, fy as expression
trees plus a list of singular points) and two path flavors, polyline and
parametric.  Parametric work pulls the form back to the parameter
interval under a composite trapezoid, Simpson or Gauss-Legendre rule,
with tangents from the exact derivatives of the path's expressions.
Every straight segment goes through one kernel, segment_integrals (16-node
Gauss-Legendre panels graded toward each singular point), one call per
batch: a polyline's edges, a chart's overlap samples, a run's logged V.

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
from itertools import chain, repeat

import numpy as np

from .errors import (
    DomainEvalError,
    NonFiniteError,
    RefinementLimitError,
    SingularityError,
    ValidationError,
)
from .exprlang import Call, Num, ScalarExpr, Var, fold, parse_expr

TAU = math.tau
R_MIN_EVAL = 1e-9
DEFAULT_SEGMENTS = 2000
MAX_PATH_SEGMENTS = 100_000    # parameter segments of a ParametricPath
MAX_CLOSEDNESS_GRID = 1000     # nodes per side of the closedness grid
PATH_CLOSE_TOL = 1e-12
_THETA_MAX = math.pi / 2
_MAX_REFINE_DEPTH = 48
MAX_SEGMENT_LENGTH = 1e5
_PANELS_PER_UNIT = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_S = 0.5 * (_GL_X + 1.0)     # the Gauss-Legendre nodes moved to [0, 1]
_GL_H = 0.5 * _GL_W             # weights on [0, 1]; they sum to 1, so only an
                                # integral past the double range overflows
_BLOCK_PANELS = 1024            # panels per field evaluation (16 384 nodes)
_BLOCK_STATES = 1024            # segments whose cuts are built at once


# ---------------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class FieldOneForm:
    """A one-form fx dx + fy dy with known singular points."""

    fx: ScalarExpr
    fy: ScalarExpr
    singular_points: tuple = ()
    name: str = ""

    def eval_at(self, x, y, r_min=R_MIN_EVAL):
        self._guard_point(x, y, r_min)
        try:
            vx = self.fx.scalar_fn(x, y)
            vy = self.fy.scalar_fn(x, y)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainEvalError(f"field evaluation failed at ({x}, {y}): {exc}") from None
        if not (math.isfinite(vx) and math.isfinite(vy)):
            raise NonFiniteError(f"non-finite field value at ({x}, {y})")
        return vx, vy

    def eval_array(self, xs, ys, r_min=R_MIN_EVAL):
        # r_min = 0 skips the distance pass, for nodes kept away already
        for sx, sy in self.singular_points if r_min else ():
            d2 = (xs - sx) ** 2 + (ys - sy) ** 2
            if d2.size and float(np.min(d2)) < r_min * r_min:
                raise SingularityError(
                    f"evaluation within r_min={r_min} of singular point ({sx}, {sy})"
                )
        vx = self.fx.array_fn(xs, ys)
        vy = self.fy.array_fn(xs, ys)
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
            raise NonFiniteError("non-finite field value in bulk evaluation")
        return vx, vy

    @property
    def center(self):
        """Where polar views, lifts and p_theta are taken about: the first
        singular point, or the origin when there is none."""
        return self.singular_points[0] if self.singular_points else (0.0, 0.0)

    def _guard_point(self, x, y, r_min):
        for sx, sy in self.singular_points:
            if math.hypot(x - sx, y - sy) < r_min:
                raise SingularityError(
                    f"evaluation within r_min={r_min} of singular point ({sx}, {sy})"
                )


def from_components(fx_source, fy_source, singular_points=(), name=""):
    points = tuple((float(a), float(b)) for a, b in singular_points)
    if not all(map(math.isfinite, chain.from_iterable(points))):
        raise ValidationError("singular points must be finite")
    return FieldOneForm(parse_expr(fx_source), parse_expr(fy_source), points, name)


def vortex():
    """The closed, non-exact unit-circulation field on the punctured plane."""
    return from_components(
        "-y/(x^2+y^2)", "x/(x^2+y^2)", singular_points=((0.0, 0.0),), name="vortex"
    )


def zero_field():
    return from_components("0", "0", name="zero")


# ---------------------------------------------------------------------------
# paths

class PolylinePath:
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

    @property
    def is_closed(self):
        (x0, y0), (x1, y1) = self.start, self.end
        return math.hypot(x1 - x0, y1 - y0) <= PATH_CLOSE_TOL

    def edges(self):
        return zip(self.vertices[:-1], self.vertices[1:])

    def sample(self, n=None):
        return np.asarray(self.vertices, dtype=float)

    def reversed(self):
        return PolylinePath(self.vertices[::-1])

    def __repr__(self):
        return f"PolylinePath({len(self.vertices)} vertices)"


class ParametricPath:
    """t -> (x(t), y(t)) over [t0, t1], sampled at n segments by default."""

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

    def point(self, t):
        return self.x_expr.scalar_fn(t), self.y_expr.scalar_fn(t)

    def point_array(self, ts):
        return self.x_expr.array_fn(ts), self.y_expr.array_fn(ts)

    @property
    def start(self):
        return self.point(self.t0)

    @property
    def end(self):
        return self.point(self.t1)

    @property
    def is_closed(self):
        (x0, y0), (x1, y1) = self.start, self.end
        return math.hypot(x1 - x0, y1 - y0) <= PATH_CLOSE_TOL

    def sample(self, n=None):
        ts = np.linspace(self.t0, self.t1, (n or self.n) + 1)
        xs, ys = self.point_array(ts)
        return np.column_stack([xs, ys])

    def reversed(self):
        flip = ScalarExpr(fold("-", fold("+", Num(self.t0), Num(self.t1)), Var("t")), ("t",))
        return ParametricPath(
            self.x_expr.substitute("t", flip),
            self.y_expr.substitute("t", flip),
            self.t0,
            self.t1,
            self.n,
        )

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

def _parse_rule(quad):
    if quad in ("trapezoid", "simpson"):
        return quad, 0
    if quad.startswith("gauss"):
        inner = quad[5:].strip("()")
        try:
            k = int(inner)
        except ValueError:
            raise ValidationError(f"bad quadrature spec {quad!r}") from None
        if not 1 <= k <= 64:
            raise ValidationError("gauss order must be in [1, 64]")
        return "gauss", k
    raise ValidationError(f"unknown quadrature rule {quad!r}")


def _nodes_weights(rule, order, a, b, n):
    """Nodes and weights of a composite rule over [a, b] split n ways."""
    if rule == "simpson":
        xs = np.linspace(a, b, 2 * n + 1)
        w = np.full(2 * n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return xs, w * ((b - a) / n / 6.0)
    if rule == "trapezoid":
        xs = np.linspace(a, b, n + 1)
        w = np.full(n + 1, 1.0)
        w[0] = w[-1] = 0.5
        return xs, w * ((b - a) / n)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = (b - a) / n
    starts = a + h * np.arange(n)
    xs = (starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).ravel()
    ws = np.tile(weights * (h / 2.0), n)
    return xs, ws


def closest_approach(a, b, p):
    """Where the segment a -> b passes nearest to p: the parameter s in
    [0, 1] of that point, and its distance from p."""
    dx, dy, rx, ry = b[0] - a[0], b[1] - a[1], p[0] - a[0], p[1] - a[1]
    L2 = dx * dx + dy * dy
    s = min(1.0, max(0.0, (rx * dx + ry * dy) / L2)) if L2 > 0.0 else 0.0
    return s, math.hypot(rx - s * dx, ry - s * dy)


def _panel_cuts(a, b, singular_points, r_min):
    """Sorted panel breakpoints in [0, 1] for the segment a -> b.

    A uniform grid of about _PANELS_PER_UNIT panels per unit length, plus
    cuts at s* +- (d / 2L) * 2^j for each singular point, where s* is the
    segment's closest approach to it and d the distance there, down to
    the grid spacing.  Near s* the integrand steepens like 1/d; the
    geometric cuts keep every panel narrower than about its distance to
    the singular point, so one fixed rule converges fast on all of them
    while the panel count grows only like log(L/d) (Schwab, Computing 53,
    1994).
    """
    L = math.hypot(b[0] - a[0], b[1] - a[1])
    if not math.isfinite(L):
        raise NonFiniteError(f"non-finite segment {tuple(a)} -> {tuple(b)}")
    if L == 0.0:
        return [0.0]
    if L > MAX_SEGMENT_LENGTH:
        raise ValidationError(f"segment longer than {MAX_SEGMENT_LENGTH:g}")
    n = math.ceil(_PANELS_PER_UNIT * L)
    cuts = [k / n for k in range(n + 1)]
    for p in singular_points:
        s, d = closest_approach(a, b, p)
        h = d / (2.0 * L)
        if d < r_min or h == 0.0:
            raise SingularityError(
                f"segment passes within r_min={r_min} of singular point {p}"
            )
        while h * n < 1.0:
            if s - h > 0.0:
                cuts.append(s - h)
            if s + h < 1.0:
                cuts.append(s + h)
            h *= 2.0
    cuts.sort()
    return cuts


def _panel_sums(field, a, lo, width, dx, dy):
    """Integrals of the field over the panels [lo, lo + width] of the
    segments a -> a + (dx, dy), by 16-node Gauss-Legendre, _BLOCK_PANELS
    panels at a time; a's coordinates, dx and dy are scalars or per panel.
    _panel_cuts has kept each segment r_min from every singular point, so
    the nodes skip eval_array's distance pass."""
    x0, y0, ex, ey = a[0] + lo * dx, a[1] + lo * dy, width * dx, width * dy
    sums = np.empty(len(lo))
    for i in range(0, len(lo), _BLOCK_PANELS):
        j = slice(i, i + _BLOCK_PANELS)
        # flat node arrays: eval_array takes a list of points
        vx, vy = field.eval_array(np.ravel(x0[j, None] + ex[j, None] * _GL_S),
                                  np.ravel(y0[j, None] + ey[j, None] * _GL_S), 0.0)
        vx, vy = vx.reshape(-1, _GL_S.size), vy.reshape(-1, _GL_S.size)
        sums[j] = (vx @ _GL_H) * ex[j] + (vy @ _GL_H) * ey[j]
    return sums


def _finite(values, what):
    """values, or NonFiniteError when an integral left the double range."""
    if not (math.isfinite(values) if type(values) is float else np.isfinite(values).all()):
        raise NonFiniteError(f"non-finite {what}")
    return values


def segment_integrals(field, a, bs, r_min=R_MIN_EVAL):
    """Line integrals along the segments a -> b for the rows b of the (n, 2)
    array bs, from one start point a or from row i of an (n, 2) array a, on
    _panel_cuts panels; _BLOCK_STATES segments at a time, bounding memory."""
    bs = np.asarray(bs, dtype=float).reshape(-1, 2)
    starts = np.asarray(a, dtype=float)
    per_row = starts.shape == bs.shape    # else one start point for every row
    dx, dy = bs[:, 0] - starts[..., 0], bs[:, 1] - starts[..., 1]
    out = np.empty(len(bs))
    for i in range(0, len(bs), _BLOCK_STATES):
        j = slice(i, i + _BLOCK_STATES)
        pairs = zip(starts[j].tolist() if per_row else repeat(a), bs[j].tolist())
        cuts = [_panel_cuts(p, b, field.singular_points, r_min) for p, b in pairs]
        counts = np.fromiter(map(len, cuts), np.int64, len(cuts))
        flat = np.fromiter(chain.from_iterable(cuts), float, counts.sum())
        owner = np.repeat(np.arange(i, i + len(cuts)), counts)
        inner = owner[1:] == owner[:-1]   # both cuts on one segment: a panel
        owner = owner[1:][inner]
        sums = _panel_sums(field, starts.take(owner, 0).T if per_row else a, flat[:-1][inner],
                           (flat[1:] - flat[:-1])[inner], dx[owner], dy[owner])
        out[j] = np.bincount(owner - i, sums, minlength=len(cuts))
    return _finite(out, "segment integral")


def segment_work(field, a, b, r_min=R_MIN_EVAL):
    """Line integral of the field along the straight segment a -> b: the
    one-segment case of segment_integrals, without its batch bookkeeping."""
    cuts = np.array(_panel_cuts(a, b, field.singular_points, r_min))
    sums = _panel_sums(field, a, cuts[:-1], cuts[1:] - cuts[:-1], b[0] - a[0], b[1] - a[1])
    return _finite(float(sums.sum()), "segment integral")


def work(field, path, quad="simpson", r_min=R_MIN_EVAL):
    """Work integral of the field along the path.

    Parametric paths are pulled back to t by the composite rule quad, with
    tangents from the exact t-derivatives of the path's expressions.
    Polylines integrate all their edges in one segment_integrals call;
    quad does not apply to them.
    """
    rule, order = _parse_rule(quad)
    if isinstance(path, PolylinePath):
        v = np.array(path.vertices)
        return float(segment_integrals(field, v[:-1], v[1:], r_min).sum())
    ts, ws = _nodes_weights(rule, order, path.t0, path.t1, path.n)
    xs, ys = path.point_array(ts)
    dxdt, dydt = path.x_expr.diff("t").array_fn(ts), path.y_expr.diff("t").array_fn(ts)
    vx, vy = field.eval_array(xs, ys, r_min)
    for d in (dxdt, dydt):
        _finite(d, "path tangent")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(np.dot(ws, vx * dxdt + vy * dydt)), "work integral")


def circulation(field, which):
    """Work around a small circle about one singular point."""
    sx, sy = field.singular_points[which]
    r = 0.5
    for j, (ox, oy) in enumerate(field.singular_points):
        if j != which:
            r = min(r, 0.5 * math.hypot(ox - sx, oy - sy))
    return work(field, circle_path(sx, sy, r, 1.0, 512))


# ---------------------------------------------------------------------------
# winding

def principal_angle_diff(a1, a0):
    """Difference a1 - a0 wrapped to [-pi, pi]."""
    return math.remainder(a1 - a0, TAU)


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
    if isinstance(path, ParametricPath):
        params = np.linspace(path.t0, path.t1, path.n + 1)
        pts = np.column_stack(path.point_array(params))
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
    return np.cumsum(np.concatenate([raw[:1], steps]))


def _refined_step(point_at, about, s0, a0, s1, a1, depth):
    d = principal_angle_diff(a1, a0)
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


def is_closed(field, region, grid=20, tol=1e-4):
    """Check d(fx dx + fy dy) = 0 on a grid x grid lattice over region.

    The residual |dfx/dy - dfy/dx| / max(1, |dfx/dy| + |dfy/dx|) comes from
    the exact partials (ScalarExpr.diff), so a closed field reads at rounding
    level even where they grow like 1/r^2 near a singular point.  region is
    (x0, y0, x1, y1); no grid node may lie within R_MIN_EVAL of a singular
    point, and grid is at most MAX_CLOSEDNESS_GRID.
    """
    x0, y0, x1, y1 = (float(v) for v in region)
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("region must satisfy x1 > x0 and y1 > y0")
    if not 2 <= grid <= MAX_CLOSEDNESS_GRID:
        raise ValidationError(f"grid must be in [2, {MAX_CLOSEDNESS_GRID}], got {grid}")
    X, Y = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid))
    for sx, sy in field.singular_points:
        if float(np.min(np.hypot(X - sx, Y - sy))) < R_MIN_EVAL:
            raise SingularityError(
                f"closedness grid within r_min={R_MIN_EVAL} of singular point ({sx}, {sy})"
            )
    dfx, dfy = field.fx.diff("y").array_fn(X, Y), field.fy.diff("x").array_fn(X, Y)
    resid = np.abs(dfx - dfy) / np.maximum(1.0, np.abs(dfx) + np.abs(dfy))
    if not np.all(np.isfinite(resid)):
        raise NonFiniteError("non-finite derivative in closedness check")
    k = int(np.argmax(resid))
    worst = (float(X.ravel()[k]), float(Y.ravel()[k]))
    mr = float(np.max(resid))
    return ClosednessReport(mr < tol, mr, tol, grid, (x0, y0, x1, y1), worst)


def classify(field, atlas=None, region=(0.5, 0.5, 2.0, 2.0), tol=1e-4):
    """Label a field exact, closed-not-exact, or not-closed.

    Closedness comes from the exact-derivative residual of is_closed on
    the probe region; the exact/closed-not-exact split is decided by the chart
    machinery (potentials, cocycle, spanning-tree periods).
    """
    from . import atlas as atlas_mod

    report = is_closed(field, region, tol=tol)
    if not report.passed:
        return "not-closed"
    if atlas is None:
        atlas = atlas_mod.atlas_for(field.singular_points)
    potentials = atlas_mod.PotentialSet.from_field(field, atlas)
    cocycle = atlas_mod.cocycle(potentials, atlas)
    result = atlas_mod.exactness_test(cocycle)
    return "exact" if result.exact else "closed-not-exact"
