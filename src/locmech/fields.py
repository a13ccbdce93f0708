"""Force one-forms on punctured planar domains, paths, and line integrals.

The central objects are FieldOneForm (components fx, fy as expression
trees plus a list of singular points) and two path flavors, polyline and
parametric.  Work integrals pull the form back to the parameter interval
and apply composite trapezoid, Simpson, or Gauss-Legendre rules.

Winding numbers are deliberately not computed as a work integral: they
come from continuous angle accumulation with principal-value steps kept
below pi/2 by recursive subdivision.  That keeps the two routes
independent so one can check the other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainEvalError,
    NonFiniteError,
    RefinementLimitError,
    SingularityError,
    ValidationError,
)
from .exprlang import ScalarExpr, parse_expr

TAU = math.tau
R_MIN_EVAL = 1e-9
DEFAULT_SEGMENTS = 2000
PATH_CLOSE_TOL = 1e-12
_THETA_MAX = math.pi / 2
_MAX_REFINE_DEPTH = 48


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
        for sx, sy in self.singular_points:
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

    def _guard_point(self, x, y, r_min):
        for sx, sy in self.singular_points:
            if math.hypot(x - sx, y - sy) < r_min:
                raise SingularityError(
                    f"evaluation within r_min={r_min} of singular point ({sx}, {sy})"
                )


def from_components(fx_source, fy_source, singular_points=(), name=""):
    return FieldOneForm(
        parse_expr(fx_source),
        parse_expr(fy_source),
        tuple((float(a), float(b)) for a, b in singular_points),
        name,
    )


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
        if n < 1:
            raise ValidationError("need at least one parameter segment")
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
        flip = parse_expr(f"{self.t0!r}+{self.t1!r}-t", ("t",))
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
    return ParametricPath(
        f"{cx!r}+{r!r}*cos({w!r}*t)",
        f"{cy!r}+{r!r}*sin({w!r}*t)",
        0.0,
        TAU,
        n,
    )


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


def _segment_distance(a, b, p):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    s = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - (ax + s * dx), py - (ay + s * dy))


def _segment_divisions(a, b, singular_points, floor=16, base=256.0, r_min=R_MIN_EVAL):
    """Subdivision count for a straight segment, denser when the segment
    runs close to a singular point (the integrand steepens like 1/d)."""
    L = math.hypot(b[0] - a[0], b[1] - a[1])
    if L == 0.0:
        return 0
    n = max(floor, math.ceil(base * L))
    for s in singular_points:
        d = _segment_distance(a, b, s)
        if d < r_min:
            raise SingularityError(
                f"segment passes within r_min={r_min} of singular point {s}"
            )
        n = max(n, math.ceil(128.0 * (L / d) ** 1.25))
    return min(n, 2_000_000)


def segment_work(field, a, b, quad="simpson", floor=16, base=256.0, r_min=R_MIN_EVAL):
    """Line integral of the field along the straight segment a -> b."""
    rule, order = _parse_rule(quad)
    n = _segment_divisions(a, b, field.singular_points, floor, base, r_min)
    if n == 0:
        return 0.0
    if rule == "gauss":
        n = max(2, math.ceil(n / 16))
    ss, ws = _nodes_weights(rule, order, 0.0, 1.0, n)
    dx, dy = b[0] - a[0], b[1] - a[1]
    xs = a[0] + ss * dx
    ys = a[1] + ss * dy
    vx, vy = field.eval_array(xs, ys, r_min)
    return float(np.dot(ws, vx * dx + vy * dy))


def work(field, path, quad="simpson", r_min=R_MIN_EVAL):
    """Work integral of the field along the path.

    Parametric paths are pulled back to t with tangents from central
    differences; polylines integrate edge by edge with exact tangents.
    """
    rule, order = _parse_rule(quad)
    if isinstance(path, PolylinePath):
        total = 0.0
        for a, b in path.edges():
            total += segment_work(field, a, b, quad, r_min=r_min)
        return total
    ts, ws = _nodes_weights(rule, order, path.t0, path.t1, path.n)
    delta = 2e-6 * abs(path.t1 - path.t0)
    xs, ys = path.point_array(ts)
    xp, yp = path.point_array(ts + delta)
    xm, ym = path.point_array(ts - delta)
    dxdt = (xp - xm) / (2.0 * delta)
    dydt = (yp - ym) / (2.0 * delta)
    vx, vy = field.eval_array(xs, ys, r_min)
    if not (np.all(np.isfinite(dxdt)) and np.all(np.isfinite(dydt))):
        raise NonFiniteError("non-finite path tangent")
    return float(np.dot(ws, vx * dxdt + vy * dydt))


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
    h: float
    grid: int
    region: tuple
    worst_point: tuple


def is_closed(field, region, grid=20, h=1e-5, tol=1e-4):
    """Finite-difference check of d(fx dx + fy dy) = 0 over a grid.

    region is (x0, y0, x1, y1); it must keep a margin of at least 10*h
    from every singular point.
    """
    x0, y0, x1, y1 = (float(v) for v in region)
    if not (x1 > x0 and y1 > y0):
        raise ValidationError("region must satisfy x1 > x0 and y1 > y0")
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    xs = np.linspace(x0, x1, grid)
    ys = np.linspace(y0, y1, grid)
    X, Y = np.meshgrid(xs, ys)
    for sx, sy in field.singular_points:
        d = np.sqrt((X - sx) ** 2 + (Y - sy) ** 2)
        if float(np.min(d)) < 10.0 * h:
            raise SingularityError(
                f"closedness grid within 10*h of singular point ({sx}, {sy})"
            )
    dfx_dy = (field.fx.array_fn(X, Y + h) - field.fx.array_fn(X, Y - h)) / (2.0 * h)
    dfy_dx = (field.fy.array_fn(X + h, Y) - field.fy.array_fn(X - h, Y)) / (2.0 * h)
    resid = np.abs(dfx_dy - dfy_dx)
    if not np.all(np.isfinite(resid)):
        raise NonFiniteError("non-finite derivative in closedness check")
    k = int(np.argmax(resid))
    worst = (float(X.ravel()[k]), float(Y.ravel()[k]))
    mr = float(np.max(resid))
    return ClosednessReport(mr < tol, mr, tol, h, grid, (x0, y0, x1, y1), worst)


def classify(field, atlas=None, region=(0.5, 0.5, 2.0, 2.0), tol=1e-4):
    """Label a field exact, closed-not-exact, or not-closed.

    Closedness comes from the finite-difference test on the probe
    region; the exact/closed-not-exact split is decided by the chart
    machinery (potentials, cocycle, spanning-tree periods).
    """
    from . import atlas as atlas_mod

    report = is_closed(field, region, tol=tol)
    if not report.passed:
        return "not-closed"
    if atlas is None:
        atlas = atlas_mod.quadrant_atlas(singular_points=field.singular_points)
    potentials = atlas_mod.PotentialSet.from_field(field, atlas)
    cocycle = atlas_mod.cocycle(potentials, atlas)
    result = atlas_mod.exactness_test(cocycle)
    return "exact" if result.exact else "closed-not-exact"
