"""Closed-form reference answers for the field family k*vortex + grad(phi).

phi is the quadratic a*x^2 + b*x*y + c*y^2 + d*x + e*y, and the field is

    f = k * (-y dx + x dy) / (x^2 + y^2) + dphi

on the plane punctured at the origin, covered by the quadrant atlas
(closed quadrants 1..4 with basepoints (+-1, +-1)).  Everything here uses
only `math` on the given points: no locmech quadrature, angle unwrapping
or chart code, so a check built on it never has the code check itself.
"""

import math

TAU = math.tau
BASEPOINTS = {1: (1.0, 1.0), 2: (-1.0, 1.0), 3: (-1.0, -1.0), 4: (1.0, -1.0)}
# one point on each nonempty pairwise overlap (the four open half-axes)
OVERLAP_POINTS = {(1, 2): (0.0, 1.0), (1, 4): (1.0, 0.0),
                  (2, 3): (-1.0, 0.0), (3, 4): (0.0, -1.0)}
NERVE_CYCLE = (1, 2, 3, 4, 1)
_CHART_TOL = 1e-9


def literal(v):
    return repr(float(v)) if v >= 0 else f"({float(v)!r})"


class Family:
    """One member k*vortex + grad(phi) with phi's coefficients (a, b, c, d, e)."""

    def __init__(self, k, coeffs=(0.0, 0.0, 0.0, 0.0, 0.0)):
        self.k = float(k)
        self.coeffs = tuple(float(v) for v in coeffs)

    def phi(self, x, y):
        a, b, c, d, e = self.coeffs
        return a * x * x + b * x * y + c * y * y + d * x + e * y

    def force(self, x, y):
        """Field components (fx, fy) at a point off the origin."""
        a, b, c, d, e = self.coeffs
        r2 = x * x + y * y
        return (self.k * (-y / r2) + 2 * a * x + b * y + d,
                self.k * (x / r2) + b * x + 2 * c * y + e)

    def sources(self):
        """Component expressions (fx, fy) in the locmech expression language."""
        a, b, c, d, e = self.coeffs
        k = literal(self.k)
        fx = f"{k}*(-y/(x^2+y^2))+{literal(2 * a)}*x+{literal(b)}*y+{literal(d)}"
        fy = f"{k}*(x/(x^2+y^2))+{literal(b)}*x+{literal(2 * c)}*y+{literal(e)}"
        return fx, fy

    def potential(self, cid, q, gauge=0.0):
        """V_i(q) = g_i - k*remainder(atan2 q - atan2 b_i, 2pi) - (phi(q) - phi(b_i))."""
        bx, by = BASEPOINTS[cid]
        x, y = float(q[0]), float(q[1])
        turn = math.remainder(math.atan2(y, x) - math.atan2(by, bx), TAU)
        return gauge - self.k * turn - (self.phi(x, y) - self.phi(bx, by))

    def cocycle(self, i, j):
        """c_ij = V_i - V_j on the overlap of charts i and j (zero gauges)."""
        key = (min(i, j), max(i, j))
        q = OVERLAP_POINTS[key]
        return self.potential(i, q) - self.potential(j, q)

    def cycle_sum(self, cycle=NERVE_CYCLE):
        return sum(self.cocycle(a, b) for a, b in zip(cycle[:-1], cycle[1:]))

    def loop_work(self, winding):
        """Work around a closed loop winding n times: the gradient part drops out."""
        return TAU * self.k * winding


def chart_of(q, tol=_CHART_TOL):
    """Lowest-id closed quadrant containing q, or None at the origin."""
    x, y = float(q[0]), float(q[1])
    if x == 0.0 and y == 0.0:
        return None
    if x >= -tol and y >= -tol:
        return 1
    if x <= tol and y >= -tol:
        return 2
    if x <= tol and y <= tol:
        return 3
    return 4


def edge_sweep(p, q):
    """Angle swept about the origin along the straight edge p -> q (|sweep| < pi)."""
    cross = p[0] * q[1] - p[1] * q[0]
    dot = p[0] * q[0] + p[1] * q[1]
    return math.atan2(cross, dot)


def polyline_sweep(vertices):
    return sum(edge_sweep(p, q) for p, q in zip(vertices[:-1], vertices[1:]))


def winding(vertices):
    """Winding number about the origin of a closed polyline."""
    return round(polyline_sweep(vertices) / TAU)


def circle_winding(cx, cy, r, turns):
    """Winding number about the origin of a circle traversed `turns` times."""
    return int(turns) if math.hypot(cx, cy) < r else 0


def continued_sheet(anchor, sheet, sweep, end):
    """Sheet of the log germ (anchor, sheet) continued by `sweep` radians to `end`."""
    angle = math.atan2(anchor[1], anchor[0]) + TAU * sheet + sweep
    return round((angle - math.atan2(end[1], end[0])) / TAU)


def unwrapped_angles(xs, ys):
    """Continuous angle about the origin through consecutive points,
    starting from the principal angle of the first."""
    out = [math.atan2(ys[0], xs[0])]
    for k in range(1, len(xs)):
        step = math.remainder(math.atan2(ys[k], xs[k]) - math.atan2(ys[k - 1], xs[k - 1]), TAU)
        out.append(out[-1] + step)
    return out


def angular_momentum(L0, k, t):
    """p_theta(t) = p_theta(0) + k*t: the vortex torque q x f is exactly k."""
    return L0 + k * t
