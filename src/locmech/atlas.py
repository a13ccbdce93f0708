"""Chart atlases, chart-local potentials, and the offset cocycle.

Charts are conjunctions of closed half-planes (a*x + b*y >= c) minus the
field's singular points, each with an interior basepoint.  A potential on
a chart is gauge - (segment integral of the field from the basepoint),
which the Poincare lemma makes well defined on star-shaped charts.  A
convex chart is star-shaped unless a singular point lies strictly inside
it, so Atlas and PotentialSet.from_field refuse that case (ValidationError).
atlas_for builds such a cover for any finite set of punctures; overlaps
are cut exactly from the charts' half-planes, in Python floats.

Potential differences on nonempty overlaps are constant for closed
fields; collecting them, all overlaps' potentials in one kernel call,
gives a cocycle on the overlap graph.  A spanning-tree solve splits it
into exact (offsets exist) or not (nonzero periods on independent
cycles), which is the whole obstruction story in computable form.
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations

import numpy as np

from .errors import (
    ChartMembershipError,
    CocycleConstancyError,
    NerveDisconnectedError,
    ValidationError,
)
from .fields import R_MIN_EVAL, segment_integrals, segment_work

_CONSTRAINT_TOL = 1e-9
_SINGULAR_MARGIN = 1e-6
_PARALLEL_TOL = 1e-9    # |sin| of the angle below which two chart walls count as parallel
DEFAULT_OVERLAP_SAMPLES = 32
MAX_OVERLAP_SAMPLES = 10_000    # samples per overlap, each a potential evaluation per chart
COCYCLE_SPREAD_TOL = 1e-7     # spread of V_i - V_j over an overlap; also the period tolerance
TRIANGLE_TOL = 1e-9           # |c_ij + c_jk - c_ik| on an inhabited triple overlap


class Chart:
    """A closed convex region cut out by half-planes, minus singular points.

    Each half-plane a*x + b*y >= c is kept with its normal scaled to unit
    length, so constraint values are distances."""

    def __init__(self, cid, halfplanes, basepoint, label="", singular_points=()):
        self.id = int(cid)
        self.basepoint = bx, by = (float(basepoint[0]), float(basepoint[1]))
        if not (math.isfinite(bx) and math.isfinite(by)):
            raise ValidationError(f"chart {self.id}: basepoint must be finite")
        cons = []
        for a, b, c in halfplanes:
            norm = math.hypot(a, b)
            if not (norm > 0.0 and math.isfinite(norm) and math.isfinite(c)):
                raise ValidationError("half-plane normal must be finite and nonzero")
            a, b, c = float(a) / norm, float(b) / norm, float(c) / norm
            if not a * bx + b * by - c >= _CONSTRAINT_TOL:
                raise ValidationError(
                    f"chart {self.id}: basepoint must satisfy constraints strictly")
            cons.append((a, b, c))
        self.constraints = tuple(cons)
        self.label = label
        self.singular_points = tuple(
            (float(a), float(b)) for a, b in singular_points
        )
        for s in self.singular_points:
            if math.hypot(self.basepoint[0] - s[0], self.basepoint[1] - s[1]) < _SINGULAR_MARGIN:
                raise ValidationError(f"chart {self.id}: basepoint too close to {s}")

    def contains(self, p, tol=_CONSTRAINT_TOL):
        x, y = p
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        for a, b, c in self.constraints:
            if a * x + b * y - c < -tol:
                return False
        for sx, sy in self.singular_points:
            if x == sx and y == sy:
                return False
        return True

    def first_exit(self, p0, p1):
        """Smallest s in (0, 1] where the segment p0 -> p1 leaves the chart,
        or None if p1 is still inside; linear constraints are crossed exactly."""
        if self.contains(p1):
            return None
        best = None
        for a, b, c in self.constraints:
            g0 = a * p0[0] + b * p0[1] - c
            g1 = a * p1[0] + b * p1[1] - c
            if g1 < -_CONSTRAINT_TOL and g0 > g1:
                s = g0 / (g0 - g1)
                if 0.0 <= s <= 1.0 and (best is None or s < best):
                    best = s
        return best

    def __repr__(self):
        return f"Chart({self.id}, {self.label or len(self.constraints)})"


def _refuse_inner_punctures(charts, points):
    """Refuse a chart with one of the points strictly inside it: a segment
    from its basepoint could then cross the puncture, so the chart is not
    star-shaped and its potential is not single-valued.  A point on the
    boundary is kept: segments from the basepoint of a convex chart meet
    its boundary only at their ends."""
    for ch in charts:
        for s in points:
            if all(a * s[0] + b * s[1] - c > _CONSTRAINT_TOL for a, b, c in ch.constraints):
                raise ValidationError(f"atlas fault: singular point {s} lies inside "
                                      f"chart {ch.id}, which is then not star-shaped")


class Atlas:
    def __init__(self, charts):
        """Refuses a chart that holds, strictly inside, a singular point
        that any of the charts lists."""
        ids = [ch.id for ch in charts]
        if len(set(ids)) != len(ids):
            raise ValidationError("chart ids must be unique")
        self._holes = sorted(set().union(*(ch.singular_points for ch in charts)))
        _refuse_inner_punctures(charts, self._holes)
        self.charts = {ch.id: ch for ch in sorted(charts, key=lambda ch: ch.id)}
        self._overlap_cache = {}

    @property
    def ids(self):
        return tuple(self.charts)

    def chart_for(self, p):
        """Lowest-id chart containing p, or None."""
        for cid in self.ids:
            if self.charts[cid].contains(p):
                return cid
        return None

    @cached_property
    def _rules(self):
        """Every chart's half-planes as (K, 1) columns a, b, c, then
        0x + 0y >= 0, which holds at finite points only (it is NaN
        elsewhere); the singular points as (H, 1) columns; and which charts
        each of these rules out.  The last row, ruled out by none, stands
        for no chart."""
        charts = list(self.charts.values())
        planes = [abc for ch in charts for abc in ch.constraints] + [(0.0, 0.0, 0.0)]
        holes = self._holes
        owner = np.repeat(np.arange(len(charts)), [len(ch.constraints) for ch in charts])
        rules_out = np.zeros((len(charts) + 1, len(planes) + len(holes)))
        rules_out[owner, np.arange(len(owner))] = 1.0
        rules_out[:-1, len(owner)] = 1.0
        for k, s in enumerate(holes, len(planes)):
            rules_out[:-1, k] = [s in ch.singular_points for ch in charts]
        return (*np.array(planes).T[:, :, None], *np.reshape(holes, (-1, 2)).T[:, :, None],
                rules_out)

    def _ruled_out(self, xs, ys):
        """How many rules each chart (in ids order, then none) fails at each point
        of the 1-d arrays xs, ys: 0 just where Chart.contains holds."""
        a, b, c, hx, hy, rules_out = self._rules
        with np.errstate(invalid="ignore", over="ignore"):
            fails = ~(a * xs + b * ys - c >= -_CONSTRAINT_TOL)   # NaN fails
        hole = xs == hx
        if np.count_nonzero(hole):      # rare: only then test y too
            fails = np.concatenate([fails, hole & (ys == hy)])
        return rules_out[:, :len(fails)] @ fails

    def locate(self, xs, ys):
        """chart_for at every point of the 1-d arrays xs, ys at once: the
        index in ids of the lowest-id chart containing it, or len(ids)."""
        return self._ruled_out(xs, ys).argmin(0)

    def overlap_samples(self, i, j, k=DEFAULT_OVERLAP_SAMPLES):
        """k deterministic points in the overlap of charts i and j, or an
        empty array when the two meet at most in singular points (see _meet)."""
        key = (i, j, k) if i <= j else (j, i, k)
        if key not in self._overlap_cache:
            self._overlap_cache[key] = _meet([self.charts[c] for c in key[:2]], k)
        return self._overlap_cache[key]

    def triple_overlap_nonempty(self, i, j, k):
        return len(_meet([self.charts[c] for c in (i, j, k)], 1)) > 0

    def __repr__(self):
        return f"Atlas(ids={list(self.ids)})"


def _clip(constraints, x0, y0, x1, y1):
    """The box x0..x1, y0..y1 cut by the half-planes, each kept within
    _CONSTRAINT_TOL as Chart.contains keeps it (Sutherland-Hodgman): the corners
    of a convex polygon, which may have collapsed to a segment or a point, or []."""
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for a, b, c in constraints:
        keep = [(p, a * p[0] + b * p[1] - c) for p in poly]
        poly = []
        for (p, gp), (q, gq) in zip(keep, keep[1:] + keep[:1]):
            if gp >= -_CONSTRAINT_TOL:
                poly.append(p)
            if (gp >= -_CONSTRAINT_TOL) != (gq >= -_CONSTRAINT_TOL):
                s = min(1.0, max(0.0, gp / (gp - gq)))
                poly.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return poly


def _shape(poly):
    """The corners that span a clipped region: one for a point, the two
    ends for a segment, else the polygon's corners (a list of tuples).  The
    farthest corners are np.hypot's picks: math.hypot's can differ at a near tie."""
    if not poly:
        return poly
    a = poly[np.argmax(np.hypot(*np.subtract(poly, poly[0]).T))]
    b = poly[np.argmax(np.hypot(*np.subtract(poly, a).T))]
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    if length <= _CONSTRAINT_TOL:
        return poly[:1]
    nx, ny = a[1] - b[1], b[0] - a[0]
    return [a, b] if all(abs((x - a[0]) * nx + (y - a[1]) * ny) / length <= _CONSTRAINT_TOL
                         for x, y in poly) else poly


def _splits(s, shape):
    """Whether the singular point s lies in the relative interior of a
    segment region.  (One inside a polygon region is strictly inside
    each of its charts, which Atlas refuses.)"""
    if len(shape) != 2:
        return False
    (ax, ay), (bx, by) = shape
    length = math.hypot(bx - ax, by - ay)
    ex, ey, dx, dy = (bx - ax) / length, (by - ay) / length, s[0] - ax, s[1] - ay
    return (abs(ex * dy - ey * dx) <= _CONSTRAINT_TOL
            and _CONSTRAINT_TOL < ex * dx + ey * dy < length - _CONSTRAINT_TOL)


def _meet(charts, k):
    """k points of the common part of closed charts, computed exactly.

    Their half-planes cut a box holding every vertex of their arrangement
    and a point of each wall, so the cut is empty just when the charts do
    not meet; a point region that is a singular point counts as empty.  A
    singular point inside a segment region splits it: an atlas fault,
    ValidationError.
    The samples are C + t*(S - C), t in (0, 1/2), for the corners S of the
    region's part in the box around the basepoints and singular points
    (widened by 1, then grown until it meets the region) and C their mean:
    a sample on a segment is over a quarter of its length from either end.
    """
    cons = [c for ch in charts for c in ch.constraints]
    singular = sorted(set().union(*(ch.singular_points for ch in charts)))
    anchors = [ch.basepoint for ch in charts] + singular
    corners = anchors + [(a * c, b * c) for a, b, c in cons]
    for (a1, b1, c1), (a2, b2, c2) in combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) > _PARALLEL_TOL:
            corners.append(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det))
    xs, ys = zip(*corners)
    far = min(xs) - 1.0, min(ys) - 1.0, max(xs) + 1.0, max(ys) + 1.0
    region = _shape(_clip(cons, *far))
    for s in singular:
        if _splits(s, region):
            raise ValidationError(f"atlas fault: singular point {s} lies inside the "
                                  f"overlap of charts {tuple(ch.id for ch in charts)}")
    if len(region) == 0 or len(region) == 1 and any(
            math.dist(region[0], s) <= _CONSTRAINT_TOL for s in singular):
        return np.empty((0, 2))
    xs, ys = zip(*anchors)
    x0, y0, x1, y1 = min(xs) - 1.0, min(ys) - 1.0, max(xs) + 1.0, max(ys) + 1.0
    while not (part := _shape(_clip(cons, x0, y0, x1, y1))) and (
            x0 > far[0] or y0 > far[1] or x1 < far[2] or y1 < far[3]):
        x0, y0, x1, y1 = 2.0 * x0 - x1, 2.0 * y0 - y1, 2.0 * x1 - x0, 2.0 * y1 - y0
    part = part or region
    m, half = len(part), 2 * (-(-k // len(part)) + 1)
    cx, cy = (reduce(float.__add__, c) / m for c in zip(*part))   # numpy's order of summation
    return np.array([(cx + t * (sx - cx), cy + t * (sy - cy)) for t, (sx, sy) in
                     (((i // m + 1) / half, part[i % m]) for i in range(k))])


def _direction(points):
    """A unit vector along which the points have well separated projections:
    (1, 0) unless two (nearly) share an x, else the middle of the widest
    gap between the directions that fail."""
    pairs = list(combinations(points, 2))
    if all(abs(p[0] - q[0]) >= 1e-6 * max(1.0, math.dist(p, q)) for p, q in pairs):
        return (1.0, 0.0)
    bad = sorted({math.atan2(p[0] - q[0], q[1] - p[1]) % math.pi for p, q in pairs})
    width, start = max(zip(np.diff(bad + [bad[0] + math.pi]), bad))
    return (math.cos(start + 0.5 * width), math.sin(start + 0.5 * width))


def atlas_for(punctures):
    """A good cover of the plane minus a finite set of punctures.

    Sorted along a direction u in which their projections are well apart
    (see _direction), the punctures cut the plane into closed strips.  The line
    through a strip's two bounding punctures, or for an end strip the ray
    from its one puncture along u, splits it into an upper and a lower
    chart.  That gives 2n + 2 convex charts with punctures only at
    corners, 3n + 1 connected overlaps and no triple overlap: the nerve has
    cycle rank n, the rank of H^1 (Bott & Tu, Differential Forms in
    Algebraic Topology, sections 8-10).  Ids run counterclockwise, upper
    charts from the right end strip leftwards, then lower ones rightwards,
    so the nerve cycle around the k-th puncture is (n+1-k, n+2-k, n+1+k,
    n+2+k, n+1-k).  No puncture cuts at the origin; one at the origin gives
    the four closed quadrants with basepoints (+-1, +-1).
    """
    points = sorted({(float(x), float(y)) for x, y in punctures})
    ux, uy = _direction(points)
    v = (-uy, ux)
    cuts = sorted(points, key=lambda p: p[0] * ux + p[1] * uy) or [(0.0, 0.0)]
    for p, q in zip(cuts, cuts[1:]):
        # the strip between them holds basepoints half way, _CONSTRAINT_TOL
        # inside each wall, and overlap samples on pq over a quarter of the
        # way in, so potential segments pass R_MIN_EVAL clear of both; a
        # kernel node there lies within eps |p| of its place, which turns the
        # angle it reads by 4 eps |p| / gap: keep that a quarter of the
        # cocycle's tol
        gap = (q[0] - p[0]) * ux + (q[1] - p[1]) * uy
        if gap < max(4.0 * max(_CONSTRAINT_TOL, R_MIN_EVAL), 16.0 * np.finfo(float).eps
                     * max(map(abs, p + q)) / COCYCLE_SPREAD_TOL):
            raise ValidationError(f"punctures {p} and {q} are too close together to "
                                  "separate by a chart wall")
    n = len(cuts)
    charts = []
    for k in range(n + 1):
        walls, ends = [], cuts[max(k - 1, 0):k + 1]
        if k > 0:
            walls.append((ux, uy, ux * ends[0][0] + uy * ends[0][1]))
        if k < n:
            walls.append((-ux, -uy, -(ux * ends[-1][0] + uy * ends[-1][1])))
        p = ends[0]
        if len(ends) == 2:     # the line through the two bounding punctures
            d = (ends[1][0] - p[0], ends[1][1] - p[1])
            nx, ny = -d[1], d[0]
            mid = (0.5 * (p[0] + ends[1][0]), 0.5 * (p[1] + ends[1][1]))
        else:                  # the ray from the one puncture of an end strip
            nx, ny = v
            side = 1.0 if k == n else -1.0
            mid = (p[0] + side * ux, p[1] + side * uy)
        c = nx * p[0] + ny * p[1]
        for cid, sign in ((n + 1 - k, 1.0), (n + 2 + k, -1.0)):
            charts.append(Chart(
                cid, walls + [(sign * nx, sign * ny, sign * c)],
                (mid[0] + sign * v[0], mid[1] + sign * v[1]),
                f"strip {k}, {'upper' if sign > 0 else 'lower'}", points,
            ))
    return Atlas(charts)


def quadrant_atlas():
    """The four closed quadrants about a puncture at the origin."""
    return atlas_for(((0.0, 0.0),))


# ---------------------------------------------------------------------------
# potentials

class PotentialEvaluator:
    """-(integral of the field along basepoint -> q), a chart's potential
    up to its gauge, which PotentialSet keeps.

    Values are memoized by exact coordinates.
    """

    def __init__(self, field, chart):
        self.field = field
        self.chart = chart
        self._cache = {}

    def raw(self, q):
        """The integral part alone (zero at the basepoint)."""
        key = (float(q[0]), float(q[1]))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = -segment_work(self.field, self.chart.basepoint,
                                                   self.member(key))
        return hit

    def member(self, key):
        if not self.chart.contains(key):
            raise ChartMembershipError(f"point {key} is outside chart {self.chart.id}")
        return key


class PotentialSet:
    """Per-chart potentials over one atlas, sharing a field.

    Gauges live outside the evaluators so shifting them never touches the
    memoized integrals.
    """

    def __init__(self, field, atlas, evaluators, gauges):
        self.field = field
        self.atlas = atlas
        self.evaluators = evaluators
        self.gauges = dict(gauges)

    @cached_property
    def basepoints(self):
        """The charts' basepoints in id order, as an (n, 2) array."""
        return np.array([ch.basepoint for ch in self.atlas.charts.values()])

    @cached_property
    def gauge_array(self):
        """The gauges in id order."""
        return np.array([self.gauges[cid] for cid in self.atlas.ids])

    @classmethod
    def from_field(cls, field, atlas, gauges=None):
        """Zero-gauge potentials (or the given gauges) on every chart;
        refuses a chart that holds one of the field's singular points
        strictly inside, which the charts need not list."""
        ids = atlas.ids
        if gauges is None:
            gauges = {cid: 0.0 for cid in ids}
        if set(gauges) != set(ids):
            raise ValidationError("gauges must cover exactly the chart ids")
        _refuse_inner_punctures(atlas.charts.values(), field.singular_points)
        evals = {cid: PotentialEvaluator(field, atlas.charts[cid]) for cid in ids}
        return cls(field, atlas, evals, {cid: float(gauges[cid]) for cid in ids})

    def value(self, cid, q):
        return self.gauges[cid] + self.evaluators[cid].raw(q)

    def values_many(self, requests):
        """The potentials at each (cid, points) of requests: memo hits, then every
        miss checked against its chart in one rule pass, then one kernel call."""
        memo = {cid: ev._cache for cid, ev in self.evaluators.items()}
        keys = [(cid, list(map(tuple, np.asarray(pts, dtype=float).reshape(-1, 2).tolist())))
                for cid, pts in requests]
        misses = dict.fromkeys((cid, q) for cid, qs in keys for q in qs if q not in memo[cid])
        if misses:
            cids, qs = zip(*misses)
            rows, pts = list(map(self.atlas.ids.index, cids)), np.array(qs)
            for n in np.flatnonzero(self.atlas._ruled_out(*pts.T)[rows, range(len(rows))]):
                self.evaluators[cids[n]].member(qs[n])
            for cid, q, v in zip(cids, qs, segment_integrals(self.field, self.basepoints[rows],
                                                             pts).tolist()):
                memo[cid][q] = -v
        return [self.gauges[cid] + np.array([memo[cid][q] for q in qs]) for cid, qs in keys]


def gauge_shift(ps, offsets):
    """New PotentialSet with V_i replaced by V_i + a_i; the underlying
    integrals (and their caches) are shared, not recomputed."""
    if set(offsets) != set(ps.atlas.ids):
        raise ValidationError("offsets must cover exactly the chart ids")
    gauges = {cid: ps.gauges[cid] + float(offsets[cid]) for cid in ps.atlas.ids}
    return PotentialSet(ps.field, ps.atlas, ps.evaluators, gauges)


# ---------------------------------------------------------------------------
# cocycle and exactness

class CechCocycle:
    """Constant overlap differences c_ij = V_i - V_j on the overlap graph."""

    def __init__(self, entries, spreads, atlas):
        self.entries = dict(entries)      # canonical (i < j) -> c_ij
        self.spreads = dict(spreads)
        self.atlas = atlas

    def value(self, i, j):
        if i == j:
            return 0.0
        if (i, j) in self.entries:
            return self.entries[(i, j)]
        if (j, i) in self.entries:
            return -self.entries[(j, i)]
        raise ValidationError(f"charts {i} and {j} do not overlap")

    def pairs(self):
        return sorted(self.entries)

    def cycle_sum(self, cycle):
        """Sum of c along consecutive chart ids (a nerve cycle or path)."""
        return sum(self.value(a, b) for a, b in zip(cycle[:-1], cycle[1:]))


def cocycle(ps, samples=DEFAULT_OVERLAP_SAMPLES):
    """Sample V_i - V_j on every nonempty overlap of ps.atlas and average.

    The spread over the samples must stay below COCYCLE_SPREAD_TOL,
    otherwise the field is not closed across that overlap and the
    difference is meaningless.  Triangle identities are verified to
    TRIANGLE_TOL on every inhabited triple overlap.

    All samples and potentials (one values_many call) come before the first
    spread check, so an atlas fault or kernel refusal on any overlap wins over
    a spread on an earlier one; spreads are then checked in pair order.
    """
    if not 1 <= samples <= MAX_OVERLAP_SAMPLES:
        raise ValidationError(f"samples must be in [1, {MAX_OVERLAP_SAMPLES}], got {samples}")
    at = ps.atlas
    ids = at.ids
    pairs = [(i, j, pts) for i, j in combinations(ids, 2)
             if len(pts := at.overlap_samples(i, j, samples))]
    vs = ps.values_many([(c, pts) for i, j, pts in pairs for c in (i, j)])
    entries, spreads = {}, {}
    for (i, j, _), diffs in zip(pairs, map(np.subtract, vs[::2], vs[1::2])):
        spread = float(np.max(diffs) - np.min(diffs))
        if spread > COCYCLE_SPREAD_TOL:
            raise CocycleConstancyError(
                f"V_{i} - V_{j} varies by {spread:.3e} on overlap "
                f"({i},{j}); tolerance {COCYCLE_SPREAD_TOL:.1e}"
            )
        entries[(i, j)] = float(np.mean(diffs))
        spreads[(i, j)] = spread
    cc = CechCocycle(entries, spreads, at)
    for (i, j) in cc.pairs():
        for k in ids:
            if k <= j or (j, k) not in cc.entries or (i, k) not in cc.entries:
                continue
            if at.triple_overlap_nonempty(i, j, k):
                resid = abs(cc.value(i, j) + cc.value(j, k) - cc.value(i, k))
                if resid > TRIANGLE_TOL:
                    raise CocycleConstancyError(
                        f"triangle identity fails on ({i},{j},{k}): {resid:.3e}"
                    )
    return cc


@dataclass(frozen=True)
class CyclePeriod:
    cycle: tuple
    period: float


@dataclass(frozen=True)
class ExactnessResult:
    exact: bool
    offsets: dict
    periods: tuple


def exactness_test(cc):
    """Solve c_ij = a_i - a_j on a spanning tree of the overlap graph.

    Residuals on the non-tree edges are the periods of the independent
    nerve cycles; the cocycle is exact iff they all vanish (to within
    COCYCLE_SPREAD_TOL, the noise an entry may carry).  When exact,
    shifting gauges by -a_i zeroes the cocycle.
    """
    ids = list(cc.atlas.ids)
    adj = {i: set() for i in ids}
    for (i, j) in cc.entries:
        adj[i].add(j)
        adj[j].add(i)

    parent, offsets, components = {}, {}, []
    for root in ids:    # a breadth-first spanning forest; one tree if connected
        if root in parent:
            continue
        parent[root], offsets[root] = None, 0.0
        queue = [root]
        for u in queue:
            for v in sorted(adj[u]):
                if v not in parent:
                    parent[v] = u
                    offsets[v] = offsets[u] - cc.value(u, v)
                    queue.append(v)
        components.append(sorted(queue))
    if len(components) > 1:
        raise NerveDisconnectedError(components)

    def up_path(v):
        chain = [v]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        return chain

    periods = []
    tree_edges = {
        (min(v, parent[v]), max(v, parent[v])) for v in parent if parent[v] is not None
    }
    for (u, v) in sorted(cc.entries):
        if (u, v) in tree_edges:
            continue
        period = cc.value(u, v) - (offsets[u] - offsets[v])
        pu, pv = up_path(u), up_path(v)
        common = set(pu) & set(pv)
        lca = next(n for n in pu if n in common)
        u_side = [n for n in pu if n not in common]
        v_side = [n for n in pv if n not in common]
        # the fundamental cycle: the edge u -> v, then v's tree path back to u
        cycle = tuple([u] + v_side + [lca] + u_side[::-1])
        periods.append(CyclePeriod(cycle, float(period)))

    exact = all(abs(p.period) <= COCYCLE_SPREAD_TOL for p in periods)
    return ExactnessResult(exact, offsets, tuple(periods))

