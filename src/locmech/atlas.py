"""Chart atlases, chart-local potentials, and the offset cocycle.

Charts are conjunctions of closed half-planes (a*x + b*y >= c) minus the
field's singular points, each with an interior basepoint.  A potential on
a chart is gauge - (segment integral of the field from the basepoint),
which the Poincare lemma makes well defined on star-shaped charts.

Potential differences on nonempty overlaps are constant for closed
fields; collecting them gives a cocycle on the overlap graph.  A
spanning-tree solve splits that cocycle into exact (offsets exist) or
not (nonzero periods on independent cycles), which is the whole
obstruction story in computable form.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ChartMembershipError,
    CocycleConstancyError,
    NerveDisconnectedError,
    SingularityError,
    ValidationError,
)
from .fields import R_MIN_EVAL, closest_approach, segment_integrals, segment_work

_CONSTRAINT_TOL = 1e-9
_EQUALITY_TOL = 1e-12
_SINGULAR_MARGIN = 1e-6
_SAMPLE_RADIUS = 8.0
_SAMPLE_BUDGET = 8192
DEFAULT_OVERLAP_SAMPLES = 32
COCYCLE_SPREAD_TOL = 1e-7


def _halton(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class Chart:
    """A closed convex region cut out by half-planes, minus singular points."""

    def __init__(self, cid, halfplanes, basepoint, label="", singular_points=()):
        self.id = int(cid)
        cons = []
        for a, b, c in halfplanes:
            norm = math.hypot(a, b)
            if norm == 0.0:
                raise ValidationError("half-plane normal must be nonzero")
            cons.append((float(a), float(b), float(c)))
        self.constraints = tuple(cons)
        self.basepoint = (float(basepoint[0]), float(basepoint[1]))
        self.label = label
        self.singular_points = tuple(
            (float(a), float(b)) for a, b in singular_points
        )
        for a, b, c in self.constraints:
            norm = math.hypot(a, b)
            slack = (a * self.basepoint[0] + b * self.basepoint[1] - c) / norm
            if slack < _CONSTRAINT_TOL:
                raise ValidationError(
                    f"chart {self.id}: basepoint must satisfy constraints strictly"
                )
        for s in self.singular_points:
            if math.hypot(self.basepoint[0] - s[0], self.basepoint[1] - s[1]) < _SINGULAR_MARGIN:
                raise ValidationError(f"chart {self.id}: basepoint too close to {s}")

    def contains(self, p, tol=_CONSTRAINT_TOL):
        x, y = p
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        for a, b, c in self.constraints:
            if a * x + b * y - c < -tol * math.hypot(a, b):
                return False
        for sx, sy in self.singular_points:
            if x == sx and y == sy:
                return False
        return True

    def first_exit(self, p0, p1, tol=_CONSTRAINT_TOL):
        """Smallest s in (0, 1] where the segment p0 -> p1 leaves the chart,
        or None if p1 is still inside; linear constraints are crossed exactly."""
        if self.contains(p1, tol):
            return None
        best = None
        for a, b, c in self.constraints:
            g0 = a * p0[0] + b * p0[1] - c
            g1 = a * p1[0] + b * p1[1] - c
            if g1 < -tol * math.hypot(a, b) and g0 > g1:
                s = g0 / (g0 - g1)
                if 0.0 <= s <= 1.0 and (best is None or s < best):
                    best = s
        return best

    def __repr__(self):
        return f"Chart({self.id}, {self.label or len(self.constraints)})"


@dataclass(frozen=True)
class CoverageReport:
    covered: bool
    missing: tuple


class Atlas:
    def __init__(self, charts):
        ids = [ch.id for ch in charts]
        if len(set(ids)) != len(ids):
            raise ValidationError("chart ids must be unique")
        self.charts = {ch.id: ch for ch in sorted(charts, key=lambda ch: ch.id)}
        self._overlap_cache = {}

    @property
    def ids(self):
        return tuple(self.charts)

    def chart_for(self, p, tol=_CONSTRAINT_TOL):
        """Lowest-id chart containing p, or None."""
        for cid in self.ids:
            if self.charts[cid].contains(p, tol):
                return cid
        return None

    def covers(self, points, tol=_CONSTRAINT_TOL):
        missing = tuple(
            (float(p[0]), float(p[1]))
            for p in points
            if self.chart_for(p, tol) is None
        )
        return CoverageReport(not missing, missing)

    def overlap_samples(self, i, j, k=DEFAULT_OVERLAP_SAMPLES):
        """At least k deterministic points in the overlap of charts i and j,
        or an empty array certifying emptiness (by exact degeneracy or by
        exhausting the sampling budget)."""
        key = (i, j, k) if i <= j else (j, i, k)
        if key not in self._overlap_cache:
            ci, cj = self.charts[i], self.charts[j]
            self._overlap_cache[key] = _region_samples([ci, cj], k)
        return self._overlap_cache[key]

    def triple_overlap_nonempty(self, i, j, k):
        pts = _region_samples([self.charts[i], self.charts[j], self.charts[k]],
                              1, budget=2048)
        return len(pts) > 0

    def __repr__(self):
        return f"Atlas(ids={list(self.ids)})"


def _region_samples(charts, k, budget=_SAMPLE_BUDGET):
    """Deterministic low-discrepancy samples of an intersection of charts.

    Opposing half-planes are first resolved into equality lines, so
    measure-zero overlaps (shared boundary rays) are sampled directly
    instead of hoping area sampling hits them.
    """
    cons = []
    singulars = set()
    for ch in charts:
        cons.extend(ch.constraints)
        singulars.update(ch.singular_points)
    singulars = sorted(singulars)

    normed = []
    for a, b, c in cons:
        n = math.hypot(a, b)
        normed.append((a / n, b / n, c / n))

    lines = []
    for u in range(len(normed)):
        au, bu, cu = normed[u]
        for v in range(u + 1, len(normed)):
            av, bv, cv = normed[v]
            if abs(au + av) < _EQUALITY_TOL and abs(bu + bv) < _EQUALITY_TOL:
                if abs(cu + cv) < _EQUALITY_TOL:
                    if (au, bu) < (0.0, 0.0):
                        au, bu, cu = -au, -bu, -cu
                    line = (au, bu, cu)
                    if not any(
                        abs(line[0] - L[0]) < 1e-9
                        and abs(line[1] - L[1]) < 1e-9
                        and abs(line[2] - L[2]) < 1e-9
                        for L in lines
                    ):
                        lines.append(line)
                else:
                    return np.empty((0, 2))  # parallel opposing planes, no gap

    def acceptable(x, y):
        for a, b, c in cons:
            if a * x + b * y - c < -_EQUALITY_TOL * max(1.0, math.hypot(a, b)):
                return False
        for sx, sy in singulars:
            if math.hypot(x - sx, y - sy) < _SINGULAR_MARGIN:
                return False
        return True

    if len(lines) >= 2:
        (a1, b1, c1), (a2, b2, c2) = lines[0], lines[1]
        det = a1 * b2 - a2 * b1
        if abs(det) < _EQUALITY_TOL:
            return np.empty((0, 2))
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if all(
            abs(a * x + b * y - c) < 1e-9 for a, b, c in lines[2:]
        ) and acceptable(x, y):
            return np.array([[x, y]] * k)
        return np.empty((0, 2))

    if len(lines) == 1:
        a, b, c = lines[0]
        p0 = (a * c, b * c)
        d = (-b, a)
        lo, hi = -_SAMPLE_RADIUS, _SAMPLE_RADIUS
        for A, B, C in normed:
            beta = A * d[0] + B * d[1]
            alpha = A * p0[0] + B * p0[1] - C
            if abs(beta) < _EQUALITY_TOL:
                if alpha < -_CONSTRAINT_TOL:
                    return np.empty((0, 2))
                continue
            bound = -alpha / beta
            if beta > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        if hi <= lo:
            return np.empty((0, 2))
        out = []
        idx = 1
        while len(out) < k and idx <= budget:
            s = lo + (hi - lo) * _halton(idx, 2)
            x, y = p0[0] + s * d[0], p0[1] + s * d[1]
            if acceptable(x, y):
                out.append((x, y))
            idx += 1
        return np.array(out) if out else np.empty((0, 2))

    out = []
    r_lo, r_hi = 0.05, _SAMPLE_RADIUS
    for idx in range(1, budget + 1):
        r = r_lo * (r_hi / r_lo) ** _halton(idx, 2)
        phi = math.tau * _halton(idx, 3)
        x, y = r * math.cos(phi), r * math.sin(phi)
        if acceptable(x, y):
            out.append((x, y))
            if len(out) >= k:
                break
    return np.array(out) if out else np.empty((0, 2))


def quadrant_atlas(singular_points=((0.0, 0.0),)):
    """Four closed quadrants minus the singular set; overlaps are the four
    open half-axes and no triple overlap survives removing the origin."""
    specs = [
        (1, [(1, 0, 0), (0, 1, 0)], (1.0, 1.0), "x>=0, y>=0"),
        (2, [(-1, 0, 0), (0, 1, 0)], (-1.0, 1.0), "x<=0, y>=0"),
        (3, [(-1, 0, 0), (0, -1, 0)], (-1.0, -1.0), "x<=0, y<=0"),
        (4, [(1, 0, 0), (0, -1, 0)], (1.0, -1.0), "x>=0, y<=0"),
    ]
    return Atlas([
        Chart(cid, hp, bp, label, singular_points) for cid, hp, bp, label in specs
    ])


# ---------------------------------------------------------------------------
# star-shape checking

@dataclass(frozen=True)
class StarShapeReport:
    passed: bool
    checked: int
    violation: tuple | None   # (sample point, singular point its segment hits)


def check_star_shaped(chart, samples=1000, box_radius=4.0):
    """Sampled check that every basepoint -> q segment stays in the chart.

    Convexity makes the half-plane part automatic, so the real content is
    singular-point avoidance.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    bp = chart.basepoint
    checked = 0
    idx = 1
    budget = 200 * samples
    while checked < samples and idx <= budget:
        x = box_radius * (2.0 * _halton(idx, 2) - 1.0)
        y = box_radius * (2.0 * _halton(idx, 3) - 1.0)
        idx += 1
        if not chart.contains((x, y)):
            continue
        if any(
            math.hypot(x - sx, y - sy) < _SINGULAR_MARGIN
            for sx, sy in chart.singular_points
        ):
            continue
        checked += 1
        for s in chart.singular_points:
            if closest_approach(bp, (x, y), s)[1] < R_MIN_EVAL:
                return StarShapeReport(False, checked, ((x, y), s))
    return StarShapeReport(True, checked, None)


# ---------------------------------------------------------------------------
# potentials

class PotentialEvaluator:
    """V(q) = gauge - integral of the field along basepoint -> q.

    Values are memoized by exact coordinates; CPython's GIL makes the
    cache safe for concurrent readers with serialized writers.
    """

    def __init__(self, field, chart, gauge=0.0):
        self.field = field
        self.chart = chart
        self.gauge = float(gauge)
        self._cache = {}

    def raw(self, q):
        """The integral part alone (zero at the basepoint)."""
        key = (float(q[0]), float(q[1]))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = -segment_work(self.field, self.chart.basepoint,
                                                   self._member(key))
        return hit

    def raw_many(self, points):
        """raw at every row of points: memo hits, then every miss checked
        against the chart, then all distinct misses in one kernel call."""
        keys = [tuple(p) for p in np.asarray(points, dtype=float).reshape(-1, 2).tolist()]
        misses = [self._member(k) for k in dict.fromkeys(keys) if k not in self._cache]
        if misses:
            vals = -segment_integrals(self.field, self.chart.basepoint, misses)
            self._cache.update(zip(misses, vals.tolist()))
        return np.array([self._cache[k] for k in keys])

    def _member(self, key):
        if not self.chart.contains(key):
            raise ChartMembershipError(f"point {key} is outside chart {self.chart.id}")
        return key

    def __call__(self, q):
        return self.gauge + self.raw(q)


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

    @classmethod
    def from_field(cls, field, atlas, gauges=None):
        ids = atlas.ids
        if gauges is None:
            gauges = {cid: 0.0 for cid in ids}
        elif not isinstance(gauges, dict):
            gauges = dict(zip(ids, gauges))
        if set(gauges) != set(ids):
            raise ValidationError("gauges must cover exactly the chart ids")
        evals = {cid: PotentialEvaluator(field, atlas.charts[cid]) for cid in ids}
        return cls(field, atlas, evals, {cid: float(gauges[cid]) for cid in ids})

    def value(self, cid, q):
        return self.gauges[cid] + self.evaluators[cid].raw(q)

    def values(self, cid, points):
        return self.gauges[cid] + self.evaluators[cid].raw_many(points)


def gauge_shift(ps, offsets):
    """New PotentialSet with V_i replaced by V_i + a_i; the underlying
    integrals (and their caches) are shared, not recomputed."""
    if not isinstance(offsets, dict):
        offsets = dict(zip(ps.atlas.ids, offsets))
    if set(offsets) != set(ps.atlas.ids):
        raise ValidationError("offsets must cover exactly the chart ids")
    gauges = {cid: ps.gauges[cid] + float(offsets[cid]) for cid in ps.atlas.ids}
    return PotentialSet(ps.field, ps.atlas, ps.evaluators, gauges)


# ---------------------------------------------------------------------------
# cocycle and exactness

class CechCocycle:
    """Constant overlap differences c_ij = V_i - V_j on the overlap graph."""

    def __init__(self, entries, spreads, atlas, samples, tol):
        self.entries = dict(entries)      # canonical (i < j) -> c_ij
        self.spreads = dict(spreads)
        self.atlas = atlas
        self.samples = samples
        self.tol = tol

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


def cocycle(ps, atlas=None, samples=DEFAULT_OVERLAP_SAMPLES,
            tol=COCYCLE_SPREAD_TOL, triangle_tol=1e-9):
    """Sample V_i - V_j on every nonempty overlap and average.

    The spread over the samples must stay below tol, otherwise the field
    is not closed across that overlap and the difference is meaningless.
    Triangle identities are verified on every inhabited triple overlap.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    at = atlas or ps.atlas
    ids = at.ids
    entries, spreads = {}, {}
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            pts = at.overlap_samples(i, j, samples)
            if len(pts) == 0:
                continue
            diffs = ps.values(i, pts) - ps.values(j, pts)
            spread = float(np.max(diffs) - np.min(diffs))
            if spread > tol:
                raise CocycleConstancyError(
                    f"V_{i} - V_{j} varies by {spread:.3e} on overlap "
                    f"({i},{j}); tolerance {tol:.1e}"
                )
            entries[(i, j)] = float(np.mean(diffs))
            spreads[(i, j)] = spread
    cc = CechCocycle(entries, spreads, at, samples, tol)
    for (i, j) in cc.pairs():
        for k in ids:
            if k <= j or (j, k) not in cc.entries or (i, k) not in cc.entries:
                continue
            if at.triple_overlap_nonempty(i, j, k):
                resid = abs(cc.value(i, j) + cc.value(j, k) - cc.value(i, k))
                if resid > triangle_tol:
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
    tol: float


def exactness_test(cc, tol=COCYCLE_SPREAD_TOL):
    """Solve c_ij = a_i - a_j on a spanning tree of the overlap graph.

    Residuals on the non-tree edges are the periods of the independent
    nerve cycles; the cocycle is exact iff they all vanish.  When exact,
    shifting gauges by -a_i zeroes the cocycle.
    """
    ids = list(cc.atlas.ids)
    adj = {i: set() for i in ids}
    for (i, j) in cc.entries:
        adj[i].add(j)
        adj[j].add(i)

    root = ids[0]
    parent = {root: None}
    offsets = {root: 0.0}
    order = [root]
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                offsets[v] = offsets[u] - cc.value(u, v)
                order.append(v)
                queue.append(v)
    if len(order) != len(ids):
        seen = set(order)
        components = [sorted(seen)]
        rest = [i for i in ids if i not in seen]
        while rest:
            comp_root = rest[0]
            comp = {comp_root}
            stack = [comp_root]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            components.append(sorted(comp))
            rest = [i for i in rest if i not in comp]
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

    exact = all(abs(p.period) <= tol for p in periods)
    return ExactnessResult(exact, offsets, tuple(periods), tol)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class GradientReport:
    max_error: float
    checked: int
    h: float


def potential_gradient_report(ps, h=1e-5, samples=100, margin=0.05,
                              box_radius=3.0):
    """Max over interior samples of |finite-difference grad V_i + field|."""
    worst = 0.0
    checked = 0
    for cid in ps.atlas.ids:
        ch = ps.atlas.charts[cid]
        got = 0
        idx = 1
        while got < samples and idx <= 200 * samples:
            x = box_radius * (2.0 * _halton(idx, 2) - 1.0)
            y = box_radius * (2.0 * _halton(idx, 3) - 1.0)
            idx += 1
            ok = all(
                (a * x + b * y - c) / math.hypot(a, b) >= margin
                for a, b, c in ch.constraints
            ) and all(
                math.hypot(x - sx, y - sy) >= margin
                for sx, sy in ch.singular_points
            )
            if not ok:
                continue
            got += 1
            checked += 1
            gx = (ps.value(cid, (x + h, y)) - ps.value(cid, (x - h, y))) / (2 * h)
            gy = (ps.value(cid, (x, y + h)) - ps.value(cid, (x, y - h))) / (2 * h)
            fx, fy = ps.field.eval_at(x, y)
            worst = max(worst, math.hypot(gx + fx, gy + fy))
    return GradientReport(worst, checked, h)
