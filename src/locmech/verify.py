"""Built-in verification suite over the vortex benchmark scenario.

Ten numbered checks exercise the package end to end: loop work against
winding counts, closedness probes, the overlap-difference cocycle, the
exponentiated transition system, the symplectic benchmark run with its
energy ledgers, universal-cover lifts, log-germ continuation, the
euclidean exterior-calculus tables, and byte determinism of emitted
artifacts.

Detail strings carry only run-independent quantities (residuals,
ratios, counts), so a rendered report is byte-identical between runs
of the same build; the wall-clock budgets in BUDGETS are enforced in
the verdicts, and only a check that overruns its budget names it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atlas import (
    PotentialSet,
    cocycle,
    exactness_test,
    gauge_shift,
    quadrant_atlas,
)
from .bundle import holonomy, is_trivial, transitions
from .cover import (
    LogGerm,
    continue_log,
    cover_energy,
    lift_path,
    lift_trajectory,
    monodromy_log,
)
from .dynamics import SimConfig, energy_ledger, simulate
from .fields import (
    TAU,
    PolylinePath,
    circle_path,
    concatenate,
    from_components,
    is_closed,
    vortex,
    winding_number,
    work,
)
from .forms3 import (
    HODGE_TABLE,
    VectorField3,
    basis_form,
    curl,
    div,
    flat,
    grad,
    hodge,
    sharp,
    wedge,
)

BENCH_Q0 = (1.0, 0.0)
BENCH_P0 = (0.0, 1.0)
BENCH_M = 1.0
BENCH_H = 1e-3
BENCH_T = 5.0

# unit square about the origin, positively oriented, and a diamond whose
# vertices are exact floats on the axes (loops built from it return to
# their start bitwise)
_SQUARE = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
_DIAMOND = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _loop_polyline(ring, n):
    """Closed polyline winding n times over the vertex ring (n != 0);
    traversal starts at ring[0] for either orientation."""
    if n > 0:
        cycle = list(ring)
    else:
        cycle = [ring[0]] + list(ring[:0:-1])
    return PolylinePath(cycle * abs(n) + [cycle[0]])


def _loops(n):
    """The unit circle and the square _SQUARE, each winding n times about
    the origin; for n = 0, each once about (3, 0)."""
    if n:
        return circle_path(0.0, 0.0, 1.0, turns=n), _loop_polyline(_SQUARE, n)
    return circle_path(3.0, 0.0, 1.0), _loop_polyline([(x + 3.0, y) for x, y in _SQUARE], 1)


class _Bench:
    """Vortex benchmark artifacts, built once and shared across checks."""

    def __init__(self):
        self.field = vortex()
        self.atlas = quadrant_atlas()
        self._runs = {}
        self._ledgers = {}

    @cached_property
    def ps(self):
        return PotentialSet.from_field(self.field, self.atlas)

    @cached_property
    def cc(self):
        return cocycle(self.ps)

    @cached_property
    def exact_control(self):
        """A globally conservative field over the same atlas, with
        deliberately uneven chart gauges so its cocycle is nonzero."""
        gauges = {1: 0.3, 2: -1.1, 3: 0.0, 4: 2.5}
        ps = PotentialSet.from_field(from_components("2*x", "2*y"), self.atlas, gauges=gauges)
        return ps, cocycle(ps)

    def run(self, h):
        if h not in self._runs:
            cfg = SimConfig(
                field=self.field,
                atlas=self.atlas,
                q0=BENCH_Q0,
                p0=BENCH_P0,
                m=BENCH_M,
                h=h,
                T=BENCH_T,
            )
            self._runs[h] = simulate(cfg, self.ps)
        return self._runs[h]

    def ledger(self, h):
        if h not in self._ledgers:
            self._ledgers[h] = energy_ledger(self.run(h), self.ps, self.cc)
        return self._ledgers[h]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float      # wall-clock time run_all measured; not in the rendered report


@dataclass(frozen=True)
class VerifyReport:
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        out = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            out.append(f"[{r.number:2d}] {mark} {r.name:<18} {r.detail}")
        return out

    def render(self):
        n_fail = sum(not r.passed for r in self.results)
        tail = (
            "all checks passed"
            if n_fail == 0
            else f"{n_fail} check(s) failed"
        )
        return "\n".join(self.lines() + [tail])


def _check_work_winding(bench):
    f = bench.field
    worst = 0.0
    windings_ok = True
    cases = 0
    for n in (-2, -1, 0, 1, 2):
        for path in _loops(n):
            worst = max(worst, abs(work(f, path) - TAU * n))
            if winding_number(path).number != n:
                windings_ok = False
            cases += 1
    passed = worst < 1e-12 and windings_ok
    detail = f"{cases} loops, max |work - 2*pi*n| = {worst:.3e}"
    if not windings_ok:
        detail += "; winding mismatch"
    return passed, detail


def _check_closedness(bench):
    rep = is_closed(bench.field)    # over fields.PROBE_REGION
    ctrl = is_closed(from_components("0", "x"))
    passed = (
        rep.passed
        and rep.max_residual < 1e-12
        and not ctrl.passed
        and abs(ctrl.max_residual - 1.0) < 0.1
    )
    detail = (
        f"vortex residual {rep.max_residual:.3e}, "
        f"x dy control residual {ctrl.max_residual:.3f}"
    )
    return passed, detail


def _check_cocycle(bench):
    cc = bench.cc
    ids = bench.atlas.ids
    sym_ok = all(cc.value(i, i) == 0.0 for i in ids) and all(
        cc.value(i, j) == -cc.value(j, i) for (i, j) in cc.pairs()
    )
    spread = max(cc.spreads.values())
    csum = cc.cycle_sum((1, 2, 3, 4, 1))
    circ = work(bench.field, circle_path(0.0, 0.0, 1.0))
    sum_ok = abs(csum + TAU) < 1e-6 and abs(csum + circ) < 1e-6
    non_exact = not exactness_test(cc).exact

    ps_exact, cc_exact = bench.exact_control
    res = exactness_test(cc_exact)
    recovered = math.inf
    if res.exact:
        shifted = gauge_shift(ps_exact, {i: -res.offsets[i] for i in ids})
        cc0 = cocycle(shifted)
        recovered = max(abs(cc0.value(i, j)) for (i, j) in cc0.pairs())
    passed = (
        sym_ok
        and spread < 1e-12
        and sum_ok
        and non_exact
        and res.exact
        and recovered < 1e-7
    )
    detail = (
        f"spread {spread:.3e}, cycle sum {csum:+.9f}, "
        f"exact-control residual after offset recovery {recovered:.3e}"
    )
    if not sym_ok:
        detail += "; antisymmetry violated"
    if not non_exact:
        detail += "; vortex misreported as exact"
    return passed, detail


def _check_holonomy(bench):
    ts = transitions(bench.cc)
    hol = holonomy(ts, (1, 2, 3, 4, 1))
    expected = math.exp(-TAU)
    rel = abs(hol - expected) / expected
    vortex_rep = is_trivial(ts)

    _, cc_exact = bench.exact_control
    ts_exact = transitions(cc_exact)
    ctrl_rep = is_trivial(ts_exact)
    gauge_err = math.inf
    if ctrl_rep.trivial and ctrl_rep.gauges:
        s = ctrl_rep.gauges
        gauge_err = max(
            abs(ts_exact.factor(i, j) - s[i] / s[j]) / ts_exact.factor(i, j)
            for (i, j) in ts_exact.edges()
        )
    passed = (
        rel < 1e-12
        and not vortex_rep.trivial
        and ctrl_rep.trivial
        and gauge_err < 1e-7
    )
    detail = (
        f"cycle product rel err {rel:.3e} vs exp(-2*pi), "
        f"fiber-gauge residual {gauge_err:.3e}"
    )
    if vortex_rep.trivial:
        detail += "; vortex misreported trivial"
    return passed, detail


def _ptheta_error(tr):
    return float(np.max(np.abs(tr.p_theta - tr.p_theta[0] - tr.t)))


def _check_angular_momentum(bench):
    tr1 = bench.run(BENCH_H)
    tr2 = bench.run(BENCH_H / 2)
    e1 = _ptheta_error(tr1)
    e2 = _ptheta_error(tr2)
    ratio = bench.ledger(BENCH_H).max_drift / bench.ledger(BENCH_H / 2).max_drift
    passed = (
        tr1.completed
        and tr2.completed
        and e1 < 1e-4
        and e2 < 1e-4
        and 3.0 <= ratio <= 5.0
    )
    detail = (
        f"max |p_theta(t)-p_theta(0)-t| = {e1:.3e} (h), {e2:.3e} (h/2); "
        f"energy-drift halving ratio {ratio:.3f}"
    )
    return passed, detail


def _check_energy_ledger(bench):
    tr = bench.run(BENCH_H)
    led = bench.ledger(BENCH_H)
    residual = max((tc.residual for tc in led.transition_checks), default=math.inf)
    work_err = float(
        np.max(np.abs((tr.Tkin - tr.Tkin[0]) - tr.work_acc))
    )
    passed = (
        led.max_drift < 1e-5
        and len(led.transition_checks) > 0
        and residual < 1e-9
        and work_err < 1e-5
    )
    detail = (
        f"segment drift {led.max_drift:.3e}, "
        f"transition residual {residual:.3e} "
        f"({len(led.transition_checks)} crossings), "
        f"work-energy gap {work_err:.3e}"
    )
    return passed, detail


def _check_cover_energy(bench):
    tr1 = bench.run(BENCH_H)
    tr2 = bench.run(BENCH_H / 2)
    ce1 = cover_energy(tr1, lift_trajectory(tr1))
    ce2 = cover_energy(tr2, lift_trajectory(tr2))
    ratio = ce1.drift / ce2.drift
    sheets_ok = True
    for n in (-2, -1, 0, 1, 2):
        path = _loops(n)[0]
        sh = lift_path(path).sheets()
        if int(sh[-1] - sh[0]) != n or winding_number(path).number != n:
            sheets_ok = False
    passed = ce1.drift < 1e-4 and 3.0 <= ratio <= 5.0 and sheets_ok
    detail = (
        f"lifted-energy drift {ce1.drift:.3e}, halving ratio {ratio:.3f}"
    )
    if not sheets_ok:
        detail += "; sheet/winding mismatch"
    return passed, detail


def _check_log_monodromy(bench):
    g0 = LogGerm(complex(1.0, 0.0), 0)
    shifts_ok = True
    for n in (-3, -2, -1, 1, 2, 3):
        g1 = continue_log(g0, _loop_polyline(_DIAMOND, n))
        if g1.sheet != n or g1.value - g0.value != monodromy_log(n):
            shifts_ok = False
    out_back = PolylinePath([(1.0, 0.0), (2.0, 1.0), (1.0, 0.0)])
    if continue_log(g0, out_back) != g0:
        shifts_ok = False

    rng = np.random.default_rng(8881)
    groupoid_ok = True
    worst = 0.0
    for _ in range(100):
        phis = np.cumsum(rng.uniform(-1.2, 1.2, size=9))
        radii = rng.uniform(0.5, 2.0, size=9)
        pts = [(float(r * math.cos(p)), float(r * math.sin(p)))
               for r, p in zip(radii, phis)]
        leg1 = PolylinePath(pts[:5])
        leg2 = PolylinePath(pts[4:])
        germ = LogGerm(complex(*pts[0]), int(rng.integers(-2, 3)))
        step = continue_log(continue_log(germ, leg1), leg2)
        cat = continue_log(germ, concatenate(leg1, leg2))
        worst = max(worst, abs(step.value - cat.value))
        if step.sheet != cat.sheet or abs(step.value - cat.value) > 1e-9:
            groupoid_ok = False
        if continue_log(continue_log(germ, leg1), leg1.reversed()) != germ:
            groupoid_ok = False
    passed = shifts_ok and groupoid_ok
    detail = (
        "germ shifts exactly 2*pi*i*n for n in [-3,3]; "
        f"100 concatenations, worst value gap {worst:.3e}"
    )
    if not shifts_ok:
        detail = "germ shift mismatch; " + detail
    return passed, detail


def _check_forms(bench):
    probe = (0.3, -0.7, 1.1)
    table_ok = True
    for label, (target, sign) in HODGE_TABLE.items():
        starred = hodge(basis_form(label))
        if set(starred.components) != {target}:
            table_ok = False
        elif starred.component(target)(*probe) != float(sign):
            table_ok = False
        twice = hodge(starred)
        if set(twice.components) != {label} or twice.component(label)(*probe) != 1.0:
            table_ok = False

    rng = np.random.default_rng(910)
    worst = 0.0
    for _ in range(100):
        u, v, w = rng.uniform(-2.0, 2.0, size=(3, 3))
        fu, fv, fw = (VectorField3(*vec) for vec in (u, v, w))
        pt = tuple(rng.uniform(-1.0, 1.0, size=3))
        dot = hodge(wedge(flat(fu), hodge(flat(fv)))).component("1")(*pt)
        worst = max(worst, abs(dot - float(np.dot(u, v))))
        cross = np.array(sharp(hodge(wedge(flat(fu), flat(fv)))).evaluate(pt))
        worst = max(worst, float(np.max(np.abs(cross - np.cross(u, v)))))
        anti = np.array(sharp(hodge(wedge(flat(fv), flat(fu)))).evaluate(pt))
        worst = max(worst, float(np.max(np.abs(anti + cross))))
        triple = hodge(
            wedge(wedge(flat(fu), flat(fv)), flat(fw))
        ).component("1")(*pt)
        worst = max(worst, abs(triple - float(np.linalg.det(np.array([u, v, w])))))
        rt = np.array(sharp(flat(fu)).evaluate(pt))
        worst = max(worst, float(np.max(np.abs(rt - u))))

    second_worst = 0.0
    cg = curl(grad("sin(x)*cos(y)*exp(0.3*z)"))
    dc = div(curl(VectorField3("sin(y*z)", "x*z", "exp(0.2*x)*y")))
    for _ in range(20):
        pt = tuple(rng.uniform(-1.0, 1.0, size=3))
        second_worst = max(
            second_worst, float(np.max(np.abs(np.array(cg.evaluate(pt)))))
        )
        second_worst = max(second_worst, abs(dc(*pt)))
    passed = table_ok and worst < 1e-12 and second_worst < 1e-12
    detail = (
        f"star table exact, vector identities worst {worst:.3e}, "
        f"curl grad / div curl worst {second_worst:.3e}"
    )
    if not table_ok:
        detail = "star table mismatch; " + detail
    return passed, detail


def _check_determinism(bench):
    from . import cli

    argvs = (
        ["simulate", "--field", "vortex", "--atlas", "quadrant", "--m", "1", "--q0", "1,0",
         "--p0", "0,1", "--h", "1e-2", "--T", "1.0", "--out", "traj.csv", "--emit-svg",
         "traj.svg", "--deterministic"],
        ["cocycle", "--field", "vortex", "--atlas", "quadrant", "--deterministic"],
        ["forms-table", "--deterministic"],
    )
    first, second = ([cli.render(argv) for argv in argvs] for _ in range(2))
    codes_ok = all(code == 0 for code, _, _ in first)
    passed = codes_ok and first == second
    if passed:
        detail = (
            "simulate CSV/JSON/SVG, cocycle report and star table "
            "byte-identical across repeated runs"
        )
    elif not codes_ok:
        detail = "a subcommand exited nonzero"
    else:
        diff = [argv[0] for argv, a, b in zip(argvs, first, second) if a != b]
        detail = f"outputs differ between runs: {', '.join(diff)}"
    return passed, detail


CHECKS = (
    (1, "work-winding", _check_work_winding),
    (2, "closedness", _check_closedness),
    (3, "cocycle", _check_cocycle),
    (4, "holonomy", _check_holonomy),
    (5, "angular-momentum", _check_angular_momentum),
    (6, "energy-ledger", _check_energy_ledger),
    (7, "cover-energy", _check_cover_energy),
    (8, "log-monodromy", _check_log_monodromy),
    (9, "forms-identities", _check_forms),
    (10, "determinism", _check_determinism),
)
# wall-clock seconds a check may take, timed by run_all
BUDGETS = {1: 1.0, 4: 1.0, 5: 5.0}


def run_all(numbers=None):
    """Run the verification checks (all, or a subset by number)."""
    bench = _Bench()
    results = []
    for number, name, fn in CHECKS:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(bench)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds, budget = time.perf_counter() - t0, BUDGETS.get(number, math.inf)
        if seconds >= budget:
            passed, detail = False, f"{detail}; runtime over {budget:g} s budget"
        results.append(CheckResult(number, name, passed, detail, seconds))
    return VerifyReport(tuple(results))
