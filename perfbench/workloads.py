"""The two seeded workloads: inputs, set-up, timed operations, checks.

`dynamics` is every trajectory a user runs on the vortex: far-field
orbits, the verify check-5 pair through the API and the CLI, and short
runs that start close to the puncture.  `queries` is one-shot API calls
with no dynamics.

Inputs are generated from the seed before timing and are plain floats,
expression strings and vertex lists.  Set-up builds what a user builds
before the first query (field, atlas, PotentialSet, cocycle); each
operation is one call into locmech's public API, issued by one client in a
closed loop; each answer is checked afterwards against oracle.py.

Every call goes through a module attribute (`lm.simulate`, `cli.run`) so
that the traced run, which rebinds those attributes, sees every call.

Parameters that set the cost of an operation are drawn from a rank-1
lattice, so the work in a batch and its latency percentiles vary little
between seeds: in queries the seed shifts the lattice (randomized
quasi-Monte Carlo), in dynamics it turns each run into a
quadrant, which leaves its cost as it is (see _quarter_turned).
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import locmech as lm
from locmech import cli

import checks
import oracle


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, checks.Audit], None]
    states: int = 0          # logged states, filled in by the check


def _lattice(rng, n, ranges, shifted=True):
    """n points of a Korobov lattice in the box `ranges`, shifted by a random
    vector modulo 1 and returned in random order (shifted=False: a fixed
    half-cell shift, in lattice order)."""
    a = round(n / 1.618)
    while math.gcd(a, n) != 1:
        a += 1
    gens = [pow(a, j, n) for j in range(len(ranges))]
    shift = [rng.random() if shifted else 0.5 / n for _ in ranges]
    pts = [tuple(lo + (hi - lo) * ((i * g / n + s) % 1.0)
                 for g, s, (lo, hi) in zip(gens, shift, ranges)) for i in range(n)]
    if shifted:
        rng.shuffle(pts)
    return pts


def _unit(angle):
    return (math.cos(angle), math.sin(angle))


def _quarter_turned(rng, phase):
    """`phase` turned into a quadrant the seed picks.  A vortex run costs
    what its place within its quadrant makes it cost (the post-pass
    integrates from the chart's base point), and the vortex and the
    quadrant atlas are both invariant under quarter turns: the dynamics
    workload draws run shapes from a fixed lattice and lets the seed turn
    and order them, so answers change with the seed and costs do not."""
    return phase + rng.randrange(4) * math.pi / 2


# ---------------------------------------------------------------------------
# dynamics, part 1: far-field vortex runs plus the verify check-5 scenario

CHECK5 = {"q0": (1.0, 0.0), "p0": (0.0, 1.0), "T": 5.0, "hs": (1e-3, 5e-4)}
ORBIT_FAR = 24
ORBIT_FAR_T = 0.5
ORBIT_H = 1e-3


def _far_runs(rng):
    runs = []
    # direction relative to the outward radius in (pi/6, 5pi/6): p_theta > 0,
    # so the centrifugal barrier keeps every run in the far field
    box = [(0.5, 3.0), (math.pi / 6, 5 * math.pi / 6), (0.5, 1.5), (0.0, math.pi / 2)]
    for r0, alpha, speed, phase in _lattice(rng, ORBIT_FAR, box, shifted=False):
        phase = _quarter_turned(rng, phase)
        q0 = (r0 * math.cos(phase), r0 * math.sin(phase))
        p0 = tuple(speed * c for c in _unit(phase + alpha))
        runs.append({"q0": q0, "p0": p0, "h": ORBIT_H, "T": ORBIT_FAR_T})
    rng.shuffle(runs)
    return runs


def _vortex_setup():
    field = lm.vortex()
    for expr in (field.fx, field.fy):
        expr.scalar_fn, expr.array_fn
    atlas = lm.quadrant_atlas()
    ps = lm.PotentialSet.from_field(field, atlas)
    cc = lm.cocycle(ps)
    return {"field": field, "atlas": atlas, "ps": ps, "cc": cc}


def _check_setup(state, fam, audit):
    checks.cocycle(state["cc"], fam, audit)


def _orbit_run(state, q0, p0, h, T):
    cfg = lm.SimConfig(field=state["field"], atlas=state["atlas"], q0=q0, p0=p0,
                       h=h, T=T)
    tr = lm.simulate(cfg, state["ps"])
    led = lm.energy_ledger(tr, state["ps"], state["cc"])
    lifted = lm.lift_trajectory(tr)
    return tr, led, lifted, lm.cover_energy(tr, lifted)


def _orbit_check(op, fam, q0, p0, keep=None):
    def check(answer, audit):
        tr, led, lifted, report = answer
        checks.trajectory(tr, fam, q0, p0, "completed", audit)
        checks.ledger(tr, led, fam, audit)
        checks.lift(tr, lifted, report, fam, audit)
        op.states = tr.n_states
        if keep is not None:
            keep.append(tr)
    return check


def _cli_simulate(workdir, tag, h):
    csv = os.path.join(workdir, f"check5-{tag}.csv")
    svg = os.path.join(workdir, f"check5-{tag}.svg")
    argv = ["simulate", "--field", "vortex", "--atlas", "quadrant", "--m", "1",
            "--q0", "1,0", "--p0", "0,1", "--h", repr(h), "--T", repr(CHECK5["T"]),
            "--out", csv, "--emit-svg", svg, "--deterministic"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue(), csv, svg


def _read(path):
    with open(path) as fh:
        return fh.read()


def _orbit_ops(state, inputs, workdir, fam, tracer):
    """The far-field runs, and the check-5 runs (API, then CLI)."""
    far = []
    for run in inputs["far"]:
        op = Op("far", lambda r=run: _orbit_run(state, r["q0"], r["p0"], r["h"], r["T"]), None)
        op.check = _orbit_check(op, fam, run["q0"], run["p0"])
        far.append(op)
    ops = []
    api_runs = []
    for h in CHECK5["hs"]:
        op = Op("check5", lambda h=h: _orbit_run(state, CHECK5["q0"], CHECK5["p0"], h,
                                                 CHECK5["T"]), None)
        op.check = _orbit_check(op, fam, CHECK5["q0"], CHECK5["p0"], keep=api_runs)
        ops.append(op)
    for tag, h in enumerate(CHECK5["hs"]):
        op = Op("cli", lambda tag=tag, h=h: _cli_simulate(workdir, tag, h), None)

        def check(answer, audit, op=op, tag=tag):
            code, stdout, csv, svg = answer
            audit.equal("cli exit code", code, 0)
            reference = api_runs[tag]
            csv_text, svg_text = _read(csv), _read(svg)
            sidecar_text = _read(os.path.splitext(csv)[0] + ".transitions.json")
            checks.csv_file(csv_text, fam, audit, reference)
            checks.sidecar(sidecar_text, reference, audit)
            checks.svg_file(svg_text, audit)
            audit.record(stdout.replace(workdir, "<dir>"), csv_text, svg_text, sidecar_text)
            written = sum(len(t.encode()) for t in (csv_text, svg_text, sidecar_text))
            if tracer is not None:
                tracer.add("cli.bytes_written", written)
            op.states = reference.n_states
        op.check = check
        ops.append(op)
    return far, ops


# ---------------------------------------------------------------------------
# dynamics, part 2: short runs that start close to the puncture

CLOSE_STARTS = 100
CLOSE_AIMED = 6
CLOSE_H = 1e-3
CLOSE_T = 0.01            # 11 logged states per completed run
CLOSE_R = (0.005, 0.1)
AIMED_R = (0.003, 0.006)


def _close_runs(rng):
    n = CLOSE_STARTS - CLOSE_AIMED
    box = [(math.log(CLOSE_R[0]), math.log(CLOSE_R[1])),
           (math.pi / 6, 5 * math.pi / 6), (0.0, math.pi / 2)]
    runs = []
    for lr, alpha, phase in _lattice(rng, n, box, shifted=False):
        r0, phase = math.exp(lr), _quarter_turned(rng, phase)
        runs.append({"q0": (r0 * math.cos(phase), r0 * math.sin(phase)),
                     "p0": _unit(phase + alpha), "status": "completed"})
    # aimed straight at the puncture with the speed that reaches it in
    # `steps` steps: the run ends with aborted-singularity
    box = [(math.log(AIMED_R[0]), math.log(AIMED_R[1])), (0.0, math.pi / 2)]
    for i, (lr, phase) in enumerate(_lattice(rng, CLOSE_AIMED, box, shifted=False)):
        r0, steps, phase = math.exp(lr), 1 + i % 2, _quarter_turned(rng, phase)
        speed = r0 / (steps * CLOSE_H)
        runs.append({"q0": (r0 * math.cos(phase), r0 * math.sin(phase)),
                     "p0": tuple(-speed * c for c in _unit(phase)),
                     "status": "aborted-singularity"})
    rng.shuffle(runs)
    return runs


def close_pass_ops(state, runs, fam):
    ops = []
    for run in runs:
        def call(run=run):
            cfg = lm.SimConfig(field=state["field"], atlas=state["atlas"], q0=run["q0"],
                               p0=run["p0"], h=CLOSE_H, T=CLOSE_T)
            return lm.simulate(cfg, state["ps"])

        op = Op("close", call, None)

        def check(tr, audit, op=op, run=run):
            checks.trajectory(tr, fam, run["q0"], run["p0"], run["status"], audit)
            op.states = tr.n_states
        op.check = check
        ops.append(op)
    return ops


def dynamics_inputs(seed):
    rng = random.Random(seed)
    return {"far": _far_runs(rng), "close": _close_runs(rng)}


def dynamics_ops(state, inputs, workdir, fam, tracer=None):
    far, heavy = _orbit_ops(state, inputs, workdir, fam, tracer)
    close = close_pass_ops(state, inputs["close"], fam)
    # a quarter of the short runs before each of the four check-5 runs: the
    # short runs are timed at four moments of a round, not in one burst that
    # a slow spell of the machine can cover whole
    groups = len(heavy)
    return [op for g, h in enumerate(heavy)
            for op in far[g::groups] + close[g::groups] + [h]]


# ---------------------------------------------------------------------------
# queries: one-shot API calls, no dynamics

K_VALUES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
RULES = ("simpson", "trapezoid", "gauss(4)", "gauss(8)")
Q_POINT_MISSES = 120
Q_POINT_HITS = 60
Q_CIRCLES = 16
Q_POLYLINES = 12
Q_GERMS = 24
Q_FORMS = 24


def _phi_coeffs(rng):
    return tuple(rng.uniform(-0.5, 0.5) for _ in range(5))


def _loop_vertices(rng, n):
    """Closed polyline winding n times about the origin (n = 0: a loop about
    a centre away from it), with every vertex at least 0.6 from the origin."""
    if n == 0:
        cx, cy = tuple(2.5 * c for c in _unit(rng.uniform(0, math.tau)))
        m, radii, centre = 5, (0.4, 1.2), (cx, cy)
    else:
        m, radii, centre = 6 * abs(n) + 1, (0.6, 2.0), (0.0, 0.0)
    # angle steps stay below pi/2, so each edge sweeps an unambiguous angle
    steps = [rng.uniform(0.8, 1.2) for _ in range(m)]
    scale = math.tau * max(abs(n), 1) / sum(steps)
    angle, pts = rng.uniform(0, math.tau), []
    for s in steps:
        r = rng.uniform(*radii)
        pts.append((centre[0] + r * math.cos(angle), centre[1] + r * math.sin(angle)))
        angle += (s * scale) * (1 if n >= 0 else -1)
    return pts + [pts[0]]


def _chart_points(rng, n):
    out = []
    for r, angle in _lattice(rng, n, [(0.3, 3.0), (0.0, math.tau)]):
        q = (r * math.cos(angle), r * math.sin(angle))
        out.append((oracle.chart_of(q), q))
    return out


def queries_inputs(seed):
    rng = random.Random(seed)
    families = [(k, _phi_coeffs(rng)) for k in K_VALUES]
    a = rng.uniform(0.5, 1.5)
    control = (a, a + rng.uniform(0.5, 1.0))   # a*y dx + b*x dy with b - a >= 0.5
    misses = _chart_points(rng, Q_POINT_MISSES)
    points = [("miss", cid, q) for cid, q in misses]
    for i in range(Q_POINT_HITS):
        # repeat a point answered earlier: a memo hit
        j = rng.randrange(Q_POINT_MISSES // 2)
        points.insert(Q_POINT_MISSES // 2 + 1 + i + j, ("hit",) + misses[j])
    circles = []
    for i in range(Q_CIRCLES):
        turns = rng.choice((-2, -1, 1, 2))
        if i % 4 == 3:   # origin outside
            c = tuple(2.5 * v for v in _unit(rng.uniform(0, math.tau)))
            r = rng.uniform(0.5, 1.5)
        else:
            c = tuple(rng.uniform(-0.3, 0.3) for _ in range(2))
            r = rng.uniform(0.8, 2.0)
        circles.append({"c": c, "r": r, "turns": turns, "fam": i % len(K_VALUES)})
    polylines = [{"v": _loop_vertices(rng, (-2, -1, 0, 1, 2)[i % 5]), "fam": i % len(K_VALUES)}
                 for i in range(Q_POLYLINES)]
    germs = []
    for i in range(Q_GERMS):
        n = (-2, -1, 0, 1, 2)[i % 5]
        verts = _loop_vertices(rng, n)
        if i % 2:   # open path: stop short of closing the loop
            verts = verts[:rng.randint(2, len(verts) - 1)]
        germs.append({"v": verts, "sheet": rng.randint(-2, 2)})
    forms = [{"kind": ("dot", "cross", "triple", "grad")[i % 4],
              "u": [rng.uniform(-2, 2) for _ in range(3)],
              "v": [rng.uniform(-2, 2) for _ in range(3)],
              "w": [rng.uniform(-2, 2) for _ in range(3)],
              "p": [rng.uniform(-1, 1) for _ in range(3)]} for i in range(Q_FORMS)]
    return {"families": families, "control": control, "points": points,
            "point_family": rng.randrange(1, len(K_VALUES)),
            "circles": circles, "polylines": polylines, "germs": germs, "forms": forms}


def queries_setup(inputs):
    k, coeffs = inputs["families"][inputs["point_family"]]
    fam = oracle.Family(k, coeffs)
    field = lm.from_components(*fam.sources(), singular_points=((0.0, 0.0),))
    for expr in (field.fx, field.fy):
        expr.scalar_fn, expr.array_fn
    atlas = lm.quadrant_atlas()
    ps = lm.PotentialSet.from_field(field, atlas)
    cc = lm.cocycle(ps)
    return {"field": field, "atlas": atlas, "ps": ps, "cc": cc, "fam": fam}


def _family_ops(k, coeffs):
    fam = oracle.Family(k, coeffs)
    built = {}
    ops = []

    def parse():
        built["field"] = lm.from_components(*fam.sources(), singular_points=((0.0, 0.0),))
        return built["field"]

    def check_parse(field, audit):
        for x, y in ((0.7, -1.3), (-2.1, 0.4)):
            got = field.fx.evaluate(x, y), field.fy.evaluate(x, y)
            want = fam.force(x, y)
            audit.close("fx", got[0], want[0], 1e-12)
            audit.close("fy", got[1], want[1], 1e-12)
        audit.record(field.fx.to_source(), field.fy.to_source())

    ops.append(Op("from_components", parse, check_parse))
    ops.append(Op("classify", lambda: lm.classify(built["field"]),
                  lambda label, audit: (audit.equal("classify", label, "exact" if k == 0
                                                    else "closed-not-exact"),
                                        audit.record(label))))

    def cocycle():
        ps = lm.PotentialSet.from_field(built["field"], lm.quadrant_atlas())
        built["cc"] = lm.cocycle(ps)
        return built["cc"], lm.exactness_test(built["cc"])

    def check_cocycle(answer, audit):
        cc, result = answer
        checks.cocycle(cc, fam, audit)
        checks.exactness(result, fam, audit)

    ops.append(Op("cocycle", cocycle, check_cocycle))

    def bundle():
        ts = lm.transitions(built["cc"])
        return lm.holonomy(ts, oracle.NERVE_CYCLE), lm.is_trivial(ts)

    def check_bundle(answer, audit):
        hol, triv = answer
        want = math.exp(fam.cycle_sum())
        audit.close("holonomy", hol, want, 1e-8 * max(1.0, want))
        audit.equal("trivial", triv.trivial, k == 0)
        audit.record(hol, triv.trivial)

    ops.append(Op("bundle", bundle, check_bundle))
    return ops


def _work_check(fam, n, tol):
    def check(w, audit):
        audit.close("work", w, fam.loop_work(n), tol)
        audit.record(w)
    return check


def queries_ops(state, inputs, workdir, fam, tracer=None):
    ops = []
    for k, coeffs in inputs["families"]:
        ops.extend(_family_ops(k, coeffs))
    a, b = inputs["control"]
    control = {}

    def parse_control():
        control["field"] = lm.from_components(f"{a!r}*y", f"{b!r}*x")
        return control["field"]

    ops.append(Op("from_components", parse_control,
                  lambda f, audit: audit.equal("control components",
                                               (f.fx.evaluate(1.0, 2.0), f.fy.evaluate(1.0, 2.0)),
                                               (a * 2.0, b * 1.0))))
    ops.append(Op("classify", lambda: lm.classify(control["field"]),
                  lambda label, audit: audit.equal("classify", label, "not-closed")))

    ps = state["ps"]
    for what, cid, q in inputs["points"]:
        ops.append(Op(f"value_{what}", lambda cid=cid, q=q: ps.value(cid, q),
                      lambda v, audit, cid=cid, q=q: (
                          audit.close("V", v, fam.potential(cid, q), checks.V_TOL),
                          audit.record(v))))

    fields = {}

    def field_for(i):
        if i not in fields:
            k, coeffs = inputs["families"][i]
            fields[i] = lm.from_components(*oracle.Family(k, coeffs).sources(),
                                           singular_points=((0.0, 0.0),))
        return fields[i], oracle.Family(*inputs["families"][i])

    for circ in inputs["circles"]:
        (cx, cy), r, turns = circ["c"], circ["r"], circ["turns"]
        field, cfam = field_for(circ["fam"])
        path = lm.circle_path(cx, cy, r, turns)
        n = oracle.circle_winding(cx, cy, r, turns)
        for rule in RULES:
            ops.append(Op("work_circle", lambda p=path, f=field, rule=rule: lm.work(f, p, rule),
                          _work_check(cfam, n, 1e-7)))
        ops.append(Op("winding_circle", lambda p=path: lm.winding_number(p),
                      lambda w, audit, n=n: (audit.equal("winding", w.number, n),
                                             audit.record(w.number, w.residual))))
        ops.append(Op("lift_path", lambda p=path: lm.lift_path(p),
                      _lift_path_check(path, n)))
    for poly in inputs["polylines"]:
        field, pfam = field_for(poly["fam"])
        path = lm.PolylinePath(poly["v"])
        n = oracle.winding(poly["v"])
        for rule in RULES:
            # composite trapezoid is second order: its error on a segment
            # that passes 0.3 from the puncture is ~1e-5
            tol = 1e-4 if rule == "trapezoid" else 1e-8
            ops.append(Op("work_polyline", lambda p=path, f=field, rule=rule: lm.work(f, p, rule),
                          _work_check(pfam, n, tol)))
        ops.append(Op("winding_polyline", lambda p=path: lm.winding_number(p),
                      lambda w, audit, n=n: (audit.equal("winding", w.number, n),
                                             audit.record(w.number, w.residual))))
        ops.append(Op("lift_path", lambda p=path: lm.lift_path(p),
                      _lift_path_check(path, n, poly["v"])))
    for g in inputs["germs"]:
        verts, sheet = g["v"], g["sheet"]
        germ = lm.LogGerm(complex(*verts[0]), sheet)
        path = lm.PolylinePath(verts)
        want = oracle.continued_sheet(verts[0], sheet, oracle.polyline_sweep(verts), verts[-1])

        def check_germ(out, audit, verts=verts, want=want):
            audit.equal("continued sheet", out.sheet, want)
            audit.equal("continued anchor", out.anchor, complex(*verts[-1]))
            audit.record(out.sheet, out.anchor)

        ops.append(Op("continue_log", lambda germ=germ, path=path: lm.continue_log(germ, path),
                      check_germ))
    for f in inputs["forms"]:
        ops.append(Op("forms3", _forms_call(f), _forms_check(f)))
    return ops


def _lift_path_check(path, n, vertices=None):
    def check(lifted, audit):
        pts = vertices if vertices is not None else path.sample().tolist()
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        if vertices is not None:
            v = [math.atan2(ys[0], xs[0])]
            for p, q in zip(pts[:-1], pts[1:]):
                v.append(v[-1] + oracle.edge_sweep(p, q))
        else:
            v = oracle.unwrapped_angles(xs, ys)
        got_u, got_v = lifted.u.tolist(), lifted.v.tolist()
        audit.equal("lift points", len(got_v), len(v))
        for k in range(len(v)):
            audit.close("lift u", got_u[k], math.log(math.hypot(xs[k], ys[k])), checks.ANGLE_TOL)
            audit.close("lift v", got_v[k], v[k], checks.ANGLE_TOL)
        sheets = lifted.sheets()
        audit.equal("lift sheet change", int(sheets[-1] - sheets[0]), n)
        audit.record(lifted.u, lifted.v)
    return check


def _forms_call(f):
    u, v, w, p = f["u"], f["v"], f["w"], tuple(f["p"])

    def call():
        fu, fv = lm.VectorField3(*u), lm.VectorField3(*v)
        if f["kind"] == "dot":
            return lm.hodge(lm.wedge(lm.flat(fu), lm.hodge(lm.flat(fv)))).component("1")(*p)
        if f["kind"] == "cross":
            return lm.sharp(lm.hodge(lm.wedge(lm.flat(fu), lm.flat(fv)))).evaluate(p)
        if f["kind"] == "grad":
            return lm.grad(_quadratic3(w, v)).evaluate(p)
        fw = lm.VectorField3(*w)
        return lm.hodge(lm.wedge(lm.wedge(lm.flat(fu), lm.flat(fv)),
                                 lm.flat(fw))).component("1")(*p)
    return call


def _quadratic3(w, v):
    """sum w_i x_i^2 + v_i x_i as an expression in x, y, z."""
    return "+".join(f"{oracle.literal(w[i])}*{a}^2+{oracle.literal(v[i])}*{a}"
                    for i, a in enumerate("xyz"))


def _forms_check(f):
    u, v, w = f["u"], f["v"], f["w"]

    def check(out, audit):
        if f["kind"] == "dot":
            audit.close("u.v", out, sum(a * b for a, b in zip(u, v)), 1e-12)
        elif f["kind"] == "cross":
            want = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0])
            for got, exp in zip(out, want):
                audit.close("u x v", got, exp, 1e-12)
        elif f["kind"] == "grad":
            x = f["p"]
            want = [2 * w[i] * x[i] + v[i] for i in range(3)]
            for got, exp in zip(out, want):
                audit.close("grad", got, exp, 1e-8)
        else:
            det = (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                   + u[2] * (v[0] * w[1] - v[1] * w[0]))
            audit.close("det[u v w]", out, det, 1e-12)
        audit.record(out)
    return check


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    inputs: Callable
    setup: Callable
    ops: Callable
    family: Callable     # the oracle for the set-up field
    check_setup: Callable = _check_setup


def _vortex_family(state):
    return oracle.Family(1.0)


WORKLOADS = {
    "dynamics": Workload(dynamics_inputs, lambda inputs: _vortex_setup(),
                         dynamics_ops, _vortex_family),
    "queries": Workload(queries_inputs, queries_setup, queries_ops,
                        lambda state: state["fam"]),
}
