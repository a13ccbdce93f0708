"""Output checks: every answer the benchmark times is compared here with the
closed-form reference in oracle.py.

A check raises CheckFailed on the first wrong value; Audit keeps the worst
|answer - closed form| seen (max_abs_err) and a digest of the answers, so
two runs of one seed can be compared bit for bit.
"""

import hashlib
import json
import math

import numpy as np

import oracle

V_TOL = 1e-8            # potentials and cocycle entries; 1e-6 corruptions must fail
ANGLE_TOL = 1e-9        # unwrapped angles, lift coordinates
P_THETA_TOL = 1e-6      # p_theta(t) = p_theta(0) + k*t along a leapfrog run
STRENGTH_TOL = 1e-7     # circulation / 2pi read off a 512-segment circle
SEGMENT_DRIFT_TOL = 1e-4  # leapfrog energy drift inside a chart segment, far field
CSV_COLUMNS = ("t", "x", "y", "px", "py", "chart", "V", "Tkin", "Elocal",
               "theta_acc", "p_theta")


class CheckFailed(Exception):
    pass


class Audit:
    def __init__(self):
        self.max_abs_err = 0.0
        self._digest = hashlib.sha256()

    def close(self, what, got, want, tol):
        err = abs(float(got) - float(want))
        if not err <= tol:
            raise CheckFailed(f"{what}: got {got!r}, want {want!r} "
                              f"(|diff| {err:.3e} > {tol:.1e})")
        self.max_abs_err = max(self.max_abs_err, err)

    def equal(self, what, got, want):
        if got != want:
            raise CheckFailed(f"{what}: got {got!r}, want {want!r}")

    def record(self, *values):
        """Feed answers to the digest: arrays by their bytes, the rest by repr."""
        for v in values:
            if isinstance(v, np.ndarray):
                self._digest.update(v.dtype.str.encode())
                self._digest.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, bytes):
                self._digest.update(v)
            else:
                self._digest.update(repr(v).encode())

    def digest(self):
        return self._digest.hexdigest()


def trajectory(tr, fam, q0, p0, expect_status, audit):
    """States, charts, potentials, angles, p_theta and transitions of one run."""
    audit.equal("status", tr.status, expect_status)
    audit.equal("initial state", (float(tr.qx[0]), float(tr.qy[0]),
                                  float(tr.px[0]), float(tr.py[0])),
                (q0[0], q0[1], p0[0], p0[1]))
    n = tr.n_states
    ts, xs, ys = tr.t.tolist(), tr.qx.tolist(), tr.qy.tolist()
    charts, vs, pth = tr.chart.tolist(), tr.V.tolist(), tr.p_theta.tolist()
    theta = tr.theta[:, 0].tolist()
    unwrapped = oracle.unwrapped_angles(xs, ys)
    L0 = q0[0] * p0[1] - q0[1] * p0[0]
    want_charts = []
    for k in range(n):
        q = (xs[k], ys[k])
        cid = oracle.chart_of(q)
        want_charts.append(cid)
        audit.equal(f"chart of state {k}", charts[k], cid)
        audit.close(f"V at state {k}", vs[k], fam.potential(cid, q), V_TOL)
        audit.close(f"theta at state {k}", theta[k], unwrapped[k], ANGLE_TOL)
        audit.close(f"p_theta at state {k}", pth[k],
                    oracle.angular_momentum(L0, fam.k, ts[k]), P_THETA_TOL)
    hops = [(want_charts[k - 1], want_charts[k])
            for k in range(1, n) if want_charts[k] != want_charts[k - 1]]
    audit.equal("chart transitions",
                [(t.from_chart, t.to_chart) for t in tr.transitions], hops)
    for t in tr.transitions:
        if t.delta_e is not None:
            audit.close(f"jump {t.from_chart}->{t.to_chart}", t.delta_e,
                        -fam.cocycle(t.from_chart, t.to_chart), V_TOL)
    audit.record(tr.status, tr.t, tr.qx, tr.qy, tr.px, tr.py, tr.chart,
                 tr.theta, tr.V, tr.Tkin, tr.E_local, tr.p_theta, tr.work_acc,
                 [(t.t, t.from_chart, t.to_chart, t.q, t.delta_e) for t in tr.transitions])


def ledger(tr, led, fam, audit):
    """energy_ledger: one segment per chart stay, every jump equal to -c_ij."""
    audit.equal("ledger segments", len(led.segments), len(tr.transitions) + 1)
    audit.equal("ledger segment charts", [s.chart for s in led.segments],
                [int(tr.chart[0])] + [t.to_chart for t in tr.transitions])
    audit.equal("ledger transition checks", len(led.transition_checks),
                sum(t.delta_e is not None for t in tr.transitions))
    for tc in led.transition_checks:
        audit.close("ledger cocycle value", tc.cocycle_value,
                    fam.cocycle(tc.from_chart, tc.to_chart), V_TOL)
        audit.close("ledger jump residual", tc.residual, 0.0, V_TOL)
    if not led.max_drift <= SEGMENT_DRIFT_TOL:
        raise CheckFailed(f"segment energy drift {led.max_drift:.3e} "
                          f"> {SEGMENT_DRIFT_TOL:.1e}")
    audit.record(led.max_drift, [(s.chart, s.t_start, s.t_end, s.max_drift)
                                 for s in led.segments])


def lift(tr, lifted, report, fam, audit):
    """lift_trajectory (u = log r, v = unwrapped angle) and cover_energy."""
    xs, ys = tr.qx.tolist(), tr.qy.tolist()
    us, vs = lifted.u.tolist(), lifted.v.tolist()
    unwrapped = oracle.unwrapped_angles(xs, ys)
    for k in range(len(xs)):
        audit.close(f"lift u at state {k}", us[k], math.log(math.hypot(xs[k], ys[k])),
                    ANGLE_TOL)
        audit.close(f"lift v at state {k}", vs[k], unwrapped[k], ANGLE_TOL)
    audit.equal("lift sheets", lifted.sheets().tolist(),
                [round((v - math.atan2(y, x)) / oracle.TAU)
                 for v, x, y in zip(unwrapped, xs, ys)])
    audit.close("cover strength", report.strength, fam.k, STRENGTH_TOL)
    tkin = (tr.px ** 2 + tr.py ** 2) / (2.0 * tr.m)
    energy = (tkin - report.strength * np.asarray(unwrapped)).tolist()
    worst = 0.0
    for k, e in enumerate(report.energy.tolist()):
        audit.close(f"cover energy at state {k}", e, energy[k], V_TOL)
        worst = max(worst, abs(energy[k] - energy[0]))
    audit.close("cover energy drift", report.drift, worst, V_TOL)
    audit.record(lifted.u, lifted.v, report.energy, report.drift, report.strength)


def csv_file(text, fam, audit, reference=None):
    """A trajectory CSV read back: header, one row per state, V against the
    closed form, and every field equal to the in-process run when given."""
    lines = text.splitlines()
    audit.equal("csv header", lines[0], ",".join(CSV_COLUMNS))
    rows = [ln.split(",") for ln in lines[1:]]
    if reference is not None:
        audit.equal("csv rows", len(rows), reference.n_states)
    for k, row in enumerate(rows):
        audit.equal(f"csv row {k} width", len(row), len(CSV_COLUMNS))
        x, y = float(row[1]), float(row[2])
        cid = oracle.chart_of((x, y))
        audit.equal(f"csv chart at row {k}", int(row[5]), cid)
        audit.close(f"csv V at row {k}", float(row[6]), fam.potential(cid, (x, y)), V_TOL)
        if reference is not None:
            want = (reference.t[k], reference.qx[k], reference.qy[k], reference.px[k],
                    reference.py[k], reference.chart[k], reference.V[k],
                    reference.Tkin[k], reference.E_local[k], reference.theta[k, 0],
                    reference.p_theta[k])
            audit.equal(f"csv row {k}", tuple(float(v) for v in row),
                        tuple(float(v) for v in want))


def sidecar(text, tr, audit):
    doc = json.loads(text)
    audit.equal("sidecar status", doc["status"], tr.status)
    audit.equal("sidecar transitions",
                [(d["from"], d["to"], d["delta_e"]) for d in doc["transitions"]],
                [(t.from_chart, t.to_chart, t.delta_e) for t in tr.transitions])


def svg_file(text, audit):
    audit.equal("svg envelope", (text.startswith("<svg"), text.endswith("</svg>\n")),
                (True, True))
    audit.equal("svg parts", ("<polyline points=" in text, "<circle " in text), (True, True))


def cocycle(cc, fam, audit):
    """cocycle entries on exactly the four half-axis overlaps, each equal to
    the closed-form V_i - V_j."""
    audit.equal("cocycle overlaps", cc.pairs(), sorted(oracle.OVERLAP_POINTS))
    for i, j in cc.pairs():
        audit.close(f"c_{i}{j}", cc.value(i, j), fam.cocycle(i, j), V_TOL)
    audit.close("nerve cycle sum", cc.cycle_sum(oracle.NERVE_CYCLE), fam.cycle_sum(), V_TOL)
    audit.record([(p, cc.value(*p)) for p in cc.pairs()])


def exactness(result, fam, audit):
    audit.equal("exact", result.exact, fam.k == 0.0)
    audit.equal("independent cycles", len(result.periods), 1)
    audit.close("period", abs(result.periods[0].period), abs(oracle.TAU * fam.k), V_TOL)
    audit.record(result.exact, sorted(result.offsets.items()),
                 [(p.cycle, p.period) for p in result.periods])
