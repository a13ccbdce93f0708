"""Command-line front end: scenario parsing, orchestration, artifacts.

Reports go to stdout as JSON with sorted keys; trajectory tables go to
CSV files named by --out, with a transition log written next to them
and an optional SVG polyline figure via --emit-svg. Scenarios can be
given as flags, as a JSON config document (--config), or both; flags
win over config fields, and unknown config keys are rejected outright.
The flags are read as a document of the config's shape and laid over it
(_overlay); a sweep entry goes between the two.  A null value is absent.

Exit codes: 0 success, 1 invalid input or a failed check, 2 numeric
guard tripped (singularity, step guard, overflow), 3 expression parse
error.

Outputs are reproducible byte for byte for a fixed scenario; the only
run-dependent content is a generated-at metadata line, suppressed by
--deterministic.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import math
import os
import sys

import numpy as np

from .atlas import (
    DEFAULT_OVERLAP_SAMPLES,
    Atlas,
    Chart,
    PotentialSet,
    atlas_for,
    cocycle,
    exactness_test,
)
from .bundle import holonomy, is_trivial, transitions
from .cover import LogGerm, continue_log, lift_path
from .dynamics import SimConfig, simulate
from .errors import LocmechError, NumericError, ValidationError
from .exprlang import ExprError
from .fields import (
    DEFAULT_SEGMENTS,
    MAX_CLOSEDNESS_GRID,
    ParametricPath,
    PolylinePath,
    circle_path,
    classify,
    from_components,
    is_closed,
    vortex,
    winding_number,
    work,
    zero_field,
)
from .forms3 import star_table
from . import verify as verify_mod

CSV_COLUMNS = ("t", "x", "y", "px", "py", "chart", "V", "Tkin", "Elocal",
               "theta_acc", "p_theta")

_TOP_KEYS = {"field", "singular", "atlas", "simulate", "outputs", "sweep"}
_SIM_KEYS = {"m", "q0", "p0", "h", "T", "r_min", "integrator"}
_OUT_KEYS = {"out", "emit_svg"}
_ATLAS_KEYS = {"charts"}
_CHART_KEYS = {"id", "halfplanes", "basepoint", "label"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code map.
    No abbreviations: a removed option (check-closed --h) is not --help."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# small parsing helpers

def _float(text, what):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: expected a number, got {text!r}") from None


def _int(text, what):
    try:
        return int(text)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what}: expected an integer, got {text!r}") from None


def _numbers(value, what, n=2):
    """Accept 'x,y,...' strings or sequences of n numbers."""
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value) if isinstance(value, (list, tuple)) else []
    if len(parts) != n:
        raise ValidationError(f"{what}: expected {n} components")
    return tuple(_float(v, what) for v in parts)


def _point_list(value, what, n=2):
    """Accept 'x,y;x,y' strings or sequences of pairs (of n-tuples)."""
    if value is None:
        return ()
    if isinstance(value, str):
        chunks = [c for c in value.split(";") if c.strip()]
        return tuple(_numbers(c, what, n) for c in chunks)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what}: expected a list of points")
    return tuple(_numbers(v, what, n) for v in value)


def _split_top_level(text, sep=","):
    """Split on sep outside parentheses (expression arguments keep theirs)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_path(spec):
    """Path specs: circle:cx,cy,r[,turns] | poly:x1,y1;x2,y2;... |
    param:xexpr,yexpr,t0,t1[,N]."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValidationError(
            "path spec must look like circle:..., poly:... or param:..."
        )
    kind, _, rest = spec.partition(":")
    if kind == "circle":
        vals = [_float(v, "circle spec") for v in rest.split(",")]
        if len(vals) not in (3, 4):
            raise ValidationError("circle spec takes cx,cy,r[,turns]")
        return circle_path(*vals)
    if kind == "poly":
        pts = _point_list(rest, "poly spec")
        return PolylinePath(pts)
    if kind == "param":
        parts = _split_top_level(rest)
        if len(parts) not in (4, 5):
            raise ValidationError("param spec takes xexpr,yexpr,t0,t1[,N]")
        t0 = _float(parts[2], "param t0")
        t1 = _float(parts[3], "param t1")
        n = _int(parts[4], "param N") if len(parts) == 5 else DEFAULT_SEGMENTS
        return ParametricPath(parts[0], parts[1], t0, t1, n)
    raise ValidationError(f"unknown path kind {kind!r}")


def _parse_field(spec, singular):
    if spec is None:
        raise ValidationError("a field is required (--field or config)")
    if spec == "vortex":
        return vortex()
    if spec == "zero":
        return zero_field()
    if isinstance(spec, str) and ";" in spec:
        fx, fy = spec.split(";", 1)
        return from_components(fx, fy, singular_points=singular)
    raise ValidationError(
        f"field must be 'vortex', 'zero', or 'fx;fy' expressions, got {spec!r}"
    )


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown config key(s) in {where}: {', '.join(unknown)}"
        )


def _parse_atlas(spec, singular):
    if spec is None or spec == "quadrant":
        return atlas_for(singular)
    if isinstance(spec, dict):
        _check_keys(spec, _ATLAS_KEYS, "atlas")
        if not isinstance(spec.get("charts"), list) or not spec["charts"]:
            raise ValidationError("atlas config lists no charts")
        charts = []
        for k, entry in enumerate(spec["charts"]):
            where = f"atlas.charts[{k}]"
            _check_keys(entry, _CHART_KEYS, where)
            for key in ("id", "halfplanes", "basepoint"):
                if key not in entry:
                    raise ValidationError(f"{where} needs {key!r}")
            charts.append(Chart(
                _int(entry["id"], f"{where}.id"),
                _point_list(entry["halfplanes"], f"{where}.halfplanes", 3),
                _numbers(entry["basepoint"], f"{where}.basepoint"),
                entry.get("label", ""),
                singular,
            ))
        return Atlas(charts)
    raise ValidationError("atlas must be 'quadrant' or a chart-list object")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    _check_scenario(config, _TOP_KEYS, "config")
    if not isinstance(config.get("sweep", []), list):
        raise ValidationError("config.sweep must be a list")
    for k, entry in enumerate(config.get("sweep", [])):
        _check_scenario(entry, _TOP_KEYS - {"sweep"}, f"config.sweep[{k}]")
    return config


def _check_scenario(block, allowed, where):
    """A config document or sweep entry: an object of known keys whose
    simulate and outputs blocks are objects of known keys."""
    _check_keys(block, allowed, where)
    for name, keys in (("simulate", _SIM_KEYS), ("outputs", _OUT_KEYS)):
        if name in block:
            _check_scenario(block[name], keys, f"{where}.{name}")


def _flags(ns):
    """The scenario flags as a document of the config's shape; a flag not
    given (and one the subcommand lacks) is None."""
    def flag(key):
        return getattr(ns, key, None)

    return {"field": flag("field"), "singular": flag("singular"), "atlas": flag("atlas"),
            "simulate": {key: flag(key) for key in sorted(_SIM_KEYS)},
            "outputs": {key: flag(key) for key in sorted(_OUT_KEYS)}}


def _overlay(base, top):
    """top laid over base: top's simulate and outputs blocks merge key by
    key, its other keys replace, and its null values are absent."""
    doc = dict(base)
    for key, value in top.items():
        if key in ("simulate", "outputs"):
            doc[key] = _overlay(doc.get(key, {}), value)
        elif value is not None:
            doc[key] = value
    return doc


def _field_from(doc):
    singular = _point_list(doc.get("singular"), "singular")
    return _parse_field(doc.get("field"), singular)


def _field_and_atlas(doc):
    field = _field_from(doc)
    return field, _parse_atlas(doc.get("atlas"), field.singular_points)


# ---------------------------------------------------------------------------
# output helpers

def _generated_at():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit_json(obj, deterministic):
    if not deterministic:
        obj = dict(obj)
        obj["generated_at"] = _generated_at()
    print(json.dumps(_finite_or_null(obj), sort_keys=True, indent=2))


def _finite_or_null(obj):
    """obj with every non-finite float made None: JSON has no inf or nan."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_csv(path, header, columns, deterministic):
    """One row per index of the columns (arrays or lists): repr for a
    float cell, str for any other."""
    lines = [] if deterministic else [f"# generated_at {_generated_at()}"]
    lines.append(",".join(header))
    cells = [[repr(v) if type(v) is float else str(v) for v in
              (col.tolist() if isinstance(col, np.ndarray) else col)] for col in columns]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_traj_csv(tr, out, deterministic):
    # theta_acc holds one angle per singular point, ';'-joined
    theta = tr.theta[:, 0] if tr.theta.shape[1] == 1 else [
        ";".join(map(repr, row)) for row in tr.theta.tolist()]
    _write_csv(out, CSV_COLUMNS, (tr.t, tr.qx, tr.qy, tr.px, tr.py, tr.chart, tr.V, tr.Tkin,
                                  tr.E_local, theta, tr.p_theta), deterministic)


def _sidecar_path(out):
    return os.path.splitext(out)[0] + ".transitions.json"


def _write_sidecar(tr, out):
    doc = {
        "status": tr.status,
        "abort_reason": tr.abort_reason,
        "transitions": [
            {
                "t": t.t,
                "from": t.from_chart,
                "to": t.to_chart,
                "q": [t.q[0], t.q[1]],
                "delta_e": t.delta_e,
            }
            for t in tr.transitions
        ],
    }
    with open(_sidecar_path(out), "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_svg(X, Y, singular_points, fname, size=640):
    xs = [float(X.min()), float(X.max())] + [p[0] for p in singular_points]
    ys = [float(Y.min()), float(Y.max())] + [p[1] for p in singular_points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-6)
    pad = 0.08 * span
    xmin, xmax = xmin - pad, xmin - pad + span + 2 * pad
    ymin, ymax = ymin - pad, ymin - pad + span + 2 * pad

    def sx(x):      # a float or an array
        return (x - xmin) / (xmax - xmin) * size

    def sy(y):
        return size - (y - ymin) / (ymax - ymin) * size

    stride = max(1, len(X) // 4000)
    px, py = X[::stride], Y[::stride]
    if (X[-1], Y[-1]) != (px[-1], py[-1]):
        px, py = np.append(px, X[-1]), np.append(py, Y[-1])
    poly = " ".join("%.3f,%.3f" % p for p in zip(sx(px).tolist(), sy(py).tolist()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if xmin < 0 < xmax:
        parts.append(
            f'<line x1="{sx(0):.3f}" y1="0" x2="{sx(0):.3f}" y2="{size}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    if ymin < 0 < ymax:
        parts.append(
            f'<line x1="0" y1="{sy(0):.3f}" x2="{size}" y2="{sy(0):.3f}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
    parts.append(
        f'<polyline points="{poly}" fill="none" stroke="#1f6feb" '
        'stroke-width="1.5"/>'
    )
    for sxp, syp in singular_points:
        parts.append(
            f'<circle cx="{sx(sxp):.3f}" cy="{sy(syp):.3f}" r="4" '
            'fill="#d03030"/>'
        )
    parts.append("</svg>")
    with open(fname, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_forms_table(ns, doc):
    _emit_json({"star": star_table()}, ns.deterministic)
    return 0


def _cmd_check_closed(ns, doc):
    field = _field_from(doc)
    region = tuple(_float(v, "--region") for v in ns.region.split(","))
    if len(region) != 4:
        raise ValidationError("--region takes x0,y0,x1,y1")
    rep = is_closed(field, region, grid=ns.grid, tol=ns.tol)
    _emit_json({
        "closed": rep.passed,
        "max_residual": rep.max_residual,
        "worst_point": list(rep.worst_point),
        "grid": rep.grid,
        "region": list(rep.region),
        "tol": rep.tol,
    }, ns.deterministic)
    return 0 if rep.passed else 1


def _cmd_work(ns, doc):
    field = _field_from(doc)
    path = _parse_path(ns.path)
    _emit_json({"work": work(field, path)}, ns.deterministic)
    return 0


def _cmd_winding(ns, doc):
    path = _parse_path(ns.path)
    about = _numbers(ns.about, "--about")
    res = winding_number(path, about)
    _emit_json({
        "winding": res.number,
        "residual": res.residual,
        "about": list(about),
    }, ns.deterministic)
    return 0


def _cmd_potentials(ns, doc):
    field, atlas = _field_and_atlas(doc)
    ps = PotentialSet.from_field(field, atlas)
    evals = []
    for spec in ns.eval or ():
        point_txt, _, chart_txt = spec.partition("@")
        if not chart_txt:
            raise ValidationError("--eval takes x,y@chart")
        q = _numbers(point_txt, "--eval point")
        cid = _int(chart_txt, "--eval chart")
        if cid not in atlas.charts:
            raise ValidationError(f"--eval chart {cid} is not in the atlas")
        evals.append({
            "chart": cid,
            "point": list(q),
            "value": ps.value(cid, q),
        })
    _emit_json({
        "charts": list(atlas.ids),
        "gauges": {str(cid): ps.gauges[cid] for cid in atlas.ids},
        "evaluations": evals,
    }, ns.deterministic)
    return 0


def _cocycle_report(cc):
    exact = exactness_test(cc)
    return {
        "entries": {f"{i}-{j}": cc.value(i, j) for (i, j) in cc.pairs()},
        "spreads": {f"{i}-{j}": cc.spreads[(i, j)] for (i, j) in cc.pairs()},
        "exact": exact.exact,
        "offsets": (
            {str(k): v for k, v in exact.offsets.items()}
            if exact.exact else None
        ),
        "periods": [
            {"cycle": list(p.cycle), "period": p.period}
            for p in exact.periods
        ],
    }


def _cmd_cocycle(ns, doc):
    field, atlas = _field_and_atlas(doc)
    ps = PotentialSet.from_field(field, atlas)
    cc = cocycle(ps, samples=ns.samples)
    _emit_json(_cocycle_report(cc), ns.deterministic)
    return 0


def _cmd_classify(ns, doc):
    field, atlas = _field_and_atlas(doc)
    _emit_json({"classification": classify(field, atlas)}, ns.deterministic)
    return 0


def _cmd_bundle(ns, doc):
    field, atlas = _field_and_atlas(doc)
    ps = PotentialSet.from_field(field, atlas)
    cc = cocycle(ps)
    ts = transitions(cc)
    exact = exactness_test(cc)
    if ns.cycle:
        cycles = [tuple(_int(v, "--cycle") for v in ns.cycle.split(","))]
    else:
        cycles = [p.cycle for p in exact.periods]
    rep = is_trivial(ts)
    _emit_json({
        "t": {f"{i}-{j}": ts.factor(i, j) for (i, j) in ts.edges()},
        "holonomies": {
            "-".join(str(c) for c in cyc): holonomy(ts, cyc) for cyc in cycles
        },
        "trivial": rep.trivial,
        "gauges": (
            {str(k): v for k, v in rep.gauges.items()} if rep.gauges else None
        ),
    }, ns.deterministic)
    return 0


def _run_scenario(doc, deterministic):
    """Run one merged scenario document, write its artifacts and return
    its summary; SimConfig fills in the simulate keys the document lacks."""
    sim = {k: v for k, v in doc.get("simulate", {}).items() if v is not None}
    outputs = {k: v for k, v in doc.get("outputs", {}).items() if v is not None}
    if "q0" not in sim or "p0" not in sim:
        raise ValidationError("simulate needs q0 and p0 (flags or config)")
    if not all(isinstance(v, str) for v in outputs.values()):
        raise ValidationError("out and emit_svg must be file paths")
    field, atlas = _field_and_atlas(doc)
    kwargs = {k: _numbers(sim.pop(k), k) for k in ("q0", "p0")}
    kwargs.update((k, v if k == "integrator" else _float(v, k)) for k, v in sim.items())
    tr = simulate(SimConfig(field, atlas, **kwargs))

    out, svg = outputs.get("out"), outputs.get("emit_svg")
    if out:
        _write_traj_csv(tr, out, deterministic)
        _write_sidecar(tr, out)
    if svg:
        _write_svg(tr.qx, tr.qy, field.singular_points, svg)
    last = tr.n_states - 1
    return {
        "status": tr.status,
        "abort_reason": tr.abort_reason,
        "states": tr.n_states,
        "t_final": float(tr.t[last]),
        "q_final": [float(tr.qx[last]), float(tr.qy[last])],
        "p_final": [float(tr.px[last]), float(tr.py[last])],
        "chart_final": int(tr.chart[last]),
        "E_local_final": float(tr.E_local[last]),
        "n_transitions": len(tr.transitions),
        "out": out,
    }


def _cmd_simulate(ns, doc):
    sweep = doc.get("sweep")
    if not sweep:
        summary = _run_scenario(doc, ns.deterministic)
        _emit_json(summary, ns.deterministic)
        if summary["status"] != "completed":
            print(f"aborted: {summary['abort_reason']}", file=sys.stderr)
            return 2
        return 0
    # doc is the config under the flags; laying the flags again over each
    # entry keeps a flag above an entry, and an entry above the config
    flags = _flags(ns)
    docs = [_overlay(_overlay(doc, entry), flags) for entry in sweep]
    deterministic = [ns.deterministic] * len(docs)
    if ns.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=ns.jobs) as ex:
            summaries = list(ex.map(_run_scenario, docs, deterministic))
    else:
        summaries = list(map(_run_scenario, docs, deterministic))
    _emit_json({"sweep": summaries}, ns.deterministic)
    return 0 if all(s["status"] == "completed" for s in summaries) else 2


def _read_traj_csv(path):
    try:
        with open(path) as fh:
            rows = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read trajectory: {exc}") from None
    rows = [r for r in rows if not r.startswith("#")]
    if not rows or rows[0].split(",")[: len(CSV_COLUMNS)] != list(CSV_COLUMNS):
        raise ValidationError("trajectory CSV does not match the known header")
    data = [_numbers(r.split(",")[:3], "trajectory row t,x,y", 3) for r in rows[1:]]
    if not data:
        raise ValidationError("trajectory CSV has no data rows")
    return tuple(np.array(column) for column in zip(*data))


def _cmd_lift(ns, doc):
    t, x, y = _read_traj_csv(ns.traj)
    lift = lift_path(np.column_stack([x, y]))
    sheets = lift.sheets()
    if ns.out:
        _write_csv(ns.out, ("t", "u", "v", "sheet"), (t, lift.u, lift.v, sheets),
                   ns.deterministic)
    _emit_json({
        "states": len(t),
        "sheet_initial": int(sheets[0]),
        "sheet_final": int(sheets[-1]),
        "v_final": float(lift.v[-1]),
        "out": ns.out,
    }, ns.deterministic)
    return 0


def _cmd_log_continue(ns, doc):
    q = _numbers(ns.from_point, "--from")
    germ = LogGerm(complex(q[0], q[1]), ns.sheet)
    path = _parse_path(ns.path)
    end = continue_log(germ, path)
    _emit_json({
        "anchor": [end.anchor.real, end.anchor.imag],
        "sheet": end.sheet,
        "value": [end.value.real, end.value.imag],
    }, ns.deterministic)
    return 0


def _cmd_verify(ns, doc):
    numbers = set(ns.only) if ns.only else None
    report = verify_mod.run_all(numbers=numbers)
    if not ns.deterministic:
        print(f"# generated_at {_generated_at()}")
    print(report.render())
    for r in report.results:        # timings vary run to run: stderr only
        print(f"[{r.number:2d}] {r.name:<18} {r.seconds:.3f} s (budget "
              f"{verify_mod.BUDGETS.get(r.number, math.inf):g} s)", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser():
    parser = _Parser(
        prog="locmech",
        description=(
            "Locally conservative force fields on punctured planar "
            "domains: work and winding, chart potentials and their "
            "cocycle, transition bundles, trajectory simulation, cover "
            "lifts, and log-germ continuation."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scenario document")
    common.add_argument(
        "--deterministic", action="store_true",
        help="suppress the generated-at metadata line",
    )

    field_args = argparse.ArgumentParser(add_help=False)
    field_args.add_argument(
        "--field",
        help="'vortex', 'zero', or component expressions 'fx;fy'",
    )
    field_args.add_argument(
        "--singular",
        help="singular points 'x,y;x,y' for expression fields",
    )

    atlas_args = argparse.ArgumentParser(add_help=False)
    atlas_args.add_argument(
        "--atlas",
        help="'quadrant' (default: the cover atlas_for builds from the "
        "punctures, four quadrants for one at the origin) or defined in the config",
    )

    sub.add_parser(
        "forms-table", parents=[common],
        help="print the euclidean star table on basis forms",
    )

    p = sub.add_parser(
        "check-closed", parents=[common, field_args],
        help="closedness probe over a rectangle, by exact derivatives",
    )
    p.add_argument("--region", default="0.5,0.5,2,2", help="x0,y0,x1,y1")
    p.add_argument("--grid", type=int, default=20,
                   help=f"nodes per side, 2..{MAX_CLOSEDNESS_GRID}")
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser(
        "work", parents=[common, field_args],
        help="line integral of the field along a path",
    )
    p.add_argument("--path", required=True)

    p = sub.add_parser(
        "winding", parents=[common],
        help="winding number of a closed path about a point",
    )
    p.add_argument("--path", required=True)
    p.add_argument("--about", default="0,0")

    p = sub.add_parser(
        "potentials", parents=[common, field_args, atlas_args],
        help="chart-local potentials; evaluate with x,y@chart",
    )
    p.add_argument("--eval", action="append", metavar="X,Y@CHART")

    p = sub.add_parser(
        "cocycle", parents=[common, field_args, atlas_args],
        help="overlap constants of the local potentials",
    )
    p.add_argument("--samples", type=int, default=DEFAULT_OVERLAP_SAMPLES)

    sub.add_parser(
        "classify", parents=[common, field_args, atlas_args],
        help="exact / closed-not-exact / not-closed",
    )

    p = sub.add_parser(
        "bundle", parents=[common, field_args, atlas_args],
        help="exponentiated transition system and its holonomies",
    )
    p.add_argument("--cycle", help="chart cycle like 1,2,3,4,1")

    p = sub.add_parser(
        "simulate", parents=[common, field_args, atlas_args],
        help="integrate a trajectory and emit CSV/JSON/SVG artifacts",
    )
    p.add_argument("--m", type=float)
    p.add_argument("--q0", help="initial position x,y")
    p.add_argument("--p0", help="initial momentum px,py")
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--T", type=float, help="total time")
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--integrator", choices=("leapfrog", "rk4"))
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--emit-svg", dest="emit_svg", help="SVG figure path")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers for config sweep entries",
    )

    p = sub.add_parser(
        "lift", parents=[common],
        help="lift a trajectory CSV to the cover (columns t,u,v,sheet)",
    )
    p.add_argument("--traj", required=True)
    p.add_argument("--out")

    p = sub.add_parser(
        "log-continue", parents=[common],
        help="continue a log germ along a path",
    )
    p.add_argument("--from", dest="from_point", required=True, metavar="X,Y")
    p.add_argument("--sheet", type=int, default=0)
    p.add_argument("--path", required=True)

    p = sub.add_parser(
        "verify", parents=[common],
        help="run the built-in verification suite",
    )
    p.add_argument(
        "--only", type=int, action="append", metavar="N",
        help="run only the given check numbers",
    )
    return parser


_DISPATCH = {
    "forms-table": _cmd_forms_table,
    "check-closed": _cmd_check_closed,
    "work": _cmd_work,
    "winding": _cmd_winding,
    "potentials": _cmd_potentials,
    "cocycle": _cmd_cocycle,
    "classify": _cmd_classify,
    "bundle": _cmd_bundle,
    "simulate": _cmd_simulate,
    "lift": _cmd_lift,
    "log-continue": _cmd_log_continue,
    "verify": _cmd_verify,
}


def run(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        doc = _overlay(_load_config(ns.config), _flags(ns))
        return _DISPATCH[ns.command](ns, doc)
    except ExprError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except LocmechError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
