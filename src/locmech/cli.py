"""Command-line front end: scenario parsing, orchestration, artifacts.

A subcommand handler computes and writes nothing: it returns its exit
code, its report and its files as {path: text}.  render stamps and
serializes the report; run alone writes the files and prints the report,
so a refused command writes no files: not even one of several, when
another of them cannot be written.

Reports go to stdout as JSON with sorted keys; trajectory tables go to
CSV files named by --out, with a transition log written next to them
and an optional SVG polyline figure via --emit-svg. Scenarios can be
given as flags, as a JSON config document (--config), or both; flags
win over config fields, and unknown config keys are rejected outright.
The flags are read as a document of the config's shape and laid over it
(_overlay); a sweep entry goes between the two.  A null value is absent.

Exit codes: 0 success, 1 invalid input, an unwritable output path or
a failed check, 2 numeric guard tripped (singularity, step guard,
overflow), 3 expression parse error.

Outputs are reproducible byte for byte for a fixed scenario; the only
run-dependent content is a generated-at metadata line, suppressed by
--deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import errno
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


def _split_top_level(text):
    """Split on commas outside parentheses (expression arguments keep theirs)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
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
# output text: handlers build it, and run alone writes it

def _generated_at():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_text(obj):
    """The one JSON policy of reports and sidecars: sorted keys, indent 2."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=2) + "\n"


def _finite_or_null(obj):
    """obj with every non-finite float made None: JSON has no inf or nan."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _csv_text(header, columns, deterministic):
    """One row per index of the columns (arrays or lists): repr for a
    float cell, str for any other."""
    lines = [] if deterministic else [f"# generated_at {_generated_at()}"]
    lines.append(",".join(header))
    cells = [[repr(v) if type(v) is float else str(v) for v in
              (col.tolist() if isinstance(col, np.ndarray) else col)] for col in columns]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _traj_csv_text(tr, deterministic):
    # theta_acc holds one angle per singular point, ';'-joined
    theta = tr.theta[:, 0] if tr.theta.shape[1] == 1 else [
        ";".join(map(repr, row)) for row in tr.theta.tolist()]
    return _csv_text(CSV_COLUMNS, (tr.t, tr.qx, tr.qy, tr.px, tr.py, tr.chart, tr.V, tr.Tkin,
                                   tr.E_local, theta, tr.p_theta), deterministic)


def _sidecar_text(tr):
    return _json_text({
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
    })


def _svg_text(X, Y, singular_points):
    size = 640      # pixels on a side
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
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report, {path: file text}) and
# writes nothing; the report is a JSON document, or verify's text

def _cmd_forms_table(ns, doc):
    return 0, {"star": star_table()}, {}


def _cmd_check_closed(ns, doc):
    field = _field_from(doc)
    kwargs = {k: v for k, v in (("grid", ns.grid), ("tol", ns.tol)) if v is not None}
    if ns.region is not None:
        kwargs["region"] = _numbers(ns.region, "--region x0,y0,x1,y1", 4)
    rep = is_closed(field, **kwargs)
    return (0 if rep.passed else 1), {
        "closed": rep.passed,
        "max_residual": rep.max_residual,
        "worst_point": list(rep.worst_point),
        "grid": rep.grid,
        "region": list(rep.region),
        "tol": rep.tol,
    }, {}


def _cmd_work(ns, doc):
    field = _field_from(doc)
    path = _parse_path(ns.path)
    return 0, {"work": work(field, path)}, {}


def _cmd_winding(ns, doc):
    path = _parse_path(ns.path)
    about = _numbers(ns.about, "--about")
    res = winding_number(path, about)
    return 0, {
        "winding": res.number,
        "residual": res.residual,
        "about": list(about),
    }, {}


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
    return 0, {
        "charts": list(atlas.ids),
        "gauges": {str(cid): ps.gauges[cid] for cid in atlas.ids},
        "evaluations": evals,
    }, {}


def _cmd_cocycle(ns, doc):
    field, atlas = _field_and_atlas(doc)
    ps = PotentialSet.from_field(field, atlas)
    cc = cocycle(ps, samples=ns.samples)
    exact = exactness_test(cc)
    return 0, {
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
    }, {}


def _cmd_classify(ns, doc):
    field, atlas = _field_and_atlas(doc)
    return 0, {"classification": classify(field, atlas)}, {}


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
    return 0, {
        "t": {f"{i}-{j}": ts.factor(i, j) for (i, j) in ts.edges()},
        "holonomies": {
            "-".join(str(c) for c in cyc): holonomy(ts, cyc) for cyc in cycles
        },
        "trivial": rep.trivial,
        "gauges": (
            {str(k): v for k, v in rep.gauges.items()} if rep.gauges else None
        ),
    }, {}


def _run_scenario(doc, deterministic, files):
    """Run one merged scenario document, add its artifacts to files and return
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
        files[out] = _traj_csv_text(tr, deterministic)
        files[os.path.splitext(out)[0] + ".transitions.json"] = _sidecar_text(tr)
    if svg:
        files[svg] = _svg_text(tr.qx, tr.qy, field.singular_points)
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
    # a single scenario runs as a sweep of one entry, reported bare; doc is
    # the config under the flags, and laying the flags again over each
    # entry keeps a flag above an entry, and an entry above the config
    flags, files, summaries = _flags(ns), {}, []
    for entry in doc.get("sweep") or [{}]:
        summary = _run_scenario(_overlay(_overlay(doc, entry), flags), ns.deterministic, files)
        if summary["status"] != "completed":
            print(f"aborted: {summary['abort_reason']}", file=sys.stderr)
        summaries.append(summary)
    code = 0 if all(s["status"] == "completed" for s in summaries) else 2
    return code, ({"sweep": summaries} if doc.get("sweep") else summaries[0]), files


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
    files = {ns.out: _csv_text(("t", "u", "v", "sheet"), (t, lift.u, lift.v, sheets),
                               ns.deterministic)} if ns.out else {}
    return 0, {
        "states": len(t),
        "sheet_initial": int(sheets[0]),
        "sheet_final": int(sheets[-1]),
        "v_final": float(lift.v[-1]),
        "out": ns.out,
    }, files


def _cmd_log_continue(ns, doc):
    q = _numbers(ns.from_point, "--from")
    germ = LogGerm(complex(q[0], q[1]), ns.sheet)
    path = _parse_path(ns.path)
    end = continue_log(germ, path)
    return 0, {
        "anchor": [end.anchor.real, end.anchor.imag],
        "sheet": end.sheet,
        "value": [end.value.real, end.value.imag],
    }, {}


def _cmd_verify(ns, doc):
    numbers = set(ns.only) if ns.only else None
    report = verify_mod.run_all(numbers=numbers)
    for r in report.results:        # timings vary run to run: stderr only
        print(f"[{r.number:2d}] {r.name:<18} {r.seconds:.3f} s (budget "
              f"{verify_mod.BUDGETS.get(r.number, math.inf):g} s)", file=sys.stderr)
    return (0 if report.passed else 1), report.render(), {}


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

    p = sub.add_parser(
        "forms-table", parents=[common],
        help="print the euclidean star table on basis forms",
    )
    p.set_defaults(handler=_cmd_forms_table)

    p = sub.add_parser(
        "check-closed", parents=[common, field_args],
        help="closedness probe over a rectangle, by exact derivatives",
    )
    p.set_defaults(handler=_cmd_check_closed)
    p.add_argument("--region", help="x0,y0,x1,y1")
    p.add_argument("--grid", type=int, help=f"nodes per side, 2..{MAX_CLOSEDNESS_GRID}")
    p.add_argument("--tol", type=float)

    p = sub.add_parser(
        "work", parents=[common, field_args],
        help="line integral of the field along a path",
    )
    p.set_defaults(handler=_cmd_work)
    p.add_argument("--path", required=True)

    p = sub.add_parser(
        "winding", parents=[common],
        help="winding number of a closed path about a point",
    )
    p.set_defaults(handler=_cmd_winding)
    p.add_argument("--path", required=True)
    p.add_argument("--about", default="0,0")

    p = sub.add_parser(
        "potentials", parents=[common, field_args, atlas_args],
        help="chart-local potentials; evaluate with x,y@chart",
    )
    p.set_defaults(handler=_cmd_potentials)
    p.add_argument("--eval", action="append", metavar="X,Y@CHART")

    p = sub.add_parser(
        "cocycle", parents=[common, field_args, atlas_args],
        help="overlap constants of the local potentials",
    )
    p.set_defaults(handler=_cmd_cocycle)
    p.add_argument("--samples", type=int, default=DEFAULT_OVERLAP_SAMPLES)

    p = sub.add_parser(
        "classify", parents=[common, field_args, atlas_args],
        help="exact / closed-not-exact / not-closed",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "bundle", parents=[common, field_args, atlas_args],
        help="exponentiated transition system and its holonomies",
    )
    p.set_defaults(handler=_cmd_bundle)
    p.add_argument("--cycle", help="chart cycle like 1,2,3,4,1")

    p = sub.add_parser(
        "simulate", parents=[common, field_args, atlas_args],
        help="integrate a trajectory and emit CSV/JSON/SVG artifacts",
    )
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--m", type=float)
    p.add_argument("--q0", help="initial position x,y")
    p.add_argument("--p0", help="initial momentum px,py")
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--T", type=float, help="total time")
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--integrator", choices=("leapfrog", "rk4"))
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--emit-svg", dest="emit_svg", help="SVG figure path")

    p = sub.add_parser(
        "lift", parents=[common],
        help="lift a trajectory CSV to the cover (columns t,u,v,sheet)",
    )
    p.set_defaults(handler=_cmd_lift)
    p.add_argument("--traj", required=True)
    p.add_argument("--out")

    p = sub.add_parser(
        "log-continue", parents=[common],
        help="continue a log germ along a path",
    )
    p.set_defaults(handler=_cmd_log_continue)
    p.add_argument("--from", dest="from_point", required=True, metavar="X,Y")
    p.add_argument("--sheet", type=int, default=0)
    p.add_argument("--path", required=True)

    p = sub.add_parser(
        "verify", parents=[common],
        help="run the built-in verification suite",
    )
    p.set_defaults(handler=_cmd_verify)
    p.add_argument(
        "--only", type=int, action="append", metavar="N",
        help="run only the given check numbers",
    )
    return parser


def render(argv=None):
    """Parse argv and compute its command, writing nothing: the exit code,
    the stdout text and the files as {path: text}.  The report is stamped
    with the time unless --deterministic is given."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 1, "", {}
    code, report, files = ns.handler(ns, _overlay(_load_config(ns.config), _flags(ns)))
    if isinstance(report, str):
        stamp = "" if ns.deterministic else f"# generated_at {_generated_at()}\n"
        return code, stamp + report + "\n", files
    if not ns.deterministic:
        report = {**report, "generated_at": _generated_at()}
    return code, _json_text(report), files


def _write(files):
    """Write each file under a temporary name in its own directory, then
    move each into place (os.replace, atomic within one file system): a
    file that cannot be written leaves none of them, and no temporary."""
    temps = []
    try:
        for i, (path, body) in enumerate(files.items()):
            if os.path.isdir(path):     # os.replace would refuse it after earlier moves
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temps.append(f"{path}.{os.getpid()}-{i}.tmp")
            with open(temps[-1], "w") as fh:
                fh.write(body)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the path
        for tmp in temps:
            with contextlib.suppress(OSError, ValueError):
                os.unlink(tmp)
        raise ValidationError(
            f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None


def run(argv=None):
    """The command line: render argv, write its files, print its report,
    and map a refusal to its exit code."""
    try:
        code, text, files = render(argv)
        _write(files)
        sys.stdout.write(text)
        return code
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
