"""Command-line front end: scenario parsing, orchestration, artifacts.

Reports go to stdout as JSON with sorted keys; trajectory tables go to
CSV files named by --out, with a transition log written next to them
and an optional SVG polyline figure via --emit-svg. Scenarios can be
given as flags, as a JSON config document (--config), or both; flags
win over config fields, and unknown config keys are rejected outright.

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
import os
import sys

import numpy as np

from .atlas import Atlas, Chart, PotentialSet, cocycle, exactness_test, quadrant_atlas
from .bundle import holonomy, is_trivial, transitions
from .cover import LogGerm, continue_log, lift_path
from .dynamics import SimConfig, simulate
from .errors import LocmechError, NumericError, ValidationError
from .exprlang import ExprError
from .fields import (
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
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: expected an integer, got {text!r}") from None


def _pair(value, what):
    """Accept 'x,y' strings or two-element sequences."""
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value)
    if len(parts) != 2:
        raise ValidationError(f"{what}: expected two components")
    return (_float(parts[0], what), _float(parts[1], what))


def _point_list(value, what):
    """Accept 'x,y;x,y' strings or sequences of pairs."""
    if value is None:
        return ()
    if isinstance(value, str):
        chunks = [c for c in value.split(";") if c.strip()]
        return tuple(_pair(c, what) for c in chunks)
    return tuple(_pair(v, what) for v in value)


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
        n = _int(parts[4], "param N") if len(parts) == 5 else 2000
        return ParametricPath(parts[0], parts[1], t0, t1, n)
    raise ValidationError(f"unknown path kind {kind!r}")


def _parse_field(spec, singular):
    if spec is None:
        raise ValidationError("a field is required (--field or config)")
    if spec == "vortex":
        return vortex()
    if spec == "zero":
        return zero_field()
    if ";" in spec:
        fx, fy = spec.split(";", 1)
        return from_components(fx, fy, singular_points=singular, name="cli")
    raise ValidationError(
        f"field must be 'vortex', 'zero', or 'fx;fy' expressions, got {spec!r}"
    )


def _check_keys(block, allowed, where):
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown config key(s) in {where}: {', '.join(unknown)}"
        )


def _parse_atlas(spec, singular):
    if spec is None or spec == "quadrant":
        return quadrant_atlas(singular) if singular else quadrant_atlas()
    if isinstance(spec, dict):
        _check_keys(spec, _ATLAS_KEYS, "atlas")
        charts = []
        for k, entry in enumerate(spec.get("charts", ())):
            _check_keys(entry, _CHART_KEYS, f"atlas.charts[{k}]")
            for key in ("id", "halfplanes", "basepoint"):
                if key not in entry:
                    raise ValidationError(f"atlas.charts[{k}] needs {key!r}")
            charts.append(Chart(
                entry["id"],
                entry["halfplanes"],
                _pair(entry["basepoint"], f"atlas.charts[{k}].basepoint"),
                entry.get("label", ""),
                singular,
            ))
        if not charts:
            raise ValidationError("atlas config lists no charts")
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
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _check_keys(config, _TOP_KEYS, "config")
    for block, keys in (("simulate", _SIM_KEYS), ("outputs", _OUT_KEYS)):
        if block in config:
            if not isinstance(config[block], dict):
                raise ValidationError(f"config.{block} must be an object")
            _check_keys(config[block], keys, f"config.{block}")
    if "sweep" in config:
        if not isinstance(config["sweep"], list):
            raise ValidationError("config.sweep must be a list")
        for k, entry in enumerate(config["sweep"]):
            if not isinstance(entry, dict):
                raise ValidationError(f"config.sweep[{k}] must be an object")
            _check_keys(entry, _TOP_KEYS - {"sweep"}, f"config.sweep[{k}]")
            for block, keys in (("simulate", _SIM_KEYS), ("outputs", _OUT_KEYS)):
                if block in entry:
                    _check_keys(entry[block], keys, f"config.sweep[{k}].{block}")
    return config


def _singular_from(ns, config):
    if getattr(ns, "singular", None) is not None:
        return _point_list(ns.singular, "--singular")
    return _point_list(config.get("singular"), "config.singular")


def _field_from(ns, config):
    singular = _singular_from(ns, config)
    spec = getattr(ns, "field", None)
    if spec is None:
        spec = config.get("field")
    return _parse_field(spec, singular), singular


def _atlas_from(ns, config, field):
    spec = getattr(ns, "atlas", None)
    if spec is None:
        spec = config.get("atlas")
    return _parse_atlas(spec, field.singular_points)


# ---------------------------------------------------------------------------
# output helpers

def _generated_at():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit_json(obj, deterministic):
    if not deterministic:
        obj = dict(obj)
        obj["generated_at"] = _generated_at()
    print(json.dumps(obj, sort_keys=True, indent=2))


def _write_traj_csv(tr, out, deterministic):
    lines = []
    if not deterministic:
        lines.append(f"# generated_at {_generated_at()}")
    lines.append(",".join(CSV_COLUMNS))
    n_sing = tr.theta.shape[1]
    for k in range(tr.n_states):
        if n_sing == 1:
            theta_txt = repr(float(tr.theta[k, 0]))
        else:
            theta_txt = ";".join(repr(float(v)) for v in tr.theta[k])
        row = (
            repr(float(tr.t[k])),
            repr(float(tr.qx[k])),
            repr(float(tr.qy[k])),
            repr(float(tr.px[k])),
            repr(float(tr.py[k])),
            str(int(tr.chart[k])),
            repr(float(tr.V[k])),
            repr(float(tr.Tkin[k])),
            repr(float(tr.E_local[k])),
            theta_txt,
            repr(float(tr.p_theta[k])),
        )
        lines.append(",".join(row))
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _write_svg(points, singular_points, fname, size=640):
    xs = [p[0] for p in points] + [s[0] for s in singular_points]
    ys = [p[1] for p in points] + [s[1] for s in singular_points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-6)
    pad = 0.08 * span
    xmin, xmax = xmin - pad, xmin - pad + span + 2 * pad
    ymin, ymax = ymin - pad, ymin - pad + span + 2 * pad

    def sx(x):
        return (x - xmin) / (xmax - xmin) * size

    def sy(y):
        return size - (y - ymin) / (ymax - ymin) * size

    stride = max(1, len(points) // 4000)
    sampled = list(points[::stride])
    if tuple(points[-1]) != tuple(sampled[-1]):
        sampled.append(points[-1])
    poly = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in sampled)
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

def _cmd_forms_table(ns, config):
    _emit_json({"star": star_table()}, ns.deterministic)
    return 0


def _cmd_check_closed(ns, config):
    field, _ = _field_from(ns, config)
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


def _cmd_work(ns, config):
    field, _ = _field_from(ns, config)
    path = _parse_path(ns.path)
    value = work(field, path, quad=ns.quad)
    # the rule applies to parametric paths only; polylines use the kernel
    quad = None if isinstance(path, PolylinePath) else ns.quad
    _emit_json({"work": value, "quad": quad}, ns.deterministic)
    return 0


def _cmd_winding(ns, config):
    path = _parse_path(ns.path)
    about = _pair(ns.about, "--about")
    res = winding_number(path, about)
    _emit_json({
        "winding": res.number,
        "residual": res.residual,
        "about": list(about),
    }, ns.deterministic)
    return 0


def _cmd_potentials(ns, config):
    field, _ = _field_from(ns, config)
    atlas = _atlas_from(ns, config, field)
    ps = PotentialSet.from_field(field, atlas)
    evals = []
    for spec in ns.eval or ():
        point_txt, _, chart_txt = spec.partition("@")
        if not chart_txt:
            raise ValidationError("--eval takes x,y@chart")
        q = _pair(point_txt, "--eval point")
        cid = _int(chart_txt, "--eval chart")
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


def _cmd_cocycle(ns, config):
    field, _ = _field_from(ns, config)
    atlas = _atlas_from(ns, config, field)
    ps = PotentialSet.from_field(field, atlas)
    cc = cocycle(ps, atlas, samples=ns.samples)
    _emit_json(_cocycle_report(cc), ns.deterministic)
    return 0


def _cmd_classify(ns, config):
    field, _ = _field_from(ns, config)
    spec = getattr(ns, "atlas", None) or config.get("atlas")
    atlas = _parse_atlas(spec, field.singular_points) if spec else None
    _emit_json({"classification": classify(field, atlas)}, ns.deterministic)
    return 0


def _cmd_bundle(ns, config):
    field, _ = _field_from(ns, config)
    atlas = _atlas_from(ns, config, field)
    ps = PotentialSet.from_field(field, atlas)
    cc = cocycle(ps, atlas)
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


def _scenario_from(ns, config):
    """Merge config blocks and flags into one plain scenario mapping."""
    sim = config.get("simulate", {})
    out = config.get("outputs", {})

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        if key in sim:
            return sim[key]
        return fallback

    scenario = {
        "field": ns.field if ns.field is not None else config.get("field"),
        "singular": (
            ns.singular if ns.singular is not None else config.get("singular")
        ),
        "atlas": ns.atlas if ns.atlas is not None else config.get("atlas"),
        "m": pick(ns.m, "m", 1.0),
        "q0": pick(ns.q0, "q0", None),
        "p0": pick(ns.p0, "p0", None),
        "h": pick(ns.h, "h", 1e-3),
        "T": pick(ns.T, "T", 5.0),
        "r_min": pick(ns.r_min, "r_min", None),
        "integrator": pick(ns.integrator, "integrator", "leapfrog"),
        "out": ns.out if ns.out is not None else out.get("out"),
        "emit_svg": (
            ns.emit_svg if ns.emit_svg is not None else out.get("emit_svg")
        ),
        "deterministic": ns.deterministic,
    }
    if scenario["q0"] is None or scenario["p0"] is None:
        raise ValidationError("simulate needs q0 and p0 (flags or config)")
    return scenario


def _merge_sweep_entry(config, entry):
    merged = {k: v for k, v in config.items() if k != "sweep"}
    for key, value in entry.items():
        if key in ("simulate", "outputs"):
            block = dict(merged.get(key, {}))
            block.update(value)
            merged[key] = block
        else:
            merged[key] = value
    return merged


def _run_scenario(scenario):
    singular = _point_list(scenario["singular"], "singular")
    field = _parse_field(scenario["field"], singular)
    atlas = _parse_atlas(scenario["atlas"], field.singular_points)
    kwargs = dict(
        field=field,
        atlas=atlas,
        q0=_pair(scenario["q0"], "q0"),
        p0=_pair(scenario["p0"], "p0"),
        m=_float(scenario["m"], "m"),
        h=_float(scenario["h"], "h"),
        T=_float(scenario["T"], "T"),
        integrator=scenario["integrator"],
    )
    if scenario["r_min"] is not None:
        kwargs["r_min"] = _float(scenario["r_min"], "r_min")
    cfg = SimConfig(**kwargs)
    ps = PotentialSet.from_field(field, atlas)
    tr = simulate(cfg, ps)

    if scenario["out"]:
        _write_traj_csv(tr, scenario["out"], scenario["deterministic"])
        _write_sidecar(tr, scenario["out"])
    if scenario["emit_svg"]:
        _write_svg(
            list(zip(tr.qx.tolist(), tr.qy.tolist())),
            field.singular_points,
            scenario["emit_svg"],
        )
    last = tr.n_states - 1
    summary = {
        "status": tr.status,
        "abort_reason": tr.abort_reason,
        "states": tr.n_states,
        "t_final": float(tr.t[last]),
        "q_final": [float(tr.qx[last]), float(tr.qy[last])],
        "p_final": [float(tr.px[last]), float(tr.py[last])],
        "chart_final": int(tr.chart[last]),
        "E_local_final": float(tr.E_local[last]),
        "n_transitions": len(tr.transitions),
        "out": scenario["out"],
    }
    return tr, summary


def _sweep_worker(scenario):
    _, summary = _run_scenario(scenario)
    return summary


def _cmd_simulate(ns, config):
    sweep = config.get("sweep")
    if sweep:
        scenarios = []
        for entry in sweep:
            merged = _merge_sweep_entry(config, entry)
            scenarios.append(_scenario_from(ns, merged))
        jobs = ns.jobs or 1
        if jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
                summaries = list(ex.map(_sweep_worker, scenarios))
        else:
            summaries = [_sweep_worker(s) for s in scenarios]
        _emit_json({"sweep": summaries}, ns.deterministic)
        return 0 if all(s["status"] == "completed" for s in summaries) else 2

    scenario = _scenario_from(ns, config)
    tr, summary = _run_scenario(scenario)
    _emit_json(summary, ns.deterministic)
    if not tr.completed:
        print(f"aborted: {tr.abort_reason}", file=sys.stderr)
        return 2
    return 0


def _read_traj_csv(path):
    try:
        with open(path) as fh:
            rows = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read trajectory: {exc}") from None
    rows = [r for r in rows if not r.startswith("#")]
    if not rows or rows[0].split(",")[: len(CSV_COLUMNS)] != list(CSV_COLUMNS):
        raise ValidationError("trajectory CSV does not match the known header")
    t, x, y = [], [], []
    for r in rows[1:]:
        parts = r.split(",")
        t.append(_float(parts[0], "t column"))
        x.append(_float(parts[1], "x column"))
        y.append(_float(parts[2], "y column"))
    if not t:
        raise ValidationError("trajectory CSV has no data rows")
    return np.array(t), np.array(x), np.array(y)


def _cmd_lift(ns, config):
    t, x, y = _read_traj_csv(ns.traj)
    lift = lift_path(np.column_stack([x, y]))
    u, v = lift.u, lift.v
    sheets = lift.sheets()

    if ns.out:
        lines = []
        if not ns.deterministic:
            lines.append(f"# generated_at {_generated_at()}")
        lines.append("t,u,v,sheet")
        for k in range(len(t)):
            lines.append(
                f"{float(t[k])!r},{float(u[k])!r},{float(v[k])!r},"
                f"{int(sheets[k])}"
            )
        with open(ns.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_json({
        "states": len(t),
        "sheet_initial": int(sheets[0]),
        "sheet_final": int(sheets[-1]),
        "v_final": float(v[-1]),
        "out": ns.out,
    }, ns.deterministic)
    return 0


def _cmd_log_continue(ns, config):
    q = _pair(ns.from_point, "--from")
    germ = LogGerm(complex(q[0], q[1]), ns.sheet)
    path = _parse_path(ns.path)
    end = continue_log(germ, path)
    _emit_json({
        "anchor": [end.anchor.real, end.anchor.imag],
        "sheet": end.sheet,
        "value": [end.value.real, end.value.imag],
    }, ns.deterministic)
    return 0


def _cmd_verify(ns, config):
    numbers = set(ns.only) if ns.only else None
    report = verify_mod.run_all(numbers=numbers)
    if not ns.deterministic:
        print(f"# generated_at {_generated_at()}")
    print(report.render())
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
        "--atlas", help="'quadrant' (default) or defined in the config"
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
    p.add_argument(
        "--quad", default="simpson",
        help="simpson (default), trapezoid, or gauss(k) with k in 1..64",
    )

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
    p.add_argument("--samples", type=int, default=32)

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
        config = _load_config(ns.config)
        return _DISPATCH[ns.command](ns, config)
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
