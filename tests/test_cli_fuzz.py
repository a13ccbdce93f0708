"""Property test of the command line: random argv for every subcommand and
random --config documents exit 0, 1, 2 or 3 and never raise.

Runs stay small (T/h at most 100, at most 64 overlap samples) and
--jobs stays out, since it starts processes (Claessen & Hughes,
"QuickCheck", ICFP 2000; MacIver et al., "Hypothesis", JOSS 4(43), 2019).
"""

import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from locmech.cli import run

NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0),
                    st.sampled_from([1e-12, 1e308, -1e308, math.inf, -math.inf, math.nan]))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=6), NUMBERS,
                 st.lists(NUMBERS, max_size=3),
                 st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2))
PAIRS = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2),
                  st.builds("{},{}".format, NUMBERS, NUMBERS), JUNK)
FIELDS = st.sampled_from([
    "vortex", "zero", "2*x;2*y", "0;x", "1e308;0", "sin(40*x);y", "x^2;", "spiral", ")(",
    "-y/((x-2)^2+y^2);(x-2)/((x-2)^2+y^2)",
    "-y/(x^2+y^2)-y/((x-3)^2+y^2);x/(x^2+y^2)+(x-3)/((x-3)^2+y^2)",
])
SINGULAR = st.sampled_from(["0,0", "2,0", "0,0;3,0", "0,0;0,2", "1,1;1,1", "0,0;1e-3,0",
                            "nan,0", "inf,1", "x", "1", ""])
PATHS = st.sampled_from([
    "circle:0,0,1", "circle:0,0,10", "circle:3,0,1,-2", "circle:0,0,0", "circle:0,0,nan",
    "circle:", "poly:0,0;1e-8,0", "poly:1,0;0,1;-1,0;0,-1;1,0", "poly:0,0", "poly:nan,1;1,1",
    "param:cos(t),sin(t),0,6.28,50", "param:t,t,0,0", "param:t,t,0,1,0", "param:t,1/t,-1,1,4",
    "param:cos(t),sin(t),0,1,x", "spiral:1",
])
TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["0", "-1", "nan", "inf", "1e400"]))

# a half-plane [a, b, c] from a few normals and offsets: random, parallel,
# opposing, degenerate (zero normal) and non-finite walls all come up
HALFPLANES = st.one_of(
    st.lists(st.sampled_from([-1, 0, 0.5, 1, math.nan]), min_size=3, max_size=3), JUNK)
CHARTS = st.one_of(st.fixed_dictionaries(
    {"id": st.one_of(st.integers(1, 4), JUNK),
     "halfplanes": st.one_of(st.lists(HALFPLANES, max_size=4), JUNK),
     "basepoint": PAIRS},
    optional={"label": JUNK, "colour": JUNK}), JUNK)
ATLASES = st.one_of(st.just("quadrant"), JUNK, st.fixed_dictionaries(
    {"charts": st.one_of(st.lists(CHARTS, max_size=4), JUNK)}))


def _scenario(top):
    small = st.fixed_dictionaries({}, optional={
        "m": st.one_of(NUMBERS, JUNK), "q0": PAIRS, "p0": PAIRS,
        "r_min": st.one_of(NUMBERS, JUNK),
        "h": st.one_of(st.sampled_from([0.01, 0.1, 0.5, 0, -1, math.nan]), JUNK.filter(_no_number)),
        "T": st.one_of(st.sampled_from([0.1, 1, 0, 1e-12, math.inf]), JUNK.filter(_no_number)),
        "integrator": st.one_of(st.sampled_from(["leapfrog", "rk4"]), JUNK)})
    blocks = {"field": st.one_of(FIELDS, JUNK),
              "singular": st.one_of(SINGULAR, st.lists(PAIRS, max_size=3), JUNK),
              "atlas": ATLASES, "simulate": st.one_of(small, JUNK),
              "outputs": st.one_of(st.fixed_dictionaries({}, optional={
                  "out": st.sampled_from(["run.csv", "", 5, None]),
                  "emit_svg": st.sampled_from(["run.svg", 7, None])}), JUNK),
              "unknown": JUNK}
    if top:
        blocks["sweep"] = st.one_of(st.lists(_scenario(False), max_size=2), JUNK)
    return st.fixed_dictionaries({}, optional=blocks)


def _no_number(value):
    return not isinstance(value, (int, float)) or isinstance(value, bool)


def _option(flag, values):
    return st.tuples(st.just(flag), values)


FIELD_OPTIONS = [_option("--field", FIELDS), _option("--singular", SINGULAR)]
ATLAS_OPTIONS = FIELD_OPTIONS + [
    _option("--atlas", st.sampled_from(["quadrant", "polar", ""]))]
OPTIONS = {
    "forms-table": [],
    "check-closed": FIELD_OPTIONS + [
        _option("--region", st.sampled_from(
            ["0.5,0.5,2,2", "-1,-1,1,1", "2,2,1,1", "0,0,1", "nan,0,1,1"])),
        _option("--grid", st.sampled_from(["2", "3", "20", "1", "1001", "x"])),
        _option("--tol", TEXT)],
    "work": FIELD_OPTIONS + [_option("--path", PATHS)],
    "winding": [_option("--path", PATHS),
                _option("--about", st.sampled_from(["0,0", "3,0", "1", "nan,0"]))],
    "potentials": ATLAS_OPTIONS + [
        _option("--eval", st.sampled_from(["2,0@1", "nan,0@1", "1,1@9", "0,0@1", "x", "1,1@x"]))],
    "cocycle": ATLAS_OPTIONS + [
        _option("--samples", st.sampled_from(["1", "32", "64", "0", "-3", "x"]))],
    "classify": ATLAS_OPTIONS,
    "bundle": ATLAS_OPTIONS + [
        _option("--cycle", st.sampled_from(["1,2,3,4,1", "1,3", "1,2", "x", "9,9"]))],
    "simulate": ATLAS_OPTIONS + [
        _option("--q0", st.sampled_from(["1,0", "3,0", "0,0", "1e-9,0", "nan,0", "x"])),
        _option("--p0", st.sampled_from(["0,1", "1,0", "inf,0", "x"])),
        _option("--m", st.sampled_from(["1", "0", "-1", "nan", "x"])),
        _option("--h", st.sampled_from(["0.01", "0.1", "0.5", "0", "-1", "nan", "x"])),
        _option("--T", st.sampled_from(["0.1", "1", "0", "1e-12", "inf", "x"])),
        _option("--r-min", TEXT),
        _option("--integrator", st.sampled_from(["leapfrog", "rk4", "euler"])),
        _option("--out", st.just("run.csv")), _option("--emit-svg", st.just("run.svg"))],
    "lift": [_option("--traj", st.sampled_from(["traj.csv", "missing.csv"])),
             _option("--out", st.just("lift.csv"))],
    "log-continue": [_option("--from", st.sampled_from(["1,0", "0,0", "2,0", "nan,0", "x"])),
                     _option("--sheet", st.sampled_from(["0", "-2", "x", "99999999999999999999"])),
                     _option("--path", PATHS)],
}
TRAJECTORIES = st.sampled_from([
    "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n0,1,0\n1,0,1\n2,-1,0\n",
    "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n0,0,0\n",
    "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n0,1\n",
    "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n0,nan,1\n1,1,1\n",
    "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n", "# only a comment\n", "",
])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["verify"]))
    if command == "verify":     # a cheap check, or none; the full run is a test of its own
        return ["verify", "--only", draw(st.sampled_from(["2", "11", "-1", "x"]))]
    options = draw(st.lists(st.one_of(OPTIONS[command]), max_size=5)) if OPTIONS[command] else []
    argv = [command] + [part for option in options for part in option]
    return argv + draw(st.sampled_from([[], ["--deterministic"], ["--bogus"]]))


def _run_in(tmp, argv, config=None, trajectory=""):
    with open(os.path.join(tmp, "traj.csv"), "w") as fh:
        fh.write(trajectory)
    if config is not None:
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            fh.write(json.dumps(config))
        argv = argv + ["--config", os.path.join(tmp, "config.json")]
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        return run(argv)
    finally:
        os.chdir(cwd)


@settings(max_examples=100)
@given(argvs(), TRAJECTORIES)
# each of these once raised: a NaN germ anchor, a short trajectory row, an
# unknown chart id, momenta whose squares overflow (a numpy RuntimeWarning,
# which the suite's warning filter turns into an error)
@example(["log-continue", "--from", "nan,0", "--path", "circle:0,0,10"], "")
@example(["lift", "--traj", "traj.csv"],
         "t,x,y,px,py,chart,V,Tkin,Elocal,theta_acc,p_theta\n0,1\n")
@example(["potentials", "--field", "vortex", "--eval", "1,1@9"], "")
@example(["simulate", "--field", "vortex", "--q0", "1,0", "--p0", "1e200,1e200", "--h", "1e-3",
          "--T", "0.01", "--deterministic"], "")
def test_random_argv_exits_with_a_documented_code(argv, trajectory):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_in(tmp, argv, trajectory=trajectory) in (0, 1, 2, 3)


@settings(max_examples=80)
@given(st.sampled_from(["potentials", "cocycle", "classify", "bundle", "simulate"]),
       st.one_of(_scenario(True), JUNK))
# each of these once raised: values of the wrong type, and a file
# descriptor number taken for an output path; the one chart holding the
# vortex once passed for exact, and is now refused
@example("potentials", {"singular": False})
@example("potentials", {"field": False})
@example("cocycle", {"atlas": {"charts": [{"id": "x", "halfplanes": [1], "basepoint": [1, 1]}]}})
@example("classify", {"field": "vortex", "atlas": {"charts": [
    {"id": 1, "halfplanes": [[1, 0, -5]], "basepoint": [1, 1]}]}})
@example("simulate", {"field": "vortex", "simulate": {"q0": [1, 0], "p0": [0, 1], "T": 0.1},
                      "outputs": {"out": 5}})
def test_random_config_documents_exit_with_a_documented_code(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_in(tmp, [command, "--deterministic"], config) in (0, 1, 2, 3)
