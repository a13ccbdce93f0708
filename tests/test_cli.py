"""End-to-end command tests: JSON reports, artifacts, and exit codes."""

import json
import math
import os
import re
import warnings

import pytest

from locmech import cli
from locmech.atlas import quadrant_atlas
from locmech.cli import CSV_COLUMNS, render, run
from locmech.cover import lift_trajectory
from locmech.dynamics import SimConfig, simulate
from locmech.fields import PROBE_REGION, from_components

TAU = math.tau


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = invoke(capsys, *argv)
    return code, json.loads(out)


def test_work_reports_loop_circulation(capsys):
    code, doc = out_json(
        capsys, "work", "--field", "vortex", "--path", "circle:0,0,1",
        "--deterministic",
    )
    assert code == 0
    assert doc["work"] == pytest.approx(TAU, abs=1e-7)
    assert "generated_at" not in doc


def test_work_quadrature_specs(capsys):
    # every path goes through the one kernel: there is no rule to choose
    code, _, err = invoke(capsys, "work", "--field", "vortex",
                          "--path", "circle:0,0,1", "--quad", "gauss(8)")
    assert code == 1
    assert "unrecognized arguments: --quad" in err


@pytest.mark.parametrize("spec", ["circle:0,0,nan", "circle:inf,0,1", "circle:0,0,1,nan"])
def test_non_finite_circle_specs_exit_1(capsys, spec):
    code, _, err = invoke(capsys, "work", "--field", "vortex", "--path", spec)
    assert code == 1
    assert "finite" in err


def test_winding_command(capsys):
    code, doc = out_json(
        capsys, "winding", "--path", "circle:0,0,1.5,-2", "--deterministic"
    )
    assert code == 0
    assert doc["winding"] == -2
    code, doc = out_json(
        capsys, "winding",
        "--path", "poly:1,1;-1,1;-1,-1;1,-1;1,1",
        "--about", "0,0", "--deterministic",
    )
    assert doc["winding"] == 1


def test_forms_table_is_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "forms-table", "--deterministic")
    code2, out2, _ = invoke(capsys, "forms-table", "--deterministic")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["star"]["dx"] == "dy^dz"
    assert doc["star"]["dx^dy^dz"] == "1"


def test_check_closed_exit_codes(capsys):
    code, doc = out_json(
        capsys, "check-closed", "--field", "vortex", "--deterministic"
    )
    assert code == 0 and doc["closed"]
    assert (doc["region"], doc["grid"], doc["tol"]) == (list(PROBE_REGION), 20, 1e-4)
    code, doc = out_json(
        capsys, "check-closed", "--field", "0;x", "--deterministic"
    )
    assert code == 1 and not doc["closed"]
    assert doc["max_residual"] == pytest.approx(1.0, abs=1e-6)


def test_classify_command(capsys):
    code, doc = out_json(
        capsys, "classify", "--field", "vortex", "--deterministic"
    )
    assert code == 0
    assert doc["classification"] == "closed-not-exact"


def test_cocycle_report(capsys):
    code, doc = out_json(
        capsys, "cocycle", "--field", "vortex", "--deterministic"
    )
    assert code == 0
    assert doc["entries"]["1-2"] == pytest.approx(-math.pi / 2, abs=1e-9)
    assert doc["entries"]["1-4"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert not doc["exact"]
    assert doc["offsets"] is None
    assert len(doc["periods"]) == 1
    assert doc["periods"][0]["period"] == pytest.approx(-TAU, abs=1e-8)


def test_potentials_evaluation(capsys):
    code, doc = out_json(
        capsys, "potentials", "--field", "vortex",
        "--eval", "2,0@1", "--deterministic",
    )
    assert code == 0
    assert doc["charts"] == [1, 2, 3, 4]
    entry = doc["evaluations"][0]
    assert entry["chart"] == 1
    assert entry["value"] == pytest.approx(math.pi / 4, abs=1e-9)


def test_non_finite_polyline_vertex_exits_2(capsys):
    code, out, err = invoke(capsys, "work", "--field", "vortex",
                            "--path", "poly:1,0;nan,1")
    assert code == 2
    assert out == ""
    assert err.startswith("numeric failure: non-finite")


def test_potential_at_a_non_finite_point_exits_1(capsys):
    code, out, err = invoke(capsys, "potentials", "--field", "vortex",
                            "--eval", "nan,0@1")
    assert code == 1
    assert out == ""
    assert "outside chart 1" in err


def test_cocycle_refuses_zero_samples(capsys):
    code, out, err = invoke(capsys, "cocycle", "--field", "vortex",
                            "--samples", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("invalid input: samples")


def test_bundle_holonomy(capsys):
    code, doc = out_json(
        capsys, "bundle", "--field", "vortex",
        "--cycle", "1,2,3,4,1", "--deterministic",
    )
    assert code == 0
    assert doc["holonomies"]["1-2-3-4-1"] == pytest.approx(
        math.exp(-TAU), rel=1e-9
    )
    assert not doc["trivial"]
    assert len(doc["t"]) == 4


def simulate_args(tmp_path, name="run.csv", extra=()):
    out = os.path.join(tmp_path, name)
    return out, [
        "simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1",
        "--h", "1e-2", "--T", "1", "--out", out, "--deterministic", *extra,
    ]


def test_simulate_artifacts(tmp_path, capsys):
    svg = os.path.join(tmp_path, "run.svg")
    out, argv = simulate_args(str(tmp_path), extra=["--emit-svg", svg])
    code, doc = out_json(capsys, *argv)
    assert code == 0
    assert doc["status"] == "completed"
    assert doc["states"] == 101

    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 101
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[1] == "1.0"
    assert first[5] == "1"

    sidecar = os.path.join(tmp_path, "run.transitions.json")
    with open(sidecar) as fh:
        side = json.load(fh)
    assert side["status"] == "completed"
    assert isinstance(side["transitions"], list)

    with open(svg) as fh:
        body = fh.read()
    assert body.startswith("<svg ")
    assert "<polyline" in body and "<circle" in body


def test_simulate_is_byte_reproducible(tmp_path, capsys):
    out1, argv1 = simulate_args(str(tmp_path), "a.csv")
    out2, argv2 = simulate_args(str(tmp_path), "b.csv")
    code1, stdout1, _ = invoke(capsys, *argv1)
    code2, stdout2, _ = invoke(capsys, *argv2)
    assert code1 == code2 == 0
    assert stdout1.replace("a.csv", "x") == stdout2.replace("b.csv", "x")
    with open(out1, "rb") as fh:
        bytes1 = fh.read()
    with open(out2, "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2


def test_simulate_abort_exits_2_with_partial_csv(tmp_path, capsys):
    out = os.path.join(tmp_path, "abort.csv")
    code, stdout, err = invoke(
        capsys, "simulate", "--field", "vortex", "--q0", "0.002,0",
        "--p0=-1,0", "--h", "1e-5", "--T", "0.01",
        "--out", out, "--deterministic",
    )
    assert code == 2
    doc = json.loads(stdout)
    assert doc["status"] == "aborted-singularity"
    assert "r_min" in err
    with open(out) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert 2 < len(rows) < 1002


def test_expression_error_exits_3(capsys):
    code, _, err = invoke(capsys, "work", "--field", "x^;y",
                          "--path", "circle:0,0,1")
    assert code == 3
    assert "expression" in err


@pytest.mark.parametrize("field", ["x^9^9^9;y", "x^10^400;y", "x^0^-1;y", "x^2^-1;y"])
@pytest.mark.parametrize("command", [["work", "--path", "circle:2,2,1"], ["check-closed"]])
def test_exponent_towers_exit_3(capsys, command, field):
    code, _, err = invoke(capsys, *command, "--field", field)
    assert code == 3
    assert "integer exponent" in err


@pytest.mark.parametrize("field", ["1e999;0", "0;-x*1E400"])
@pytest.mark.parametrize("command", [["work", "--path", "circle:2,2,1"], ["check-closed"]])
def test_non_finite_literals_exit_3(capsys, command, field):
    code, _, err = invoke(capsys, *command, f"--field={field}")
    assert code == 3
    assert "double range" in err


def test_large_finite_literal_is_a_field(capsys):
    code, doc = out_json(capsys, "check-closed", "--field", "1e308;0", "--deterministic")
    assert code == 0 and doc["closed"]


def test_check_closed_near_the_puncture_compares_a_relative_residual(capsys):
    # partials of size 1e12 near the origin cancel to about one ulp of that
    code, doc = out_json(capsys, "check-closed", "--field", "vortex",
                         "--region", "3e-7,7e-7,1,1", "--grid", "2", "--deterministic")
    assert code == 0 and doc["closed"]
    assert doc["max_residual"] < 1e-15


def test_oversized_sample_counts_exit_1(capsys):
    for argv in (
        ["work", "--field", "vortex", "--path", "param:cos(t),sin(t),0,1,1000000000"],
        ["winding", "--path", "param:cos(t),sin(t),0,1,1000000000"],
        ["check-closed", "--field", "vortex", "--grid", "100000"],
        ["cocycle", "--field", "vortex", "--samples", "1000000000000"],
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert "invalid input" in err


def test_work_reports_no_rule_for_polylines(capsys):
    code, doc = out_json(capsys, "work", "--field", "vortex",
                         "--path", "poly:-1,1e-6;1,1e-6", "--deterministic")
    assert code == 0 and doc["work"] == pytest.approx(-math.pi, abs=1e-5)


@pytest.mark.parametrize("spec", ["circle:0.5,0,0.5", "param:0.5+0.5*cos(t),0.5*sin(t),0.1,6.3"])
def test_work_along_a_path_through_the_puncture_exits_2(capsys, spec):
    code, _, err = invoke(capsys, "work", "--field", "vortex", "--path", spec, "--deterministic")
    assert code == 2
    assert "passes within r_min" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_closed_refuses_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    code, out, err = invoke(capsys, "check-closed", "--field", "vortex", "--tol", tol)
    assert (code, out) == (1, "")
    assert "invalid input: tol must be finite and positive" in err


@pytest.mark.parametrize("region", ["0.5,0.5,inf,2", "nan,0.5,2,2"])
def test_check_closed_refuses_a_region_that_is_not_finite(capsys, region):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # inf once reached numpy's grid
        code, out, err = invoke(capsys, "check-closed", "--field", "vortex", "--region", region)
    assert (code, out) == (1, "")
    assert err.startswith("invalid input: region (") and err.endswith(") is not finite\n")


def test_check_closed_takes_no_step_option(capsys):
    code, _, err = invoke(capsys, "check-closed", "--field", "vortex", "--h", "1e-5")
    assert code == 1
    assert "unrecognized arguments: --h" in err


def test_validation_error_exits_1(capsys):
    code, _, err = invoke(capsys, "simulate", "--field", "vortex")
    assert code == 1
    code, _, err = invoke(capsys, "work", "--field", "vortex",
                          "--path", "spiral:1,2")
    assert code == 1


@pytest.mark.parametrize("flag,value", [
    ("--h", "nan"), ("--T", "inf"), ("--h", "1e-300"), ("--m", "inf"),
    ("--p0", "nan,1"),
])
def test_simulate_refuses_bad_numbers_with_exit_1(capsys, flag, value):
    args = {"--q0": "1,0", "--p0": "0,1", "--T": "1", flag: value}
    argv = ["simulate", "--field", "vortex", "--deterministic"]
    for key, val in args.items():
        argv += [key, val]
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("invalid input:")


def test_config_merging_and_flag_override(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "scenario.json")
    out = os.path.join(tmp_path, "cfg.csv")
    with open(cfg_path, "w") as fh:
        json.dump({
            "field": "vortex",
            "simulate": {"q0": "1,0", "p0": "0,1", "h": 1e-2, "T": 5.0},
            "outputs": {"out": out},
        }, fh)
    code, doc = out_json(
        capsys, "simulate", "--config", cfg_path, "--T", "1",
        "--deterministic",
    )
    assert code == 0
    # The flag wins over the config block.
    assert doc["states"] == 101
    assert os.path.exists(out)


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({"field": "vortex", "stepsize": 0.1}, fh)
    code, _, err = invoke(capsys, "classify", "--config", cfg_path)
    assert code == 1
    assert "stepsize" in err


def test_sweep_runs_every_entry(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "sweep.json")
    with open(cfg_path, "w") as fh:
        json.dump({
            "field": "vortex",
            "simulate": {"q0": "1,0", "p0": "0,1", "h": 1e-2},
            "sweep": [
                {"simulate": {"T": 0.5}},
                {"simulate": {"T": 1.0}},
            ],
        }, fh)
    code, doc = out_json(
        capsys, "simulate", "--config", cfg_path, "--deterministic"
    )
    assert code == 0
    assert [s["states"] for s in doc["sweep"]] == [51, 101]
    assert all(s["status"] == "completed" for s in doc["sweep"])


def write_sweep(tmp_path, entries):
    cfg_path = os.path.join(tmp_path, "sweep.json")
    with open(cfg_path, "w") as fh:
        json.dump({
            "field": "vortex",
            "simulate": {"q0": "1,0", "p0": "0,1", "h": 1e-2, "T": 5.0, "m": None},
            "sweep": entries,
        }, fh)
    return cfg_path


def test_a_flag_beats_a_sweep_entry_which_beats_the_config(tmp_path, capsys):
    # simulate blocks merge key by key: q0 and p0 come from the config in
    # every entry, and a null is absent, so it overrides nothing
    cfg_path = write_sweep(tmp_path, [
        {"simulate": {"T": 0.5}},
        {"simulate": {"h": 0.05, "T": 1.0}},
        {"simulate": {"T": None}, "field": None},
    ])
    code, doc = out_json(capsys, "simulate", "--config", cfg_path, "--deterministic")
    assert code == 0
    assert [(s["states"], s["t_final"]) for s in doc["sweep"]] == [
        (51, 0.5), (21, 1.0), (501, 5.0)]
    code, doc = out_json(capsys, "simulate", "--config", cfg_path, "--h", "0.02",
                         "--deterministic")
    assert code == 0
    assert [(s["states"], s["t_final"]) for s in doc["sweep"]] == [
        (26, 0.5), (51, 1.0), (251, 5.0)]


def test_a_sweep_runs_its_entries_in_order_in_process(tmp_path, capsys):
    cfg_path = write_sweep(tmp_path, [
        {"simulate": {"T": 0.5}},
        {"simulate": {"T": 1.0, "integrator": "rk4"}},
        {"simulate": {"q0": "0.002,0", "p0": "-1,0", "h": 1e-5, "T": 0.01}},
    ])
    code, out, _ = invoke(capsys, "simulate", "--config", cfg_path, "--deterministic")
    assert code == 2    # the third entry aborts
    assert [s["status"] for s in json.loads(out)["sweep"]] == [
        "completed", "completed", "aborted-singularity"]
    code, _, err = invoke(capsys, "simulate", "--config", cfg_path, "--jobs", "2")
    assert code == 1
    assert "unrecognized arguments: --jobs" in err


def test_a_failing_sweep_entry_leaves_no_files(tmp_path, capsys, monkeypatch):
    # every entry runs before anything is written
    monkeypatch.chdir(tmp_path)
    cfg_path = write_sweep(tmp_path, [{"outputs": {"out": "a.csv"}}, {"simulate": {"h": -1}}])
    code, out, err = invoke(capsys, "simulate", "--config", cfg_path, "--deterministic")
    assert (code, out) == (1, "")
    assert err.startswith("invalid input:")
    assert os.listdir(tmp_path) == ["sweep.json"]


TRAJ_TEXT = ",".join(CSV_COLUMNS) + "\n0,1,0\n1,0,1\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1", "--T", "0.1", "--out"),
    ("simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1", "--T", "0.1", "--emit-svg"),
    ("lift", "--traj", "traj.csv", "--out"),
])
@pytest.mark.parametrize("target", [os.path.join("missing", "run.csv"), ".", "a\x00b"])
def test_an_unwritable_output_path_exits_1(tmp_path, capsys, monkeypatch, argv, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "traj.csv").write_text(TRAJ_TEXT)
    code, out, err = invoke(capsys, *argv, target)
    assert (code, out) == (1, "")
    assert err.startswith(f"invalid input: cannot write {target}: ")
    assert os.listdir(tmp_path) == ["traj.csv"]


def test_a_file_that_cannot_be_written_leaves_none_of_them(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1",
                            "--T", "0.1", "--out", "ok.csv", "--emit-svg", "missing/x.svg")
    assert (code, out) == (1, "")
    assert err == "invalid input: cannot write missing/x.svg: No such file or directory\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("failing", range(3))
@pytest.mark.parametrize("why", ["missing directory", "a directory"])
def test_each_position_of_the_file_list_can_refuse_them_all(tmp_path, capsys, monkeypatch,
                                                            failing, why):
    monkeypatch.chdir(tmp_path)
    names = ["a.csv", "a.transitions.json", "a.svg"]
    if why == "a directory":
        os.mkdir(names[failing])
    else:
        names[failing] = os.path.join("missing", names[failing])
    monkeypatch.setattr(cli, "render", lambda argv: (0, "report\n", {n: n for n in names}))
    code, out, err = invoke(capsys, "simulate")
    assert (code, out) == (1, "")
    assert err.startswith(f"invalid input: cannot write {names[failing]}: ")
    assert os.listdir(tmp_path) == ([names[failing]] if why == "a directory" else [])


def test_a_quadrature_abort_exits_2_and_writes_its_states(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "simulate", "--field", "0.001/(x-0.3000001);0",
                            "--q0", "0.5,0", "--p0=-1,0", "--h", "1e-3", "--T", "0.6",
                            "--out", "pole.csv", "--deterministic")
    doc = json.loads(out)
    assert code == 2 and (doc["status"], doc["states"]) == ("aborted-quadrature", 201)
    assert err.startswith("aborted: step 201: segment quadrature did not converge")
    assert len((tmp_path / "pole.csv").read_text().splitlines()) == 1 + 201
    sidecar = json.loads((tmp_path / "pole.transitions.json").read_text())
    assert sidecar["status"] == "aborted-quadrature"
    assert sorted(os.listdir(tmp_path)) == ["pole.csv", "pole.transitions.json"]


def test_a_refused_potential_of_q0_is_named_and_exits_2(tmp_path, capsys, monkeypatch):
    # chart 1's basepoint (1, 1) to q0 crosses the pole: no state can be kept
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "simulate", "--field", "0.001/(x-0.3000001);0",
                            "--q0", "0,0", "--p0", "1,0", "--h", "1e-3", "--T", "0.6",
                            "--out", "pole.csv")
    assert (code, out) == (2, "")
    assert err == ("numeric failure: the potential of q0 = (0.0, 0.0) in chart 1, from its "
                   "basepoint (1.0, 1.0): segment quadrature did not converge: the field may "
                   "vary too fast, or have a singular point that is not declared\n")
    assert os.listdir(tmp_path) == []


def test_render_computes_and_run_writes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1", "--T", "0.1",
            "--out", "run.csv", "--emit-svg", "run.svg", "--deterministic"]
    code, text, files = render(argv)
    assert code == 0 and json.loads(text)["out"] == "run.csv"
    assert list(files) == ["run.csv", "run.transitions.json", "run.svg"]
    assert os.listdir(tmp_path) == []
    assert invoke(capsys, *argv)[:2] == (0, text)
    for path, body in files.items():
        assert (tmp_path / path).read_text() == body


def test_lift_round_trip(tmp_path, capsys):
    out, argv = simulate_args(str(tmp_path))
    invoke(capsys, *argv)
    lifted = os.path.join(tmp_path, "lift.csv")
    code, doc = out_json(
        capsys, "lift", "--traj", out, "--out", lifted, "--deterministic"
    )
    assert code == 0
    assert doc["states"] == 101
    assert doc["sheet_initial"] == 0
    with open(lifted) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "t,u,v,sheet"
    assert len(rows) == 1 + 101
    # u = log r = 0 at the start point (1, 0).
    assert rows[1].split(",")[1] == "0.0"


SPRING_VORTEX = ("-y/(x^2+y^2) - 4*x", "x/(x^2+y^2) - 4*y")


def test_lift_of_a_run_winding_twice_matches_the_cover(tmp_path, capsys):
    out = os.path.join(tmp_path, "spring.csv")
    code, _, _ = invoke(
        capsys, "simulate", "--field", ";".join(SPRING_VORTEX),
        "--singular", "0,0", "--q0", "1,0", "--p0=1.25,-2.9", "--h", "1e-2",
        "--T", "11", "--out", out, "--deterministic",
    )
    assert code == 0
    code, doc = out_json(capsys, "lift", "--traj", out, "--deterministic")
    assert code == 0
    assert doc["sheet_initial"] == 0
    assert doc["sheet_final"] == 2
    field = from_components(*SPRING_VORTEX, singular_points=((0.0, 0.0),))
    tr = simulate(SimConfig(field=field, atlas=quadrant_atlas(), q0=(1.0, 0.0),
                            p0=(1.25, -2.9), h=1e-2, T=11.0))
    assert doc["v_final"] == pytest.approx(lift_trajectory(tr).v[-1], abs=1e-12)


def test_lift_of_a_one_row_trajectory(tmp_path, capsys):
    # The run aborts at step 1, so its CSV holds only the initial state.
    out = os.path.join(tmp_path, "one.csv")
    code, doc = out_json(
        capsys, "simulate", "--field", "vortex", "--q0", "0.0015,0",
        "--p0=-1,0", "--h", "1e-3", "--T", "1", "--out", out, "--deterministic",
    )
    assert code == 2
    assert doc["states"] == 1
    code, doc = out_json(capsys, "lift", "--traj", out, "--deterministic")
    assert code == 0
    assert doc["states"] == 1
    assert doc["sheet_initial"] == doc["sheet_final"] == 0
    assert doc["v_final"] == 0.0


def test_log_continue_command(capsys):
    code, doc = out_json(
        capsys, "log-continue", "--from", "1,0", "--sheet", "0",
        "--path", "circle:0,0,1,3", "--deterministic",
    )
    assert code == 0
    assert doc["sheet"] == 3
    assert doc["value"][0] == pytest.approx(0.0, abs=1e-12)
    assert doc["value"][1] == pytest.approx(3 * TAU, abs=1e-9)


def test_log_continue_refuses_a_sheet_past_the_double_range(capsys):
    for sheet in ("1" + "0" * 400, "-1" + "0" * 308):
        code, out, err = invoke(capsys, "log-continue", "--from", "1,0", "--sheet", sheet,
                                "--path", "poly:1,0;0,1")
        assert (code, out) == (2, "")
        assert "double range" in err
    code, doc = out_json(capsys, "log-continue", "--from", "1,0", "--sheet", str(2**62),
                         "--path", "poly:1,0;0,1", "--deterministic")
    assert code == 0 and doc["sheet"] == 2**62
    assert doc["value"][1] == math.pi / 2 + TAU * 2**62


def test_verify_single_check(capsys):
    code, out, _ = invoke(capsys, "verify", "--only", "1", "--deterministic")
    assert code == 0
    assert "[ 1] PASS" in out


def test_verify_prints_each_checks_seconds_against_its_budget_on_stderr(capsys):
    code, out, err = invoke(capsys, "verify", "--only", "1", "--only", "3", "--deterministic")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed" and " s (budget " not in out
    lines = err.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"\[ 1\] work-winding +\d+\.\d{3} s \(budget 1 s\)", lines[0])
    assert re.fullmatch(r"\[ 3\] cocycle +\d+\.\d{3} s \(budget inf s\)", lines[1])


def test_no_command_prints_usage(capsys):
    code, _, err = invoke(capsys)
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("field, singular", [
    ("-y/((x-2)^2+y^2);(x-2)/((x-2)^2+y^2)", "2,0"),
    ("-y/(x^2+y^2)-y/((x-3)^2+y^2);x/(x^2+y^2)+(x-3)/((x-3)^2+y^2)", "0,0;3,0"),
])
def test_classify_follows_the_punctures(capsys, field, singular):
    code, doc = out_json(capsys, "classify", f"--field={field}", "--singular", singular,
                         "--deterministic")
    assert code == 0
    assert doc["classification"] == "closed-not-exact"


def test_a_puncture_on_a_custom_chart_wall_is_an_atlas_fault(tmp_path, capsys):
    charts = [{"id": cid, "halfplanes": [list(h) for h in hp], "basepoint": list(bp)}
              for cid, hp, bp in (
                  (1, ((1, 0, 0), (0, 1, 0)), (1, 1)), (2, ((-1, 0, 0), (0, 1, 0)), (-1, 1)),
                  (3, ((-1, 0, 0), (0, -1, 0)), (-1, -1)), (4, ((1, 0, 0), (0, -1, 0)), (1, -1)))]
    cfg_path = os.path.join(tmp_path, "quadrants.json")
    with open(cfg_path, "w") as fh:
        json.dump({"atlas": {"charts": charts}}, fh)
    code, out, err = invoke(capsys, "classify", "--field=-y/((x-2)^2+y^2);(x-2)/((x-2)^2+y^2)",
                            "--singular", "2,0", "--config", cfg_path)
    assert code == 1 and out == ""
    assert "singular point (2.0, 0.0) lies inside the overlap of charts (1, 4)" in err


@pytest.mark.parametrize("command", ["classify", "cocycle", "potentials", "simulate"])
def test_a_chart_holding_the_vortex_exits_1(tmp_path, capsys, command):
    # x >= -5 holds the puncture, so no potential on it is single-valued;
    # this atlas once classified the vortex as exact
    cfg_path = os.path.join(tmp_path, "one_chart.json")
    with open(cfg_path, "w") as fh:
        json.dump({"field": "vortex", "atlas": {"charts": [
            {"id": 1, "halfplanes": [[1, 0, -5]], "basepoint": [1, 1]}]}}, fh)
    run_flags = ("--q0", "1,0", "--p0", "0,1") if command == "simulate" else ()
    code, out, err = invoke(capsys, command, "--config", cfg_path, *run_flags)
    assert code == 1 and out == ""
    assert "singular point (0.0, 0.0) lies inside chart 1" in err


# the seven commands that read a scenario, and the five that read none,
# each with the flags it requires
SCENARIO_COMMANDS = {"check-closed": (), "work": ("--path", "circle:0,0,1"), "potentials": (),
                     "cocycle": (), "classify": (), "bundle": (),
                     "simulate": ("--q0", "1,0", "--p0", "0,1")}
OTHER_COMMANDS = {"forms-table": (), "winding": ("--path", "circle:0,0,1"),
                  "lift": ("--traj", "t.csv"),
                  "log-continue": ("--from", "1,0", "--path", "poly:1,0;0,1"),
                  "verify": ("--only", "1")}


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_a_scenario_command_reads_its_config(tmp_path, capsys, command):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"field": "bogus"}))
    code, out, err = invoke(capsys, command, *SCENARIO_COMMANDS[command], "--config", str(cfg_path))
    assert (code, out) == (1, "")
    assert err == "invalid input: field must be 'vortex', 'zero', or 'fx;fy' expressions, " \
                  "got 'bogus'\n"


@pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
def test_a_command_that_reads_no_scenario_refuses_config(tmp_path, capsys, command):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"field": "vortex"}))
    code, out, err = invoke(capsys, command, *OTHER_COMMANDS[command], "--config", str(cfg_path))
    assert (code, out) == (1, "")
    assert err == f"invalid input: unrecognized arguments: --config {cfg_path}\n"
    assert os.listdir(tmp_path) == ["c.json"]


def test_momenta_past_the_double_range_report_a_null_energy(capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the kinetic energy overflows quietly
        code, out, err = invoke(capsys, "simulate", "--field", "vortex", "--q0", "1,0",
                                "--p0", "1e200,1e200", "--h", "1e-3", "--T", "0.01",
                                "--deterministic")
    assert code == 2
    doc = json.loads(out, parse_constant=refuse)
    assert doc["status"] == "aborted-evaluation" and doc["E_local_final"] is None
    assert err.startswith("aborted: field evaluation failed at (1e+197, 1e+197)")


def test_work_near_the_double_range_is_finite_or_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow on the way to a finite answer
        code, doc = out_json(capsys, "work", "--field", "1e308;0",
                             "--path", "poly:0,0;1e-8,0", "--deterministic")
    assert code == 0 and doc["work"] == pytest.approx(1e300, rel=1e-12)
    for path in ("poly:0,0;10,0", "circle:0,0,10"):
        code, out, err = invoke(capsys, "work", "--field", "1e308;0", "--path", path)
        assert code == 2 and out == ""
        assert err.startswith("numeric failure: non-finite")


def test_an_undeclared_pole_on_a_polyline_exits_2(capsys):
    code, out, err = invoke(capsys, "work", "--field", "1/(x-1/3);0", "--path", "poly:0,0;1,0")
    assert code == 2 and out == ""
    assert err.startswith("numeric failure: segment quadrature did not converge")


@pytest.mark.parametrize("argv", [
    ("work", "--field", "x+(2-2)^-1;0", "--path", "poly:0,0;1,1"),
    ("work", "--field", "vortex", "--path", "param:(1-1)^-1+t,t,0,1"),
    ("check-closed", "--field", "0;(2-2)^-1*x*y"),
])
def test_a_constant_that_python_floats_refuse_exits_2(capsys, argv):
    # the numpy closures fold constant subtrees in Python floats, which
    # raise where numpy would give inf
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("numeric failure: ") and err.endswith(
        "failed: 0.0 cannot be raised to a negative power\n")


def test_a_kink_on_a_polyline_is_integrated(capsys):
    # |x| vanishes at its kink, 3/13 of the way along: no panel around it
    # ever shrinks its tail relative to its own scale
    code, out, _ = invoke(capsys, "work", "--field", "abs(x);0", "--path", "poly:-0.3,0;1,0")
    assert code == 0 and json.loads(out)["work"] == pytest.approx(0.545, abs=1e-12)


def test_non_finite_singular_points_exit_1(capsys):
    code, out, err = invoke(capsys, "classify", "--field", "1;0", "--singular", "nan,0")
    assert code == 1 and out == ""
    assert "singular points must be finite" in err
