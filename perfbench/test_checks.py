"""Negative tests of the benchmark's output checks: each must reject a
corrupted answer, so a zero fail_ratio means the answers were right.

    python3 -m pytest perfbench -q
"""

import copy
import io
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import locmech as lm  # noqa: E402
from locmech import cli  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

VORTEX = oracle.Family(1.0)


def _passes(check, answer):
    check(answer, checks.Audit())


def _rejects(check, answer):
    with pytest.raises(checks.CheckFailed):
        check(answer, checks.Audit())


@pytest.fixture(scope="module")
def close_ops():
    wl = workloads.WORKLOADS["dynamics"]
    inputs = wl.inputs(5)
    state = wl.setup(inputs)
    ops = workloads.close_pass_ops(state, inputs["close"][:12], VORTEX)
    return state, [(op, op.call()) for op in ops]


@pytest.fixture(scope="module")
def query_ops():
    wl = workloads.WORKLOADS["queries"]
    inputs = wl.inputs(5)
    state = wl.setup(inputs)
    # in batch order: later ops use fields built by earlier ones
    return [(op, op.call()) for op in wl.ops(state, inputs, None, state["fam"])]


def test_potential_shifted_by_1e_6_is_rejected(close_ops):
    op, tr = close_ops[1][0]
    _passes(op.check, tr)
    bad = copy.copy(tr)
    bad.V = tr.V.copy()
    bad.V[len(bad.V) // 2] += 1e-6
    _rejects(op.check, bad)


def test_dropped_chart_transition_is_rejected(close_ops):
    op, tr = next((op, tr) for op, tr in close_ops[1] if tr.transitions)
    _passes(op.check, tr)
    bad = copy.copy(tr)
    bad.transitions = tr.transitions[1:]
    _rejects(op.check, bad)


def test_wrong_abort_status_is_rejected(close_ops):
    op, tr = close_ops[1][0]
    bad = copy.copy(tr)
    bad.status = "aborted-singularity" if tr.completed else "completed"
    _rejects(op.check, bad)


def test_cocycle_entry_off_by_1e_6_is_rejected(close_ops):
    state = close_ops[0]
    checks.cocycle(state["cc"], VORTEX, checks.Audit())
    bad = copy.copy(state["cc"])
    bad.entries = dict(state["cc"].entries)
    bad.entries[(1, 2)] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.cocycle(bad, VORTEX, checks.Audit())


@pytest.mark.parametrize("kind", ["winding_polyline", "winding_circle"])
def test_winding_off_by_one_is_rejected(query_ops, kind):
    op, answer = next((op, a) for op, a in query_ops if op.kind == kind)
    _passes(op.check, answer)
    _rejects(op.check, lm.WindingResult(answer.number + 1, answer.residual))


@pytest.mark.parametrize("kind", ["value_miss", "work_polyline", "work_circle"])
def test_value_off_by_1e_6_is_rejected(query_ops, kind):
    # the first op of each kind uses simpson, whose tolerance is below 1e-6
    op, answer = next((op, a) for op, a in query_ops if op.kind == kind)
    _passes(op.check, answer)
    _rejects(op.check, answer + 1e-6)


def test_wrong_continued_sheet_is_rejected(query_ops):
    op, germ = next((op, a) for op, a in query_ops if op.kind == "continue_log")
    _passes(op.check, germ)
    _rejects(op.check, lm.LogGerm(germ.anchor, germ.sheet + 1))


def test_wrong_classification_is_rejected(query_ops):
    op, label = next((op, a) for op, a in query_ops if op.kind == "classify")
    _passes(op.check, label)
    _rejects(op.check, "exact" if label != "exact" else "closed-not-exact")


def test_edited_csv_row_is_rejected(tmp_path):
    csv = str(tmp_path / "traj.csv")
    with redirect_stdout(io.StringIO()):
        code = cli.run(["simulate", "--field", "vortex", "--q0", "1,0", "--p0", "0,1",
                        "--h", "1e-2", "--T", "1.0", "--out", csv, "--deterministic"])
    assert code == 0
    cfg = lm.SimConfig(field=lm.vortex(), atlas=lm.quadrant_atlas(), q0=(1.0, 0.0),
                       p0=(0.0, 1.0), h=1e-2, T=1.0)
    reference = lm.simulate(cfg)
    with open(csv) as fh:
        text = fh.read()
    checks.csv_file(text, VORTEX, checks.Audit(), reference)
    lines = text.splitlines()
    row = lines[40].split(",")
    row[6] = repr(float(row[6]) + 1e-12)           # V, within V_TOL of the closed form
    edited = "\n".join(lines[:40] + [",".join(row)] + lines[41:]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.csv_file(edited, VORTEX, checks.Audit(), reference)
    dropped = "\n".join(lines[:40] + lines[41:]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.csv_file(dropped, VORTEX, checks.Audit(), reference)


def test_raising_op_counts_as_failed(tmp_path):
    def boom():
        raise ValueError("boom")

    wl = workloads.Workload(
        lambda seed: {}, lambda inputs: {"cc": None},
        lambda state, inputs, workdir, fam, tracer: [
            workloads.Op("ok", lambda: 1, lambda a, audit: None),
            workloads.Op("boom", boom, lambda a, audit: None)],
        lambda state: VORTEX, check_setup=lambda state, fam, audit: None)
    result = run.run_round(wl, {}, str(tmp_path), None)
    assert result["attempted"] == 3
    assert len(result["failures"]) == 1 and "boom" in result["failures"][0]
