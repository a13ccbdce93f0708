"""The benchmark's output checks read locmech's result fields by name.

perfbench/checks.py compares every answer the benchmark times with the
closed forms in perfbench/oracle.py: trajectory columns, transitions,
ledger entries, lift arrays and sheets, the cover-energy report and
cocycle values.  This runs those checks on one vortex run that hops a
chart, on the quadrant cocycle and on one round of the queries workload,
so deleting or reshaping a field they read, or a call they make, fails
here as well as in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from locmech import atlas, cover, dynamics, fields

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)    # checks.py imports oracle by name
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_checks_pass_on_a_run_that_hops_a_chart(monkeypatch):
    oracle = _load("oracle", monkeypatch)
    checks = _load("checks", monkeypatch)
    fam, q0, p0 = oracle.Family(1.0), (1.0, -0.2), (0.0, 1.0)
    ps = atlas.PotentialSet.from_field(fields.vortex(), atlas.quadrant_atlas())
    cc = atlas.cocycle(ps)
    tr = dynamics.simulate(dynamics.SimConfig(field=ps.field, atlas=ps.atlas, q0=q0, p0=p0,
                                              T=1.0), ps)
    assert [(t.from_chart, t.to_chart) for t in tr.transitions] == [(4, 1)]
    audit = checks.Audit()
    checks.trajectory(tr, fam, q0, p0, "completed", audit)
    checks.ledger(tr, dynamics.energy_ledger(tr, ps, cc), fam, audit)
    lifted = cover.lift_trajectory(tr)
    checks.lift(tr, lifted, cover.cover_energy(tr, lifted), fam, audit)
    checks.cocycle(cc, fam, audit)


def test_one_queries_round_of_the_benchmark_passes_its_checks(monkeypatch, tmp_path):
    # every op of one seed-5 round, checked as the benchmark checks it: among
    # them the work calls that pass a rule positionally, held to 1e-7 on circles
    _load("oracle", monkeypatch)
    checks = _load("checks", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    inputs = workloads.queries_inputs(5)
    state = workloads.queries_setup(inputs)
    ops = workloads.queries_ops(state, inputs, str(tmp_path), state["fam"])
    assert {"work_circle", "work_polyline"} <= {op.kind for op in ops}
    for op in ops:
        op.check(op.call(), checks.Audit())
