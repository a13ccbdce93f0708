"""The benchmark's output checks read locmech's result fields by name.

perfbench/checks.py compares every answer the benchmark times with the
closed forms in perfbench/oracle.py: trajectory columns, transitions,
ledger entries, lift arrays and sheets, the cover-energy report and
cocycle values.  This runs those checks on one vortex run that hops a
chart and on the quadrant cocycle, so deleting or reshaping a field they
read fails here as well as in a benchmark run.
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
