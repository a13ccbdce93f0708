"""The benchmark's tracer wraps library entry points by name.

perfbench/tracing.py replaces a fixed list of functions and methods with
counting wrappers; one it cannot find by name fails its install().  This
installs it around a few calls, so deleting or renaming a wrapped entry
point fails here as well as in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from locmech import atlas, dynamics, fields

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_counts_and_uninstalls():
    tracing = _tracing_module()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.ENTRY_POINTS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ps = atlas.PotentialSet.from_field(fields.vortex(), atlas.quadrant_atlas())
        miss = ps.value(1, (2.0, 0.5))
        assert ps.value(1, (2.0, 0.5)) == miss
        tr = dynamics.simulate(dynamics.SimConfig(field=ps.field, atlas=ps.atlas,
                                                  q0=(1.0, 0.0), p0=(0.0, 1.0), T=0.01))
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert (stats["atlas.potential.calls"], stats["atlas.potential.cache_hits"]) == (2, 1)
    assert stats["fields.segment_work.calls"] == 1
    assert stats["dynamics.simulate.calls"] == 1
    assert stats["dynamics.states"] == tr.n_states == 11
    # the leapfrog loop evaluates the force inline: eval_at checks q0 alone
    assert stats["fields.eval_at.calls"] == 1
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
