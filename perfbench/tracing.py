"""Per-layer tracing from outside the program.

Tracer.install() replaces locmech's public entry points with wrappers and
uninstall() puts the originals back.  A module-level function is rebound in
every module namespace that holds it (`atlas` imports `segment_work`, `cli`
imports `simulate`, the package re-exports both), otherwise calls through
those names would go uncounted; methods are replaced on their class.

Hot per-step calls are kept as a count plus summed time.  Coarser calls are
also kept as spans (name, start, end, parent, op id) in memory, written out
when the benchmark ends.  Self time is a call's duration minus the time of
the wrapped calls made inside it.  Every wrapper counts the exceptions its
call raised as `<layer>.errors`.
"""

import sys
import time
from collections import defaultdict

from locmech import atlas, bundle, cli, cover, dynamics, exprlang, fields, forms3

# (owner, attribute, layer, kind); kind "hot" records counts and time only
ENTRY_POINTS = (
    (fields.FieldOneForm, "eval_at", "fields.eval_at", "hot"),
    (fields.FieldOneForm, "eval_array", "fields.eval_array", "hot"),
    (atlas.Atlas, "chart_for", "atlas.chart_for", "hot"),
    (atlas.PotentialEvaluator, "raw", "atlas.potential", "hot"),
    (fields, "segment_work", "fields.segment_work", "hot"),
    (exprlang.ScalarExpr, "_compile", "exprlang.compile", "hot"),
    (exprlang, "parse_expr", "exprlang.parse", "hot"),
    (fields, "work", "fields.work", "span"),
    (fields, "winding_number", "fields.winding_number", "span"),
    (fields, "is_closed", "fields.is_closed", "span"),
    (fields, "classify", "fields.classify", "span"),
    (atlas, "cocycle", "atlas.cocycle", "span"),
    (atlas, "exactness_test", "atlas.exactness_test", "span"),
    (bundle, "transitions", "bundle", "span"),
    (bundle, "holonomy", "bundle", "span"),
    (bundle, "is_trivial", "bundle", "span"),
    (cover, "lift_path", "cover.lift_path", "span"),
    (cover, "continue_log", "cover.continue_log", "span"),
    (cover, "lift_trajectory", "cover.lift_trajectory", "span"),
    (cover, "cover_energy", "cover.cover_energy", "span"),
    (dynamics, "simulate", "dynamics.simulate", "span"),
    (dynamics, "energy_ledger", "dynamics.energy_ledger", "span"),
    (cli, "run", "cli.run", "span"),
) + tuple((forms3, name, "forms3", "span") for name in
          ("flat", "sharp", "hodge", "wedge", "ext_d", "grad", "curl", "div"))

LAYERS = sorted({layer for _, _, layer, _ in ENTRY_POINTS})


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.spans = []
        self.op_id = None
        self._stack = []          # [layer, child seconds] of the calls in progress
        self._in_simulate = 0
        self._saved = []

    def add(self, key, value):
        self.stats[key] += value

    def reset(self):
        self.stats = defaultdict(float)
        self.spans = []
        self.op_id = None

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "locmech" or name.startswith("locmech.")]
        for owner, attr, layer, kind in ENTRY_POINTS:
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, kind, original, attr)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer, kind, fn, attr):
        tracer, stack, clock = self, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stats, spans = tracer.stats, tracer.spans
            before = tracer._before(attr, args)
            frame = [layer, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[layer + ".errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                stats[layer + ".calls"] += 1
                stats[layer + ".s"] += dt
                stats[layer + ".self_s"] += dt - frame[1]
                if kind == "span":
                    spans.append((layer, t0, t1, parent, tracer.op_id))
                if attr == "simulate":
                    tracer._in_simulate -= 1
            tracer._after(attr, args, out, before)
            return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        return wrapper

    def _before(self, attr, args):
        if attr == "eval_array":
            n = len(args[1])
            self.stats["fields.eval_array.points"] += n
            if self._in_simulate:
                self.stats["fields.eval_array.points_in_simulate"] += n
        elif attr == "raw":
            return len(args[0]._cache)
        elif attr == "simulate":
            self._in_simulate += 1
            return self.stats["fields.eval_array.points_in_simulate"]
        return None

    def _after(self, attr, args, out, before):
        if attr == "raw":
            if len(args[0]._cache) == before:
                self.stats["atlas.potential.cache_hits"] += 1
        elif attr == "simulate":
            self.stats["dynamics.states"] += out.n_states
            self.stats["dynamics.steps"] += out.n_states - 1
            self.stats["dynamics.transitions"] += len(out.transitions)
            points = self.stats["fields.eval_array.points_in_simulate"] - before
            # last span is this call's own: attach its node count
            self.spans[-1] += (points, out.n_states)
