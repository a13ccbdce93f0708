"""locmech benchmark: one seeded workload, timed from outside the program.

    python3 perfbench/run.py --workload dynamics|queries \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  One process, one client, closed loop: each round sets up (field,
atlas, PotentialSet, cocycle) and then issues the workload's batch of
operations one after the other.  Rounds repeat while the next one, if it
takes as long as the last, ends within --seconds.
Every answer is checked against the closed forms in oracle.py after the
batch; answers must also be bitwise identical between rounds.

The first round warms up and is not timed.  --trace 0 reports the
end-to-end metrics as medians and percentiles over the other rounds (see
end_to_end).  --trace 1 alternates traced and untraced rounds after the
warm-up, at least two traced, and reports the per-layer metrics of the
traced ones, checking that their counts repeat exactly; the untraced
rounds give trace.overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every check
passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_PROBES = 9
MIN_TRACED_ROUNDS = 2
# One single-threaded process (no BLAS pools), and a fixed malloc policy:
# glibc otherwise moves its mmap threshold as the process runs, and the same
# call then runs 2-4x slower or faster depending on what ran before it.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _import_seconds():
    """Median over fresh interpreters of the time `import locmech` takes."""
    code = ("import time; t = time.perf_counter(); import locmech; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git (the
    benchmark also runs in exported trees that have no .git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(wl, inputs, workdir, tracer):
    """Set up, run the batch, then check every answer. Returns a dict."""
    from checks import Audit, CheckFailed

    clock = time.perf_counter
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = clock()
        state = wl.setup(inputs)
        setup_s = clock() - t0
        fam = wl.family(state)
        ops = wl.ops(state, inputs, workdir, fam, tracer)
        answers, latencies = [], []
        start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            t = clock()
            try:
                answers.append((op.call(), None))
            except Exception as exc:   # an unexpected raise counts as a failed op
                answers.append((None, exc))
            latencies.append(clock() - t)
        wall_s = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures, max_err = [], 0.0
    digest = Audit()
    try:
        audit = Audit()
        wl.check_setup(state, fam, audit)
        digest.record(audit.digest())
    except CheckFailed as exc:
        failures.append(f"setup: {exc}")
    for i, (op, (answer, exc)) in enumerate(zip(ops, answers)):
        audit = Audit()
        try:
            if exc is not None:
                raise CheckFailed(f"raised {type(exc).__name__}: {exc}")
            op.check(answer, audit)
        except CheckFailed as err:
            failures.append(f"op {i} ({op.kind}): {err}")
            continue
        max_err = max(max_err, audit.max_abs_err)
        digest.record(audit.digest())
    return {
        "setup_s": setup_s, "wall_s": wall_s, "latencies": latencies,
        "kinds": [op.kind for op in ops], "states": sum(op.states for op in ops),
        "attempted": len(ops) + 1, "failures": failures, "max_abs_err": max_err,
        "digest": digest.digest(),
        "stats": dict(tracer.stats) if tracer is not None else None,
        "spans": list(tracer.spans) if tracer is not None else None,
    }


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds, import_s):
    """Medians over rounds of identical work.  Other tenants of a shared
    machine change its speed by 20-40% in spells of a second to minutes; a
    median over every repeat in the run averages those spells, where each
    operation's fastest repeat rests on the one fastest spell the run
    happened to catch (with six rounds in a run, that spread up to three
    times as much between runs)."""
    latencies = [t for r in rounds for t in r["latencies"]]
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    work = rounds[0]["states"] or len(rounds[0]["latencies"])
    return {
        "setup_s": import_s + statistics.median(r["setup_s"] for r in rounds),
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * _percentile(latencies, 90),
        "throughput_per_s": work / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _is_count(key):
    return not (key.endswith(".s") or key.endswith(".self_s"))


def per_layer(traced, untraced, kinds):
    """Counts from the traced rounds (identical by check), times as the best
    over traced rounds."""
    from tracing import LAYERS

    keys = set().union(*(r["stats"] for r in traced))
    stats = {}
    for key in keys:
        vals = [r["stats"].get(key, 0.0) for r in traced]
        stats[key] = vals[0] if _is_count(key) else min(vals)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (stats.get(f"{layer}.calls", 0.0), "count")
        out[f"{layer}.s"] = (stats.get(f"{layer}.s", 0.0), "s")
        out[f"{layer}.errors"] = (stats.get(f"{layer}.errors", 0.0), "count")
    out["dynamics.simulate.self_s"] = (stats.get("dynamics.simulate.self_s", 0.0), "s")
    for key in ("fields.eval_array.points", "atlas.potential.cache_hits", "dynamics.steps",
                "dynamics.states", "dynamics.transitions", "cli.bytes_written"):
        out[key] = (stats.get(key, 0.0), "bytes" if key.endswith("bytes_written") else "count")
    states = stats.get("dynamics.states", 0.0)
    out["fields.nodes_per_state"] = (
        stats.get("fields.eval_array.points_in_simulate", 0.0) / states if states else 0.0,
        "count")
    calls = stats.get("atlas.potential.calls", 0.0)
    out["atlas.potential.hit_ratio"] = (
        stats.get("atlas.potential.cache_hits", 0.0) / calls if calls else 0.0, "ratio")
    # the check-5 scenario's own node count: ROADMAP item 1 quotes ~2600 per state
    check5 = [s for s in traced[0]["spans"]
              if s[0] == "dynamics.simulate" and kinds[s[4]] == "check5"]
    points = sum(s[5] for s in check5)
    states = sum(s[6] for s in check5)
    out["fields.nodes_per_state.check5"] = (points / states if states else 0.0, "count")
    out["trace.overhead"] = (min(r["wall_s"] for r in traced)
                             / min(r["wall_s"] for r in untraced) - 1.0, "ratio")
    return out


def _write_spans(path, rounds):
    rows = []
    for n, r in enumerate(rounds):
        for span in r["spans"] or ():
            name, start, end, parent, op = span[:5]
            rows.append({"round": n, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op})
    with open(path, "w") as fh:
        json.dump(rows, fh)


def main():
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC, "locmech", "__init__.py")):
        _fail(f"no locmech sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    sys.path.insert(0, SRC)

    import numpy as np
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "commit": _git_commit(), "loadavg_before": os.getloadavg(),
    }
    inputs = wl.inputs(args.seed)
    import_s = _import_seconds()
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    # round 0 warms up (heap growth, first-call costs): checked, not timed;
    # with --trace 1 the rounds after it alternate traced, untraced
    rounds = []
    min_rounds = 2 * MIN_TRACED_ROUNDS if tracer else 2
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            start = time.perf_counter()
            rounds.append(run_round(wl, inputs, workdir, tracer if traced else None))
            now = time.perf_counter()
            # start no round that would end past --seconds
            if now - wall0 + (now - start) > args.seconds and len(rounds) >= min_rounds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(wall_s=time.perf_counter() - wall0, cpu_s=_cpu_seconds() - cpu0,
                loadavg_after=os.getloadavg(), rounds=len(rounds), import_s=import_s)

    failures = [f for r in rounds for f in r["failures"]]
    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("answers differ between rounds (traced and untraced included)")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    report = {
        "ops_per_round": len(rounds[0]["latencies"]), "timed_rounds": len(rounds) - 1,
        "states_per_round": rounds[0]["states"], "fail_ratio": failed / attempted,
        "max_abs_err": max(r["max_abs_err"] for r in rounds),
        "digest": rounds[0]["digest"],
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
    }
    if tracer is None:
        values = end_to_end(rounds[1:], import_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.update({k: v for k, v in values.items() if k != "throughput_per_s"})
        if rounds[0]["states"]:
            report["states_per_s"] = values["throughput_per_s"]
        if len(rounds[0]["latencies"]) < 100:
            report.pop("op_p90_ms")
    else:
        traced_rounds, plain = rounds[1::2], rounds[2::2]
        counts = [{k: v for k, v in r["stats"].items() if _is_count(k)} for r in traced_rounds]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
        layer = per_layer(traced_rounds, plain, rounds[1]["kinds"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
        report.update(wall_s=min(r["wall_s"] for r in traced_rounds), counts=counts[0])
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        _write_spans(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json"),
                     traced_rounds)

    for f in failures[:10]:
        print(f"FAIL {f}", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    units = dict(END_TO_END_UNITS, states_per_s="1/s", fail_ratio="ratio", max_abs_err="1")
    for key in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "states_per_s",
                "fail_ratio", "peak_rss_mb", "max_abs_err"):
        if key in report:
            print(f"{args.workload:<10} {key:<14} {report[key]:.6g} {units[key]}")
    print(json.dumps({"meta": meta, "report": report}, sort_keys=True))
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
