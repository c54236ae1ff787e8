"""quadrobin benchmark: one closed-loop client running one named workload.

    python3 perfbench/run.py --workload corner-m128 --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` (why each exists is recorded in
``BENCHMARK.json`` and ``README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics: ops_per_s, latency_p50_ms, and peak_rss_mb and setup_s
(medians over several cold starts in fresh interpreters), plus
latency_p90_ms, the loop process's peak memory and fail_ratio in the
printed report.  With ``--trace 1`` every operation is
run untraced and then traced at the layer boundaries, and the run reports the
per-layer metrics and the tracing overhead; layers the named workload never
reaches are measured on a few operations of the other workloads.

Every output is checked outside the timed region.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit status is 0 only if every check passed.  A fuller record (environment,
sample counts, problems) and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".bench_out"

COLD_RUNS = 3          # cold starts per run; setup_s is their median
COEFFICIENT_RUNS = 3   # cold starts timing the first coefficient-table call
COMPANION_OPS = 2      # operations per companion workload in a traced run
COUNT_OPS = 8          # a traced run reads its counts on its first COUNT_OPS operations
COMPANION_ORDER = ("sweep-m64", "sensitivity-m64", "theorem3")
CHILD_TIMEOUT_S = 120


def _ms(name):
    return (name, "ms", lambda spans, st: 1e3 * statistics.fmean(st[s.id] for s in spans))


def _count(name, key, unit="count", agg=statistics.fmean):
    return (name, unit, lambda spans, st: float(agg(s.counts[key] for s in spans)))


# per-layer metric -> (span it is read from, unit, value from spans and self times);
# counts are read on the first COUNT_OPS operations only, so they repeat exactly
# for a given seed however fast the run is
LAYER_METRICS = {
    "mesh.build_ms": _ms("mesh.build"),
    "mesh.dof": _count("mesh.build", "dof"),
    "assembly.transformed_ms": _ms("assembly.transformed"),
    "assembly.nnz_K": _count("assembly.transformed", "nnz_K"),
    "assembly.boundary_layer_warnings": _count("assembly.transformed", "warnings", agg=sum),
    "solver.coarse_ms": _ms("solver.coarse"),
    "solver.solve_lowest_ms": _ms("solver.solve_lowest"),
    "solver.shift_walk_steps": _count("solver.solve_lowest", "steps"),
    "solver.shift_slack": _count("solver.solve_lowest", "slack", unit="ratio"),
    "solver.fallback_ratio": (
        "solver.solve_lowest", "ratio",
        lambda spans, st: statistics.fmean(
            s.counts["method"] != "lanczos-shift-invert" for s in spans),
    ),
    "sensitivity.solve_ms": _ms("sensitivity.solve"),
    "sensitivity.workspace_ms": _ms("sensitivity.workspace"),
    "sensitivity.derivative_assembly_ms": _ms("sensitivity.derivative_assembly"),
    "sensitivity.gradient_ms": _ms("sensitivity.gradient"),
    "sensitivity.bordered_solve_ms": _ms("sensitivity.bordered_solve"),
    "sensitivity.hessian_rest_ms": _ms("sensitivity.hessian_rest"),
    "geometry.hausdorff_ms": _ms("geometry.hausdorff"),
    "certificates.threshold_conditions_ms": _ms("certificates.threshold_conditions"),
    "certificates.certify_all_ms": _ms("certificates.certify_all"),
    "certificates.parameter_thresholds_ms": _ms("certificates.parameter_thresholds"),
    "theorem3.useful_ratio": _count("geometry.hausdorff", "beyond", unit="ratio"),
}


def environment() -> dict:
    env = {var: os.environ.get(var) for var in bootstrap.THREAD_VARS}
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["python"] = platform.python_version()
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["git_commit"] = env["git_dirty"] = None
    git_dir = bootstrap.ROOT / ".git"
    if git_dir.exists():
        git = ["git", "--no-optional-locks", f"--git-dir={git_dir}",
               f"--work-tree={bootstrap.ROOT}"]
        try:
            head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if head.returncode == 0:
                env["git_commit"] = head.stdout.strip()
                env["git_dirty"] = bool(status.stdout.strip())
    return env


def cold_start(workload: str, seed: int, case: int, coefficients: bool) -> dict:
    """One fresh-interpreter start of the workload on one input (see cold.py)."""
    cmd = [sys.executable, str(HERE / "cold.py"), "--workload", workload, "--seed", str(seed),
           "--case", str(case)]
    if coefficients:
        cmd.append("--coefficients")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=bootstrap.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"cold start of {workload} failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def attempt(tally, label, fn, check):
    """Run fn once; record it as failed if it raises or its output fails check.

    Returns (output or None, seconds spent in fn).
    """
    t = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # one failed operation must not end the run
        dt = time.perf_counter() - t
        tally.record(label, [f"raised {exc!r}"])
        return None, dt
    dt = time.perf_counter() - t
    return (out if tally.record(label, check(out)) else None), dt


def run_untraced(wl, seed, seconds, tally):
    from stats import percentile

    # each cold start takes another input, so the median does not hang on one shape
    cold = [cold_start(wl.name, seed, k, False) for k in range(COLD_RUNS)]
    setups = [c["setup_s"] for c in cold]
    peaks = [c["peak_rss_mb"] for c in cold]
    ctx = wl.setup(seed)
    cases = ctx.cases
    # the first operation is untimed; it carries the once-per-run cross-checks
    attempt(tally, "op 0", lambda: wl.op(ctx, cases[0]),
            lambda out: wl.check(ctx, cases[0], out, True))
    latencies, busy = [], 0.0
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        out, dt = attempt(tally, f"op {i}", lambda: wl.op(ctx, case),
                          lambda out: wl.check(ctx, case, out, False))
        busy += dt
        if out is not None:
            latencies.append(dt)
        out = None  # the client keeps no result, so loop_peak_rss_mb holds one operation
        i += 1
    if not latencies:
        raise SystemExit("no operation completed")
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s", len(latencies)),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms", len(latencies)),
        # the peak of one cold run: the peak of the long-running loop is a
        # maximum over whichever inputs the run reached, and one input with
        # a large LU fill moved it by a fifth from seed to seed
        "peak_rss_mb": (statistics.median(peaks), "MB", len(peaks)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    p90 = percentile(latencies, 0.9)
    extra = {
        "latency_p90_ms": (None if p90 is None else 1e3 * p90, "ms", len(latencies)),
        "loop_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MB", 1),
        "fail_ratio": (tally.fail_ratio, "ratio", tally.attempted),
        "cold_starts": cold,
    }
    return metrics, extra


def traced_loop(wl, ctx, tracer, tally, stop):
    """Each operation untraced, then traced (order alternating), until stop(i).

    Returns (untraced seconds, traced seconds) of the operations that passed.
    """
    untraced, traced = [], []
    i = 0
    while not stop(i):
        case = ctx.cases[i % len(ctx.cases)]
        tracer.op = i

        def plain():
            return attempt(tally, f"{wl.name} op {i}", lambda: wl.op(ctx, case),
                           lambda out: wl.check(ctx, case, out, False))

        def spanned():
            def op():
                with tracer.span("op"):
                    return wl.traced_op(ctx, case, tracer)
            return attempt(tally, f"{wl.name} traced op {i}", op,
                           lambda out: wl.check(ctx, case, out, False))

        if i % 2 == 0:
            (a, ta), (b, tb) = plain(), spanned()
        else:
            (b, tb), (a, ta) = spanned(), plain()
        if a is not None and b is not None:
            if wl.same(a, b):
                untraced.append(ta)
                traced.append(tb)
            else:
                tally.fail_recorded(f"{wl.name} traced op {i}",
                                    "traced decomposition does not reproduce the untraced result")
        i += 1
    tracer.op = None
    return untraced, traced


def run_traced(wl, seed, seconds, tally):
    from tracing import Tracer
    from workloads import WORKLOADS

    first_calls = [cold_start(wl.name, seed, k, True)["coefficients_first_call_s"]
                   for k in range(COEFFICIENT_RUNS)]
    tracer = Tracer()
    tracer.workload = wl.name
    ctx = wl.setup(seed, tracer)
    cases = ctx.cases
    attempt(tally, f"{wl.name} op 0", lambda: wl.op(ctx, cases[0]),
            lambda out: wl.check(ctx, cases[0], out, True))
    start = time.perf_counter()
    untraced, traced = traced_loop(
        wl, ctx, tracer, tally,
        lambda i: i >= COUNT_OPS and time.perf_counter() - start >= seconds)
    if not traced:
        raise SystemExit("no traced operation completed")

    sources = [wl.name]

    def missing():
        have = {(s.workload, s.name) for s in tracer.spans}
        return [m for m, (span, _, _) in LAYER_METRICS.items()
                if not any((w, span) in have for w in sources)]

    for name in COMPANION_ORDER:
        if name in sources or not missing():
            continue
        other = WORKLOADS[name]
        if not any(LAYER_METRICS[m][0] in other.spans for m in missing()):
            continue
        tracer.workload = name
        octx = other.setup(seed, tracer)
        attempt(tally, f"{name} op 0", lambda: other.op(octx, octx.cases[0]),
                lambda out: other.check(octx, octx.cases[0], out, False))
        traced_loop(other, octx, tracer, tally, lambda i: i >= COMPANION_OPS)
        sources.append(name)
    if missing():
        raise SystemExit(f"no spans for {missing()}")

    self_times = tracer.self_times()
    metrics, source = {}, {}
    for metric, (span, unit, value) in LAYER_METRICS.items():
        for w in sources:
            spans = [s for s in tracer.spans if s.workload == w and s.name == span]
            if unit != "ms":
                spans = [s for s in spans if s.op is None or s.op < COUNT_OPS]
            if spans:
                metrics[metric] = (value(spans, self_times), unit, len(spans))
                source[metric] = w
                break
    metrics["coefficients.first_call_s"] = (statistics.median(first_calls), "s",
                                            len(first_calls))
    metrics["trace.untraced_ops_per_s"] = (len(untraced) / sum(untraced), "1/s", len(untraced))
    metrics["trace.traced_ops_per_s"] = (len(traced) / sum(traced), "1/s", len(traced))
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio", len(traced))

    layer_self = {}
    for s in tracer.spans:
        if s.workload == wl.name and s.op is not None:
            layer = s.name.split(".")[0] if s.name != "op" else "benchmark"
            layer_self[layer] = layer_self.get(layer, 0.0) + self_times[s.id]
    extra = {
        "layer_self_ms_per_op": {k: 1e3 * v / len(traced) for k, v in layer_self.items()},
        "metric_source": source,
        "fail_ratio": (tally.fail_ratio, "ratio", tally.attempted),
    }
    return metrics, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.prepare()

    from stats import Tally
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tally = Tally()
    tracer = None
    if args.trace:
        metrics, extra, tracer = run_traced(wl, args.seed, args.seconds, tally)
    else:
        metrics, extra = run_untraced(wl, args.seed, args.seconds, tally)
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")

    env = environment()
    print(f"quadrobin benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"  why: {why.get(wl.name, 'not a declared workload (see README.md)')}")
    print("  environment: " + json.dumps(env))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    for name, item in extra.items():
        if isinstance(item, tuple):
            value, unit, n = item
            shown = "omitted (fewer than 10 samples beyond it)" if value is None \
                else f"{value:14.6g} {unit:6s}"
            print(f"  {name:40s} {shown} n={n}")
    if tracer is not None:
        print("  self time by layer (ms per traced op): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(extra["layer_self_ms_per_op"].items())))
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "extra": {k: (list(v) if isinstance(v, tuple) else v) for k, v in extra.items()},
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
