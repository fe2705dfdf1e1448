"""Measurement loops of one benchmark run, end-to-end or traced.

The end-to-end run sets up SETUP_REPEATS times (set-up time is the median)
and then repeats untraced passes until the run's seconds have gone,
reporting the median pass. Its times are calibrated (see calibration.py).
The traced run makes one untraced and one traced pass and reports the
traced pass's per-layer metrics, in raw seconds; the difference of the two
walls is the tracing overhead. Before every untraced pass the harness checks
that no tracing wrapper is installed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

import calibration
import checks
import tracer as tracing
import workloads

SETUP_REPEATS = 5
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import pidlab.cli"


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, seed):
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "workload_seed": seed, "seconds": args.seconds,
            "trace": args.trace}


def timed_setup(workload):
    """One set-up: a fresh interpreter importing the CLI, then the
    workload's own config and fixture loading and warm-up call."""
    with calibration.timed() as timing:
        subprocess.run([sys.executable, "-c", IMPORT_CLI], check=True, timeout=120)
        workload.setup()
    return timing


def end_to_end(workload, ops, seconds, targets):
    """Set up SETUP_REPEATS times, then start passes until less than half
    of the last pass's duration is left of `seconds` (always one at least)."""
    setups = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
    passes = []
    t0 = last = perf_counter()
    while not passes or seconds - (perf_counter() - t0) >= (perf_counter() - last) / 2:
        last = perf_counter()
        tracing.assert_untraced(targets)
        passes.append(workload.run_pass(ops, workloads.PassClock()))
    metrics = {
        "setup_s": statistics.median(s.calibrated for s in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "queries_per_s": statistics.median(p.queries / p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_queries": passes[-1].oracle_queries,
    }
    detail = {"setup_s": [s.calibrated for s in setups],
              "raw_setup_s": [s.raw for s in setups],
              "pass_wall_s": [p.wall for p in passes],
              "raw_pass_wall_s": [p.raw_wall for p in passes],
              "pass_queries": [p.queries for p in passes],
              "raw_pass_stages": [p.stages for p in passes]}
    return metrics, detail, None


def per_layer(workload, ops, targets, pass_id):
    """One untraced and one traced pass, neither calibrated: spans and the
    traced wall are raw seconds, so they add up."""
    workload.setup()
    tracing.assert_untraced(targets)
    plain = workload.run_pass(ops, workloads.PassClock(calibrate=False))
    before = tracing.bindings(targets)
    tracer = tracing.Tracer(pass_id)
    with tracing.installed(tracer, targets):
        traced = workload.run_pass(ops, workloads.PassClock(calibrate=False))
    after = tracing.bindings(targets)
    if any(after[key] is not fn for key, fn in before.items()):
        raise RuntimeError("tracer did not restore the original pidlab bindings")
    tracing.assert_untraced(targets)
    metrics = tracing.layer_metrics(tracer, traced.raw_wall)
    metrics["bench.trace_overhead_s"] = traced.raw_wall - plain.raw_wall
    for stage in workloads.STAGES:
        metrics[f"stage.{stage}"] = plain.stages.get(stage, 0.0)
    detail = {"raw_untraced_wall_s": plain.raw_wall, "raw_untraced_stages": plain.stages,
              "raw_traced_wall_s": traced.raw_wall}
    return metrics, detail, tracer


def run(args, spec):
    """Run one workload as args ask; return the result line's object."""
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"pick from {sorted(workloads.WORKLOADS)}")
    seed = args.seed % workloads.SHIPPED_SEEDS
    workload = cls(seed)
    ops = checks.Ops(workloads.expected_digests(workloads.load_digests(), cls, seed))
    targets = tracing.default_targets()
    if args.trace:
        wanted = spec["per_layer"]
        metrics, detail, tracer = per_layer(workload, ops, targets,
                                            f"{args.workload}:{seed}:traced")
    else:
        wanted = spec["end_to_end"]
        metrics, detail, tracer = end_to_end(workload, ops, args.seconds, targets)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: workload produced no value for {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": ops.failed == 0 and ops.attempted > 0,
              "attempted": ops.attempted, "failed": ops.failed, "metrics": reported}

    env = environment(args, seed)
    out = workloads.OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"result-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "environment": env, "detail": detail}, fh, indent=2)
    if tracer is not None:
        tracer.write_jsonl(out / "spans.jsonl")

    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in reported.items():
        print(f"{name:>40} {m['value']:>14.6g} {m['unit']}")
    print(f"{'operations failed':>40} {ops.failed} of {ops.attempted}")
    return result
