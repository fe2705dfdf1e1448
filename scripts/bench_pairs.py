#!/usr/bin/env python3
"""Ten alternating parent/change pairs of the benchmark command, summarised as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr N [--workload NAME ...]
        [--claim WORKLOAD:METRIC] [--change-text TEXT] [--note TEXT ...]
        [--parent-commit REF]

PARENT and CHANGE are two checkouts of the repository. The summary's notes
give each checkout's src/pidlab size: its lines, and its code lines, which
leave out docstrings, comments and blank lines. Before the pairs, each
checkout runs the tier-1 suite once and tests/test_acceptance.py once
(TEST_RUNS, with src on PYTHONPATH), and the wall time, exit code and last
output line of each run go into the notes too. There are ten
pairs, one per seed perfbench ships digests for: pair k runs CHANGE's
BENCHMARK.json command with `--workload W --seed k --seconds S --trace 0`,
S its run_seconds, in each checkout, the parent first in even pairs and
the change first in odd ones, every workload in turn within a pair. The
last stdout line of a run is its JSON result. The summary goes to
BENCH_<pr>.json in the current directory.

The summary has the layout of the earlier BENCH_*.json files: per workload
and per end-to-end metric of CHANGE's BENCHMARK.json, each side's median,
quartiles (numpy linear percentiles), IQR and values in pair order; the
change's median over the parent's; change_wins, the pairs where the change
is better in the metric's direction (ties count for neither); whether the
median gap exceeds the parent's IQR; within_bound, the change's median
against the parent's widened by the metric's bound; and ratio, each pair's
change/parent value in pair order with their median, quartiles and IQR and
wins, the pairs whose ratio lies on the metric's better side of 1 (ratio is
null when a parent value is 0). A pair runs one seed on both sides, so the
ratios are free of the spread between seeds that widens each side's IQR.
With --claim, the claim is met when the change wins at least nine of the
ten pairs and its median beats the parent's by more than the parent's IQR;
the ratios do not enter it. With --claim, once the pairs are done each
checkout also runs the claimed workload once with `--trace 1` on seed 0,
and the summary's trace block holds both sides' per-layer metrics and each
metric's change minus parent, so it shows in which layers the gain
appears. The file is rewritten after every pair, so a cut run leaves the
pairs it finished; its claim is judged only once all ten are in.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")

# perfbench takes a seed modulo its ten shipped seeds, so ten pairs run each
# shipped seed once; a claim needs nine wins in ten pairs.
PAIRS = 10
CLAIM_WINS = 9

# The test runs timed in each checkout before the pairs: the tier-1 suite
# and the acceptance checks, the two wall times the roadmap's north star names.
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TEST_RUNS = {"tier-1": PYTEST, "tests/test_acceptance.py": [*PYTEST, "tests/test_acceptance.py"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", action="append", default=None,
                        help="a workload to run (repeatable); default: every one")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--change-text", default="", help="what the change does")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--parent-commit", default=None,
                        help="default: PARENT's git HEAD, where it has one")
    return parser.parse_args(argv)


def run_one(checkout, command, workload, seed, seconds, trace=0):
    """The JSON result of one benchmark run in checkout, untraced unless
    trace is 1."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def time_tests(checkout, side):
    """One note per TEST_RUNS entry: its wall time in checkout, its exit
    code and the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    notes = []
    for label, cmd in TEST_RUNS.items():
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        last = (done.stdout.strip().splitlines() or [""])[-1]
        notes.append(f"{label} in {side}: {wall:.1f} s wall, exit {done.returncode}, {last!r}")
        print(notes[-1], file=sys.stderr, flush=True)
    return notes


def code_size(checkout, side):
    """One note: the lines and the code lines of the Python files under
    src/pidlab in checkout. Code lines leave out blank lines, comment lines
    and the lines of docstrings."""
    lines = code = 0
    for path in sorted((checkout / "src" / "pidlab").rglob("*.py")):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(1 for n, row in enumerate(rows, 1)
                    if row.strip() and not row.lstrip().startswith("#") and n not in docs)
    return f"src/pidlab in {side}: {lines} lines, {code} code lines"


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "iqr": round(float(q3 - q1), 6),
            "n": len(values), "values": [round(v, 6) for v in values]}


def ratios(parent, change, lower):
    """Each pair's change/parent value, their spread and wins; None if a
    parent value is 0."""
    if 0 in parent:
        return None
    values = [c / p for p, c in zip(parent, change)]
    return {**spread(values), "wins": sum((r < 1) if lower else (r > 1) for r in values)}


def compare(metric, runs):
    """One end-to-end metric's summary over the pairs in runs."""
    lower = metric["better"] == "lower"
    values = {side: [run[side]["metrics"][metric["name"]]["value"] for run in runs]
              for side in SIDES}
    stats = {side: spread(values[side]) for side in SIDES}
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
    widened = parent * (1.0 + metric["bound"] if lower else 1.0 - metric["bound"])
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        **stats,
        "change_over_parent": round(change / parent, 4) if parent else None,
        "change_wins": wins,
        "ties": ties,
        "median_gap_exceeds_parent_iqr": abs(change - parent) > stats["parent"]["iqr"],
        "within_bound": change <= widened if lower else change >= widened,
        "ratio": ratios(values["parent"], values["change"], lower),
    }


def summarise(runs, metrics):
    """The per-workload block of one workload's finished pairs."""
    return {
        "pairs": len(runs),
        "seeds": [run["seed"] for run in runs],
        "parent_first": [run["parent_first"] for run in runs],
        "runs_correct": {side: sum(bool(run[side]["correct"]) for run in runs)
                         for side in SIDES},
        "failed_operations": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
        "end_to_end": {metric["name"]: compare(metric, runs) for metric in metrics},
    }


def claim_of(spec, workloads):
    workload, _, metric = spec.partition(":")
    block = workloads[workload]["end_to_end"][metric]
    parent, change = block["parent"]["median"], block["change"]["median"]
    gain = parent - change if block["better"] == "lower" else change - parent
    pairs = workloads[workload]["pairs"]
    return {"workload": workload, "metric": metric, "parent_median": parent,
            "change_median": change, "parent_iqr": block["parent"]["iqr"],
            "change_wins": block["change_wins"], "pairs": pairs,
            "met": pairs == PAIRS and block["change_wins"] >= CLAIM_WINS
            and gain > block["parent"]["iqr"]}


def traced(checkouts, command, workload, seconds):
    """The trace block: one --trace 1 run of workload on seed 0 per side,
    each side's per-layer values and change minus parent per metric."""
    values, correct = {}, {}
    for side in SIDES:
        result = run_one(checkouts[side], command, workload, 0, seconds, trace=1)
        values[side] = {name: m["value"] for name, m in result["metrics"].items()}
        correct[side] = result["correct"]
        print(f"trace {workload} {side}: correct {correct[side]}", file=sys.stderr, flush=True)
    return {"workload": workload, "seed": 0, "correct": correct, **values,
            "change_minus_parent": {name: values["change"][name] - value
                                    for name, value in values["parent"].items()
                                    if name in values["change"]}}


def git_commit(checkout):
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    command, seconds = spec["command"], spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(f"BENCH_{args.pr}.json")
    checkouts = {"parent": args.parent, "change": args.change}
    sizes = [code_size(checkouts[side], side) for side in SIDES]
    tests = [note for side in SIDES for note in time_tests(checkouts[side], side)]
    doc = {
        "change": args.change_text,
        "parent_commit": args.parent_commit or git_commit(args.parent) or "unknown",
        "change_commit": "the commit that adds this file",
        "harness": f"{' '.join(command)} --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": f"{PAIRS} pairs per workload, pair k on seed k (0-{PAIRS - 1}), "
                  "parent first in even pairs and change first in odd pairs "
                  "(parent_first), every workload in turn within a pair; each side runs "
                  "from its own checkout. Medians and quartiles are numpy linear "
                  "percentiles over the runs of a side; values lists every run in pair "
                  "order; change_wins counts pairs where the change is better by the "
                  "metric's direction, ties counting for neither; within_bound compares "
                  "the change's median with the parent's median widened by the metric's "
                  "bound; ratio holds each pair's change/parent value in pair order, "
                  "their median and quartiles, and wins, the ratios on the metric's "
                  "better side of 1.",
        "machine": {"vcpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        **({"claim": None, "trace": None} if args.claim else {}),
        "notes": [*args.note, *sizes, *tests],
        "workloads": {},
    }
    runs = {name: [] for name in names}
    for seed in range(PAIRS):
        parent_first = seed % 2 == 0
        order = SIDES if parent_first else SIDES[::-1]
        for name in names:
            pair = {"seed": seed, "parent_first": parent_first}
            for side in order:
                pair[side] = run_one(checkouts[side], command, name, seed, seconds)
                wall = pair[side]["metrics"]["wall_s"]["value"]
                print(f"pair {seed} {name} {side}: wall_s {wall:.3f} "
                      f"correct {pair[side]['correct']}", file=sys.stderr, flush=True)
            runs[name].append(pair)
        doc["workloads"] = {name: summarise(runs[name], metrics) for name in names}
        if args.claim:
            doc["claim"] = claim_of(args.claim, doc["workloads"])
        out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        doc["trace"] = traced(checkouts, command, args.claim.partition(":")[0], seconds)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
