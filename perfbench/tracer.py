"""Spans around pidlab's public functions, recorded from outside the package.

A traced pass rebinds each target name in the modules that call it to a
wrapper that records a span (name, start, end, parent, pass id) and puts the
original binding back when the pass ends. Nothing under src/ is edited, so
untraced passes run the program exactly as shipped; `assert_untraced`
checks that before each of them.

Self time of a span is its duration minus the part of its interval that its
child spans cover. Every span name below has a `<name>.self_s` metric, so
the per-layer self times partition the traced spans and, together with
`bench.unattributed_s`, add up to the traced pass's wall time.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import pidlab
from pidlab import cli, evalkit, validator

MARK = "__perfbench_traced__"

# Monitored spec labels that get their own eval_online self-time metric.
MONITOR_LABELS = ("lap_reach", "hold_tolerance")


class Span:
    __slots__ = ("id", "name", "detail", "parent", "pass_id", "start", "end")

    def __init__(self, id_, name, detail, parent, pass_id, start):
        self.id = id_
        self.name = name
        self.detail = detail
        self.parent = parent
        self.pass_id = pass_id
        self.start = start
        self.end = None

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, detail=None, after=None):
        """Return a wrapper of fn that records one span per call.

        detail(args, kwargs) names a sub-case of the span before the call;
        after(tracer, args, kwargs, result) records counts after it.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name,
                        detail(args, kwargs) if detail else None,
                        stack[-1] if stack else None, tracer.pass_id,
                        perf_counter())
            tracer.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, MARK, True)
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), separators=(",", ":")))
                fh.write("\n")


@dataclass(frozen=True)
class Target:
    name: str
    bindings: tuple  # (owner, attribute) pairs that all hold the same function
    detail: object = None
    after: object = None


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_steps(tracer, args, kwargs, traj):
    tracer.counts["plant.simulate.steps"] += len(traj) - 1


def _count_samples(tracer, args, kwargs, verdict):
    tracer.counts["mtl.eval_online.samples"] += len(_arg(args, kwargs, 1, "traj"))


def _count_columns(tracer, args, kwargs, line):
    tracer.counts["search.columns"] += len(line.columns)


def _count_found(tracer, args, kwargs, found):
    tracer.counts["search.baselines.found"] += len(found)


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counts["evalkit.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_csv_bytes_read(tracer, args, kwargs, result):
    tracer.counts["evalkit.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _formula_label(args, kwargs):
    return _arg(args, kwargs, 0, "formula").label


def default_targets():
    """Every layer boundary the benchmark measures, with each module that
    binds the function under a name the pipeline calls it by."""
    sv, rv = validator.SimulationValidator, validator.RouthValidator
    return (
        Target("plant.simulate", ((validator, "simulate"),), after=_count_steps),
        Target("mtl.eval_online", ((validator, "eval_online"),),
               detail=_formula_label, after=_count_samples),
        Target("mtl.eval_offline", ((validator, "eval_offline"),)),
        Target("stability.routh_stable", ((validator, "routh_stable"),)),
        Target("validator.classify", ((sv, "classify"),)),
        Target("validator.classify", ((rv, "classify"),)),
        Target("search.identify_boundary",
               ((cli, "identify_boundary"), (pidlab, "identify_boundary")),
               after=_count_columns),
        Target("search.baselines", ((cli, "random_fuzz"),), after=_count_found),
        Target("search.baselines", ((cli, "hill_climb"),), after=_count_found),
        Target("search.baselines", ((cli, "genetic_search"),), after=_count_found),
        Target("evalkit.ground_truth", ((cli, "ground_truth"), (pidlab, "ground_truth"))),
        Target("evalkit.compare_oracles", ((pidlab, "compare_oracles"),)),
        Target("evalkit.region_from_boundary",
               ((cli, "region_from_boundary"), (pidlab, "region_from_boundary"))),
        Target("evalkit.compute_metrics",
               ((cli, "compute_metrics"), (pidlab, "compute_metrics"))),
        Target("evalkit.grid_csv_write", ((cli, "grid_to_csv"), (evalkit, "grid_to_csv")),
               after=_count_csv_bytes),
        Target("evalkit.grid_csv_read", ((cli, "grid_from_csv"), (evalkit, "grid_from_csv")),
               after=_count_csv_bytes_read),
        Target("cli.ground_truth", ((cli, "cmd_ground_truth"),)),
        Target("cli.search", ((cli, "cmd_search"),)),
        Target("cli.eval", ((cli, "cmd_eval"),)),
    )


SPAN_NAMES = tuple(dict.fromkeys(t.name for t in default_targets()))


def bindings(targets):
    """Current object at every target binding, keyed by (owner, attribute)."""
    return {(owner, attr): getattr(owner, attr)
            for t in targets for owner, attr in t.bindings}


def assert_untraced(targets):
    """Raise if any target binding still holds a tracing wrapper."""
    left = [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), fn in bindings(targets).items()
            if getattr(fn, MARK, False)]
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


@contextmanager
def installed(tracer, targets):
    """Rebind every target to a tracing wrapper for the duration of the block."""
    saved = []
    try:
        for t in targets:
            original = getattr(*t.bindings[0])
            wrapper = tracer.wrap(t.name, original, t.detail, t.after)
            for owner, attr in t.bindings:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall_s):
    """Per-layer metrics of one traced pass.

    The `*.self_s` metrics of SPAN_NAMES partition all recorded spans; the
    monitor-label breakdowns are subsets of mtl.eval_online.self_s.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s = Counter()
    calls = Counter()
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        if s.name == "mtl.eval_online" and s.detail in MONITOR_LABELS:
            self_s[f"mtl.eval_online.{s.detail}"] += own[s.id]

    def under(span, name):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    queries = [s for s in spans if s.name == "validator.classify"]
    walk_queries = sum(under(s, "search.identify_boundary") for s in queries)
    baseline_queries = sum(under(s, "search.baselines") for s in queries)
    counts = tracer.counts
    steps = counts["plant.simulate.steps"]
    total_self = sum(own.values())
    out = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
    out.update({f"mtl.eval_online.{label}.self_s": self_s[f"mtl.eval_online.{label}"]
                for label in MONITOR_LABELS})
    out.update({
        "plant.simulate.calls": calls["plant.simulate"],
        "plant.simulate.steps": steps,
        "plant.simulate.us_per_step": _ratio(self_s["plant.simulate"] * 1e6, steps),
        "mtl.eval_online.calls": calls["mtl.eval_online"],
        "mtl.eval_online.samples": counts["mtl.eval_online.samples"],
        "mtl.eval_offline.calls": calls["mtl.eval_offline"],
        "validator.classify.calls": len(queries),
        "validator.sims_per_query": _ratio(calls["plant.simulate"], len(queries)),
        "stability.routh_stable.calls": calls["stability.routh_stable"],
        "search.queries_per_column": _ratio(walk_queries, counts["search.columns"]),
        "search.baselines.invalid_per_query": _ratio(counts["search.baselines.found"],
                                                     baseline_queries),
        "evalkit.csv_bytes": counts["evalkit.csv_bytes"],
        "bench.traced_wall_s": traced_wall_s,
        "bench.unattributed_s": traced_wall_s - total_self,
        "bench.spans": len(spans),
    })
    return out
