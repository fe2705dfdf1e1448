"""Trajectory-based validity oracle with majority voting and query accounting.

A validator answers one question: is this gain triple valid for the mission?
Every classify() call counts as exactly one oracle query against the global
counter, regardless of how many repeated simulations back the vote.
fan_out() is the one way to spread oracle work over processes; it folds the
queries the workers spend back into this process's counter.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

from .mtl import And, eval_offline, eval_online, mode_spec
from .plant import simulate
from .stability import routh_stable

_lock = threading.Lock()
_queries = 0


def _note_queries(n=1):
    global _queries
    with _lock:
        _queries += n


def query_count():
    with _lock:
        return _queries


def reset_query_count():
    global _queries
    with _lock:
        _queries = 0


def _counted_call(fn, job):
    # A forked worker starts with the parent's count, so report the delta.
    before = query_count()
    result = fn(job)
    return result, query_count() - before


def fan_out(fn, jobs, workers):
    """[fn(job) for job in jobs], on up to `workers` processes.

    Runs in this process when workers <= 1 or there is at most one job.
    Otherwise fn and each job must pickle; the oracle queries the workers
    spend are added to this process's counter, so query_count() grows by
    the same amount either way.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        done = list(pool.map(_counted_call, repeat(fn), jobs))
    _note_queries(sum(n for _, n in done))
    return [result for result, _ in done]


@dataclass(frozen=True)
class OracleConfig:
    """How validity is judged.

    kind: "offline" (whole trace) or "online" (sliding window).
    window: window length in samples, required for online and
        rejected for offline, where it would have no effect.
    repeats: odd number of simulations per query; the majority vote wins.
    base_seed: run j of a query simulates with noise seed base_seed + j.
    """

    kind: str = "offline"
    window: int | None = None
    repeats: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("offline", "online"):
            raise ValueError(f"oracle kind must be offline or online, got {self.kind!r}")
        if self.kind == "online" and (self.window is None or self.window < 2):
            raise ValueError("online oracle needs a window of >= 2 samples")
        if self.kind == "offline" and self.window is not None:
            raise ValueError("offline oracle takes no window")
        if self.repeats < 1 or self.repeats % 2 == 0:
            raise ValueError("repeats must be a positive odd number")


@dataclass(frozen=True)
class Verdict:
    valid: bool
    violated_spec: str | None
    runs: int
    votes_valid: int


class Validator:
    """Abstract simulate-and-check contract used by all searchers."""

    def classify(self, pid):
        raise NotImplementedError


class SimulationValidator(Validator):
    """The real oracle: simulate the mission, check the mode spec.

    With repeats > 1 the runs use seeds base_seed, base_seed + 1, ... and
    the verdict is the majority. violated_spec names the first failing
    conjunct of the spec (or the spec itself when it has no conjuncts).
    """

    def __init__(self, plant, mission, cfg, formula=None):
        self.plant = plant
        self.mission = mission
        self.cfg = cfg
        self.formula = mode_spec(mission) if formula is None else formula

    def classify(self, pid):
        _note_queries()
        cfg = self.cfg
        votes = 0
        violated = None
        for j in range(cfg.repeats):
            ok, label = self._single_run(pid, cfg.base_seed + j)
            if ok:
                votes += 1
            elif violated is None:
                violated = label
        valid = votes > cfg.repeats // 2
        return Verdict(valid=valid, violated_spec=None if valid else violated,
                       runs=cfg.repeats, votes_valid=votes)

    def _single_run(self, pid, seed):
        plant = replace(self.plant, noise=replace(self.plant.noise, seed=seed))
        traj = simulate(plant, pid, self.mission)
        return self._check(traj)

    def _check(self, traj):
        parts = self.formula.children if isinstance(self.formula, And) else (self.formula,)
        for k, part in enumerate(parts):
            if not self._holds(part, traj):
                return False, part.label or f"conjunct_{k}"
        return True, None

    def _holds(self, formula, traj):
        if self.cfg.kind == "online":
            return eval_online(formula, traj, self.cfg.window)
        return eval_offline(formula, traj)


class RouthValidator(Validator):
    """Stability-criterion oracle: valid iff the closed loop is Routh-stable.

    Stands in for the simulator wherever the noiseless simulation has been
    shown to agree with the algebra; useful for exactness and query-count
    experiments where simulation time would dominate.
    """

    def __init__(self, a1=1.0, a2=1.0):
        self.a1 = a1
        self.a2 = a2

    def classify(self, pid):
        _note_queries()
        ok = routh_stable(pid, self.a1, self.a2)
        return Verdict(valid=ok, violated_spec=None if ok else "routh_hurwitz",
                       runs=1, votes_valid=int(ok))


class LookupValidator(Validator):
    """Table-driven oracle for synthetic experiments: valid iff fn(pid)."""

    def __init__(self, fn):
        self.fn = fn

    def classify(self, pid):
        _note_queries()
        ok = bool(self.fn(pid))
        return Verdict(valid=ok, violated_spec=None if ok else "lookup",
                       runs=1, votes_valid=int(ok))

