"""Trajectory-based validity oracle with majority voting and query accounting.

A validator answers one question: is this gain triple valid for the mission?
Every validator implements classify_many(pids), which counts one oracle query
per pid against the global counter, however many simulations back its vote,
and classify(pid) is classify_many((pid,))[0]. Queries and simulations
differ: a SimulationValidator simulates a gain triple only the first time it
is asked and answers repeats of it from a memo, so a searcher that revisits
a config pays a query but no simulation.

OracleConfig is the judge: check finds a run's first failing conjunct, and
vote takes the majority over a query's runs. SimulationValidator.classify_many
and compare_oracles judge their runs through SimulationValidator._verdicts,
which builds each run once for every judge it is asked with. Its route
follows the engine simulate runs (plant.compiled). Where the compiled
kernel runs, simulate builds every run of every new pid one at a time: a
kernel run costs less than a batched one. On the disturbed 40x40 hold (2
vCPUs, seed 3, fresh validators, cells evenly spaced over the plane, best
and worst of three), 50 new pids took 0.026-0.027 s this way against
0.14 s through simulate_batch, and all 1,600 took 0.84-0.85 s against
1.23-1.26 s batched. Where simulate runs its Python loop, _verdicts
batches BATCH_MIN new pids or more through simulate_batch and runs fewer
one at a time. simulate_batch's runs are bit-identical to simulate's, so
every run a check sees, and every verdict, is simulate's on every route
and engine.

A run that simulate builds one at a time ends once its verdict is decided
(OracleConfig.decided). Its prefix is bit for bit the run's first samples,
and only the first conjunct may end it, since violated_spec names the first
failing conjunct in formula order, so verdicts and violated_spec are those
of the whole run. The prefix is not judged again: decided cuts a run
short of a judge's samples only where that judge's check fails the first
conjunct, so check, given those samples, names that conjunct with no
evaluation. A judge whose samples the prefix holds checks it as any run.
The batched route runs every column whole.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

from .mtl import And, eval_offline, eval_online, eval_prefix, mode_spec, time_thresholds
from .plant import compiled, sample_count, simulate, simulate_batch
from .stability import routh_stable

# Largest x/v array one simulate_batch call of _verdicts may fill, at 16
# bytes per sample per pid: about 350 pids of a 60 s run at dt 0.01, and
# 35 of a 600 s one. Only the Python loop's route batches.
BATCH_BYTES = 32 * 2**20

# Fewest new pids _verdicts simulates with simulate_batch where simulate
# runs its Python loop; on the compiled kernel no count batches. Fewer run
# one at a time, where simulate ends each run once it is decided. On the
# 60 s disturbed hold on the Python loop (2 vCPUs, seed 3, fresh
# validators, 20, 25, 30, 35, 50 or all 1,600 cells evenly spaced over the
# 40x40 plane, the two routes interleaved, best and worst of three runs),
# 20 new pids took 0.22 s one at a time and 0.28-0.29 s batched, 25 took
# 0.27-0.28 s and 0.28-0.29 s, 30 took 0.29-0.31 s and 0.27-0.29 s, 35
# took 0.34 s and 0.26-0.27 s, 50 took 0.32-0.49 s and 0.15-0.27 s, and
# 1,600 took 11.1-14.5 s and 1.3-1.6 s. The crossover lies between 25 and
# 30; no workload has 20 to 29 new pids, so any value up to it routes them
# alike.
BATCH_MIN = 20

_lock = threading.Lock()
_queries = 0


def _note_queries(n=1):
    global _queries
    with _lock:
        _queries += n


def query_count():
    with _lock:
        return _queries


@dataclass(frozen=True)
class OracleConfig:
    """How validity is judged.

    kind: "offline" (whole trace) or "online" (sliding window).
    window: window length in samples, required for online and
        rejected for offline, where it would have no effect.
    repeats: odd number of simulations per query; the majority vote wins.
    base_seed: run j of a query simulates with noise seed base_seed + j,
        so it must be >= 0 (a noise seed is a non-negative integer).
    """

    kind: str = "offline"
    window: int | None = None
    repeats: int = 1
    base_seed: int = 0

    def __post_init__(self):
        for key in ("window", "repeats", "base_seed"):
            value = getattr(self, key)
            if type(value) is not int and not (key == "window" and value is None):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.kind not in ("offline", "online"):
            raise ValueError(f"kind must be offline or online, got {self.kind!r}")
        if self.kind == "online" and self.window is None:
            raise ValueError("kind online needs a window of >= 2 samples")
        if self.kind == "online" and self.window < 2:
            raise ValueError("window must be >= 2 samples for an online oracle")
        if self.kind == "offline" and self.window is not None:
            raise ValueError("window has no effect on an offline oracle; "
                             "set kind online or drop the window")
        if self.repeats < 1 or self.repeats % 2 == 0:
            raise ValueError("repeats must be a positive odd number")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")

    def check(self, formula, traj, samples=0):
        """(ok, label of the first failing conjunct) of formula over traj; an
        unlabeled conjunct k is conjunct_k, and a formula not an And is one.

        A traj shorter than samples is a run that simulate ended once
        decided(formula, traj, samples) held, so it fails the first
        conjunct, which is named with no evaluation.
        """
        cut = len(traj) < samples
        for k, part in enumerate(_conjuncts(formula)):
            if cut or not (eval_online(part, traj, self.window) if self.kind == "online"
                           else eval_offline(part, traj)):
                return False, part.label or f"conjunct_{k}"
        return True, None

    def decided(self, formula, prefix, samples):
        """Whether check's result over the first samples samples of a run is
        known from the run's prefix alone: the prefix holds them all, or
        every run that starts with it fails formula's first conjunct, so
        that check names that conjunct.

        An offline reading, and an online one whose window spans the
        samples (eval_online then degenerates to eval_offline), fail where
        eval_prefix of the prefix is False. A shorter window fails where it
        alarms on the prefix, which must hold more than one window:
        eval_online over exactly one window would judge it offline.
        """
        if len(prefix) >= samples:
            return True
        first = _conjuncts(formula)[0]
        if self.kind == "online" and self.window < samples:
            return len(prefix) > self.window and not eval_online(first, prefix, self.window)
        return not eval_prefix(first, prefix)

    def vote(self, checks):
        """The majority Verdict over a query's (ok, failing clause) checks,
        one per run; violated_spec is the first failing run's clause."""
        checks = list(checks)
        votes = sum(1 for ok, _ in checks if ok)
        valid = votes > self.repeats // 2
        violated = None if valid else next(label for ok, label in checks if not ok)
        return Verdict(valid=valid, violated_spec=violated, votes_valid=votes)


def _conjuncts(formula):
    return formula.children if isinstance(formula, And) else (formula,)


@dataclass(frozen=True)
class Verdict:
    valid: bool
    violated_spec: str | None
    votes_valid: int


class Validator:
    """Abstract oracle contract used by all searchers; subclasses implement classify_many."""

    def classify(self, pid):
        """The verdict on pid, counting one query: classify_many((pid,))[0]."""
        return self.classify_many((pid,))[0]

    def classify_many(self, pids):
        """One verdict per pid of the iterable pids, counting len(pids) queries."""
        raise NotImplementedError


class SimulationValidator(Validator):
    """The real oracle: simulate the mission, check the mode spec.

    With repeats > 1 the runs use seeds base_seed, base_seed + 1, ... and
    the verdict is the majority. violated_spec names the first failing
    conjunct of the spec (or the spec itself when it has no conjuncts).

    The verdict is a deterministic function of the gains, so each instance
    keeps the verdict of every pid it has simulated and answers a repeated
    pid from that memo; the query still counts. plant, mission, cfg and
    formula are therefore fixed once the validator has answered a query:
    build a new validator to judge under other settings.
    """

    def __init__(self, plant, mission, cfg, formula=None):
        self.plant = plant
        self.mission = mission
        self.cfg = cfg
        self.formula = mode_spec(mission) if formula is None else formula
        self._memo = {}

    def classify_many(self, pids):
        """Memoised pids are answered from the memo; each distinct new pid is
        simulated once per seed, and its runs are judged by _verdicts."""
        pids = list(pids)
        _note_queries(len(pids))
        # Two threads asking for the same new pid may both simulate it; they
        # store the same verdict, so the race costs time, never correctness.
        memo = self._memo
        new = [pid for pid in dict.fromkeys(pids) if pid not in memo]
        for pid, (verdict,) in self._verdicts(new, ((self.cfg, None),)):
            memo[pid] = verdict
        return [memo[pid] for pid in pids]

    def _verdicts(self, pids, judges):
        """Yield (pid, one Verdict per judge) for each of pids, counting no
        query and filling no memo.

        A judge is an (OracleConfig, samples) pair: its cfg checks
        self.formula over each run of pid, or over the run's first samples
        samples, and votes on those checks. The runs are self.cfg's, so
        every judge's repeats and base_seed must be self.cfg's too.

        On the compiled kernel every pid is run one at a time by simulate.
        On the Python loop fewer than BATCH_MIN pids are run one at a time,
        and more with simulate_batch, one seed at a time, in chunks of
        near-equal size whose x/v array fills at most BATCH_BYTES. Each run
        is checked and dropped before the next run or batch is built. A run
        built one at a time pauses at the first sample past each time that
        a t atom of the formula's first conjunct compares against, and ends
        there once every judge's check is decided (OracleConfig.decided).
        """
        if not pids:
            return
        formula = self.formula
        n = sample_count(self.plant, self.mission)
        sizes = [n if m is None else min(m, n) for _, m in judges]

        def check(run):  # no name holds run once every judge has checked it
            return [cfg.check(formula, run if m is None else run.head(m), samples)
                    for (cfg, m), samples in zip(judges, sizes)]

        def vote(runs):  # runs: per run of pid, its checks, one per judge
            return tuple(cfg.vote(own) for (cfg, _), own in zip(judges, zip(*runs)))

        if compiled() or len(pids) < BATCH_MIN:
            stops = self._stops

            def decided(prefix):
                return all(cfg.decided(formula, prefix, samples)
                           for (cfg, _), samples in zip(judges, sizes))

            for pid in pids:
                yield pid, vote([check(simulate(plant, pid, self.mission, stops=stops,
                                                decided=decided))
                                 for plant in self._plants])
            return
        width = max(1, BATCH_BYTES // (16 * n))
        chunks = -(-len(pids) // width)
        for k in range(chunks):
            chunk = pids[k * len(pids) // chunks:(k + 1) * len(pids) // chunks]
            # no name holds a batch, so each is freed before the next seed's
            by_seed = [list(map(check, simulate_batch(plant, chunk, self.mission)))
                       for plant in self._plants]
            for pid, checks in zip(chunk, zip(*by_seed)):
                yield pid, vote(checks)

    @cached_property
    def _plants(self):
        """The plant of each run of a query, built at the first query: run j
        has noise seed base_seed + j."""
        noise = self.plant.noise
        return tuple(replace(self.plant, noise=replace(noise, seed=self.cfg.base_seed + j))
                     for j in range(self.cfg.repeats))

    @cached_property
    def _stops(self):
        """Where a run pauses, built at the first query: the sample count up
        to the first of simulate's sample times past each threshold of the
        formula's first conjunct."""
        times = np.arange(sample_count(self.plant, self.mission)) * float(self.plant.dt)
        return np.searchsorted(times, time_thresholds(_conjuncts(self.formula)[0]),
                               side="right") + 1


_ROUTH_STABLE = Verdict(valid=True, violated_spec=None, votes_valid=1)
_ROUTH_UNSTABLE = Verdict(valid=False, violated_spec="routh_hurwitz", votes_valid=0)


class RouthValidator(Validator):
    """Stability-criterion oracle: valid iff the closed loop is Routh-stable.

    Stands in for the simulator wherever the noiseless simulation has been
    shown to agree with the algebra; useful for exactness and query-count
    experiments where simulation time would dominate. Every stable verdict
    is one shared Verdict, and every unstable one another.
    """

    def __init__(self, a1=1.0, a2=1.0):
        self.a1 = a1
        self.a2 = a2

    # Validator.classify answers the same; this stays while the benchmark's tracer
    # counts one classify span and one routh_stable span per Routh query.
    def classify(self, pid):
        _note_queries()
        return _ROUTH_STABLE if routh_stable(pid, self.a1, self.a2) else _ROUTH_UNSTABLE

    def classify_many(self, pids):
        """routh_stable on float64 arrays of the gains, counting len(pids)
        queries at once.

        A class whose classify is not this class's own (a subclass that
        overrides it, or a wrapper bound in its place) gets it called per
        pid, so the batch never answers differently from classify.
        """
        if type(self).classify is not _routh_classify:
            return [self.classify(pid) for pid in pids]
        pids = list(pids)
        n = len(pids)
        gains = tuple(np.fromiter(map(itemgetter(k), pids), float, n) for k in range(3))
        # Python floats overflow to inf and turn inf * 0 into nan silently
        with np.errstate(all="ignore"):
            stable = routh_stable(gains, self.a1, self.a2)
        _note_queries(n)
        verdicts = (_ROUTH_UNSTABLE, _ROUTH_STABLE)
        return [verdicts[ok] for ok in stable.tolist()]


_routh_classify = RouthValidator.classify


_LOOKUP_VERDICTS = (Verdict(valid=False, violated_spec="lookup", votes_valid=0),
                    Verdict(valid=True, violated_spec=None, votes_valid=1))


class LookupValidator(Validator):
    """Table-driven oracle for synthetic experiments: valid iff fn(pid)."""

    def __init__(self, fn):
        self.fn = fn

    def classify_many(self, pids):
        pids = list(pids)
        _note_queries(len(pids))
        return [_LOOKUP_VERDICTS[bool(self.fn(pid))] for pid in pids]


@dataclass
class OracleComparison:
    rows: list  # (pid, offline_valid, online_valid, reference_valid)
    offline_agreement: float
    online_agreement: float


def compare_oracles(configs, mission, plant, window, cfg=None, formula=None,
                    ref_factor=10):
    """Offline vs online verdicts against a long-horizon reference.

    The reference verdict is the offline oracle on a run ref_factor times
    longer (standing in for human-reviewed labels). One validator, the
    reference's, simulates each distinct config once per seed, at that
    length, and the offline and online verdicts judge the first
    sample_count(plant, mission) samples of those runs. Every verdict is
    one query. Agreement is the fraction of configs where each oracle
    matches the reference.
    """
    if not ref_factor >= 1:
        raise ValueError(f"ref_factor must be >= 1, got {ref_factor!r}")
    if cfg is None:
        cfg = OracleConfig()
    offline = replace(cfg, kind="offline", window=None)
    online = replace(cfg, kind="online", window=window)
    long_mission = replace(mission, duration=mission.duration * ref_factor)
    long_plant = replace(plant, t_max=max(plant.t_max, long_mission.duration))
    reference = SimulationValidator(long_plant, long_mission, offline, formula=formula)
    n = sample_count(plant, mission)
    configs = list(configs)
    _note_queries(3 * len(configs))
    valid = {pid: [verdict.valid for verdict in verdicts]
             for pid, verdicts in reference._verdicts(
                 list(dict.fromkeys(configs)), ((offline, n), (online, n), (offline, None)))}
    rows = [(pid, *valid[pid]) for pid in configs]
    total = max(len(rows), 1)
    return OracleComparison(rows=rows,
                            offline_agreement=sum(off == ref for _, off, _, ref in rows) / total,
                            online_agreement=sum(on == ref for _, _, on, ref in rows) / total)
