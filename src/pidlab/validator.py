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
which builds each run once for every judge it is asked with. It batches
BATCH_MIN new pids or more through simulate_batch, whose runs are
bit-identical to simulate's, and runs fewer one at a time. There a run that
the RK4 step map predicts to reach the clamp (plant.step_map_power) is built
by simulate, and any other by simulate_linear, judged from that run where
LINEAR_TOL certifies it and rebuilt by simulate elsewhere, so the verdicts
are simulate's on every route. On the search pass of the disturbed 40x40
hold at seed 0, 248 of the 399 runs are predicted to clamp: 225 distinct
pids, of which 3 never reach it.

A run that simulate builds on this route ends once its verdict is decided
(OracleConfig.decided). Its prefix is bit for bit the run's first samples,
and only the first conjunct may end it, since violated_spec names the first
failing conjunct in formula order, so verdicts and violated_spec are those
of the whole run. The batched route runs every column whole.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .mtl import (And, atom_margin, eval_offline, eval_online, eval_prefix, mode_spec,
                  time_thresholds)
from .plant import (CLAMP, sample_count, simulate, simulate_batch, simulate_linear,
                    step_map_power)
from .stability import routh_stable

# Largest x/v array one simulate_batch call of _verdicts may fill, at 16
# bytes per sample per pid: about 350 pids of a 60 s run at dt 0.01, and
# 35 of a 600 s one.
BATCH_BYTES = 32 * 2**20

# Fewest new pids _verdicts simulates with simulate_batch. The one-at-a-time
# route takes certified runs from simulate_linear and ends simulate's runs
# early. On the 60 s disturbed hold (2 vCPUs, seed 3, fresh validators, 25,
# 35 or 50 cells evenly spaced over the 40x40 plane, best and worst of nine
# runs in three processes), 25 new pids took 0.14-0.18 s one at a time and
# 0.25-0.32 s batched, 35 took 0.20-0.36 s and 0.25-0.31 s, and 50 took
# 0.26-0.43 s and 0.27-0.44 s. The crossover lies near 50, but no workload
# has between 20 and 49 new pids to show a retune.
BATCH_MIN = 20

# A linear run stands in for simulate's where every spec atom stays more
# than LINEAR_TOL * (1 + the run's largest |x| or |v|) from its threshold,
# about 1,000 times the linear scan's error on unclamped runs (at most
# 7.4e-13 over 600 random runs, 3e-12 over 300,000 undamped steps). A run that
# comes within that distance of the clamp, LINEAR_LIMIT, is simulated.
LINEAR_TOL = 1e-9
LINEAR_LIMIT = (CLAMP - LINEAR_TOL) / (1.0 + LINEAR_TOL)

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

    def check(self, formula, traj):
        """(ok, label of the first failing conjunct) of formula over traj; an
        unlabeled conjunct k is conjunct_k, and a formula not an And is one."""
        for k, part in enumerate(_conjuncts(formula)):
            if not (eval_online(part, traj, self.window) if self.kind == "online"
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

        Fewer than BATCH_MIN pids are run one at a time by _check_one, more
        with simulate_batch, one seed at a time, in chunks of near-equal size
        whose x/v array fills at most BATCH_BYTES. Each run is checked and
        dropped before the next run or batch is built. A run that
        _check_one simulates pauses at the first sample past each time that
        a t atom of the formula's first conjunct compares against, and ends
        there once every judge's check is decided (OracleConfig.decided).
        """
        if not pids:
            return
        formula = self.formula
        n = sample_count(self.plant, self.mission)

        def check(run):  # no name holds run once every judge has checked it
            return [cfg.check(formula, run if m is None else run.head(m)) for cfg, m in judges]

        def vote(runs):  # runs: per run of pid, its checks, one per judge
            return tuple(cfg.vote(own) for (cfg, _), own in zip(judges, zip(*runs)))

        if len(pids) < BATCH_MIN:
            # the sample count up to the first of simulate's sample times
            # past each threshold
            stops = np.searchsorted(np.arange(n) * float(self.plant.dt),
                                    time_thresholds(_conjuncts(formula)[0]), side="right") + 1

            def decided(prefix):
                return all(cfg.decided(formula, prefix, n if m is None else min(m, n))
                           for cfg, m in judges)

            for pid in pids:
                # the power reads no noise, so one serves every seed's run
                linear = bool((np.abs(step_map_power(self.plant, pid, self.mission))
                               < LINEAR_LIMIT).all())
                yield pid, vote([self._check_one(plant, pid, check, linear, stops, decided)
                                 for plant in self._plants()])
            return
        width = max(1, BATCH_BYTES // (16 * n))
        chunks = -(-len(pids) // width)
        for k in range(chunks):
            chunk = pids[k * len(pids) // chunks:(k + 1) * len(pids) // chunks]
            # no name holds a batch, so each is freed before the next seed's
            by_seed = [list(map(check, simulate_batch(plant, chunk, self.mission)))
                       for plant in self._plants()]
            for pid, checks in zip(chunk, zip(*by_seed)):
                yield pid, vote(checks)

    def _check_one(self, plant, pid, check, linear, stops, decided):
        """check of pid's run on plant: of simulate_linear's run where no
        atom of self.formula can tell it from simulate's, else of simulate's,
        which pauses at stops and ends at the first prefix decided accepts.
        linear is False where the step map predicts the run to reach the
        clamp (an entry of step_map_power not below LINEAR_LIMIT, or not
        finite); such a run is not tried linear.
        """
        if linear:
            run = simulate_linear(plant, pid, self.mission, limit=LINEAR_LIMIT)
            if run is not None:
                tol = LINEAR_TOL * (1.0 + max(np.abs(run.x).max(), np.abs(run.v).max()))
                if atom_margin(self.formula, run) > tol:
                    return check(run)
            run = None  # freed before simulate builds its own
        return check(simulate(plant, pid, self.mission, stops=stops, decided=decided))

    def _plants(self):
        """The plant of each run of a query: run j has noise seed base_seed + j."""
        for j in range(self.cfg.repeats):
            yield replace(self.plant,
                          noise=replace(self.plant.noise, seed=self.cfg.base_seed + j))


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
        """routh_stable's inequalities on float64 arrays of the gains, with
        its operations in its order, counting len(pids) queries at once.

        A class whose classify is not this class's own (a subclass that
        overrides it, or a wrapper bound in its place) gets it called per
        pid, so the batch never answers differently from classify.
        """
        if type(self).classify is not _routh_classify:
            return [self.classify(pid) for pid in pids]
        pids = list(pids)
        n = len(pids)
        kp = np.fromiter((pid.kp for pid in pids), float, n)
        ki = np.fromiter((pid.ki for pid in pids), float, n)
        kd = np.fromiter((pid.kd for pid in pids), float, n)
        # Python floats overflow to inf and turn inf * 0 into nan silently
        with np.errstate(all="ignore"):
            c2 = self.a2 + kd
            c1 = self.a1 + kp
            stable = (c1 > 0.0) & (c2 > 0.0) & (ki > 0.0) & (c1 * c2 > ki)
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
