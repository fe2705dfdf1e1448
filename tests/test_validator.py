import math
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import (NoiseSpec, OracleConfig, ParamSpace, PidConfig, PlantModel,
                    RouthValidator, SimulationValidator, Verdict, brake_mission,
                    circle_mission, genetic_search, hill_climb, hold_mission,
                    identify_boundary, query_count, return_home_mission, routh_stable,
                    simulate)
from pidlab import plant as plant_module
from pidlab import validator as validator_module
from pidlab.cli import load_config
from pidlab.plant import sample_count
from pidlab.mtl import And, Atom, Eventually, Globally, Implies, mode_spec
from pidlab.validator import LookupValidator, Validator
from test_mtl import formulas, traces_and_windows


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.kind == "offline" and cfg.repeats == 1

    def test_rejects_even_repeats(self):
        with pytest.raises(ValueError):
            OracleConfig(repeats=2)

    def test_rejects_bad_kind_and_window(self):
        with pytest.raises(ValueError):
            OracleConfig(kind="psychic")
        with pytest.raises(ValueError):
            OracleConfig(kind="online")  # window is mandatory
        with pytest.raises(ValueError):
            OracleConfig(kind="online", window=1)
        with pytest.raises(ValueError):
            OracleConfig(kind="offline", window=200)  # it would have no effect

    def test_rejects_negative_base_seed(self):
        # run j seeds its noise with base_seed + j, and numpy takes no negative seed
        with pytest.raises(ValueError, match="base_seed must be >= 0"):
            OracleConfig(base_seed=-1)

    @pytest.mark.parametrize("key,value", [
        ("repeats", 3.0), ("repeats", True), ("repeats", "3"), ("window", 2.5),
        ("window", 200.0), ("window", True), ("base_seed", float("nan")),
        ("base_seed", 1.0), ("base_seed", False)])
    def test_counts_must_be_ints(self, key, value):
        # repeats=3.0 used to pass and then fail the first classify in range()
        online = {"kind": "online", "window": 200}
        with pytest.raises(ValueError, match=f"{key} must be an integer") as err:
            OracleConfig(**{**online, key: value})
        assert str(err.value).partition(" ")[0] == key


class TestJudge:
    """OracleConfig checks a run against a formula and votes on the checks."""

    FORMULA = And((Globally(Atom("x", "<", 99), label="easy"),
                   Globally(Atom("x", "<", -99)),
                   Globally(Atom("x", "<", -98), label="later")))

    def test_check_names_the_first_failing_conjunct(self):
        run = simulate(PlantModel(), PidConfig(1, 0.5, 1), SHORT_HOLD)
        for cfg in (OracleConfig(), OracleConfig(kind="online", window=50)):
            assert cfg.check(self.FORMULA, run) == (False, "conjunct_1")
            assert cfg.check(self.FORMULA.children[0], run) == (True, None)
            assert cfg.check(Globally(Atom("x", ">", 99), label="far"), run) == (False, "far")

    def test_check_reads_only_the_samples_it_is_given(self):
        run = simulate(PlantModel(), PidConfig(3, 1, 2), SHORT_HOLD)
        spec = Globally(Atom("t", "<", 0.5), label="early")
        for cfg in (OracleConfig(), OracleConfig(kind="online", window=5)):
            assert cfg.check(spec, run.head(50)) == (True, None)
            assert cfg.check(spec, run) == (False, "early")

    @pytest.mark.parametrize("checks,verdict", [
        ([(True, None)], Verdict(True, None, 1)),
        ([(False, "a")], Verdict(False, "a", 0)),
        ([(False, "a"), (True, None), (False, "b")], Verdict(False, "a", 1)),
        ([(True, None), (False, "b"), (True, None)], Verdict(True, None, 2)),
        ([(True, None), (False, "b"), (False, "c")], Verdict(False, "b", 1))])
    def test_vote_is_the_majority_and_names_the_first_failing_run(self, checks, verdict):
        assert OracleConfig(repeats=len(checks)).vote(iter(checks)) == verdict


class TestSimulationValidator:
    def test_known_verdicts(self):
        v = SimulationValidator(PlantModel(), hold_mission(), OracleConfig())
        assert v.classify(PidConfig(1, 0.5, 1)).valid
        assert not v.classify(PidConfig(1, 5, 1)).valid

    def test_violated_spec_names_failing_clause(self):
        v = SimulationValidator(PlantModel(), hold_mission(), OracleConfig())
        verdict = v.classify(PidConfig(1, 5, 1))
        assert verdict.violated_spec == "hold_tolerance"
        assert v.classify(PidConfig(1, 0.5, 1)).violated_spec is None

    def test_first_failing_conjunct_reported(self):
        v = SimulationValidator(
            PlantModel(), hold_mission(), OracleConfig(),
            formula=And((Globally(Atom("x", "<", -99), label="impossible"),
                         Globally(Atom("x", "<", 99), label="easy"))))
        assert v.classify(PidConfig(1, 0.5, 1)).violated_spec == "impossible"

    def test_unlabeled_conjunct_gets_positional_name(self):
        v = SimulationValidator(PlantModel(), hold_mission(), OracleConfig(),
                                formula=And((Globally(Atom("x", "<", 99)),
                                             Globally(Atom("x", ">", 99)))))
        assert v.classify(PidConfig(1, 0.5, 1)).violated_spec == "conjunct_1"

    def test_deterministic_across_calls(self):
        # a fresh validator per call, so the second verdict is simulated too
        cfg = OracleConfig(repeats=3, base_seed=11)
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.01))
        pid = PidConfig(1, 1.2, 1)
        first = SimulationValidator(plant, hold_mission(), cfg).classify(pid)
        second = SimulationValidator(plant, hold_mission(), cfg).classify(pid)
        assert first == second

    def test_online_oracle_kind_runs(self):
        cfg = OracleConfig(kind="online", window=50)
        v = SimulationValidator(PlantModel(), hold_mission(), cfg)
        assert v.classify(PidConfig(1, 0.5, 1)).valid


SHORT_MISSIONS = (hold_mission(settle_deadline=4.0, duration=8.0),
                  brake_mission(brake_at=3.0, brake_deadline=3.0, duration=8.0),
                  circle_mission(freq=0.25, settle_deadline=4.0, duration=8.0),
                  return_home_mission(out_t=2.0, return_t=2.0, settle_deadline=6.0,
                                      mono_margin=0.5, duration=8.0))

GAIN = st.floats(-1e6, 1e6) | st.sampled_from([-1e6, -1e5, 1e5, 1e6, -1e200, 1e200, 1e300])


class TestDivergentGains:
    """Any gains within +-1e6, or as huge as 1e300, give a trace that is
    finite or judged invalid, and nothing raises (numpy warnings are errors
    under pytest)."""

    @settings(max_examples=80, deadline=None)
    @given(kp=GAIN, ki=GAIN, kd=GAIN, sigma=st.sampled_from([0.0, 0.02]),
           amp=st.sampled_from([0.0, 0.5]))
    def test_finite_or_invalid_and_never_raises(self, kp, ki, kd, sigma, amp):
        pid = PidConfig(kp, ki, kd)
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=sigma, disturbance_amp=amp,
                                           disturbance_freq=0.2))
        for mission in SHORT_MISSIONS:
            traj = simulate(plant, pid, mission)
            finite = all(np.isfinite(getattr(traj, name)).all() for name in "txvre")
            for cfg in (OracleConfig(), OracleConfig(kind="online", window=100)):
                verdict = SimulationValidator(plant, mission, cfg).classify(pid)
                assert finite or not verdict.valid, (mission.mode, cfg.kind)

    def test_overflowing_integral_turns_the_trace_nan_and_invalid(self):
        pid = PidConfig(1e5, 1e5, 1e5)
        traj = simulate(PlantModel(), pid, hold_mission())
        assert np.isnan(traj.x).any()
        assert not SimulationValidator(PlantModel(), hold_mission(),
                                       OracleConfig()).classify(pid).valid


class TestADecidedPrefixFailsItsFirstConjunct:
    """Where OracleConfig.decided reads a prefix shorter than its samples as
    decided, check names the first conjunct, on the prefix and on the run
    of those samples that starts with it, and so does check given those
    samples, which evaluates nothing."""

    @settings(max_examples=300, deadline=None)
    @given(first=formulas(), rest=st.none() | formulas(), label=st.sampled_from([None, "first"]),
           tw=traces_and_windows(), kind=st.sampled_from(["offline", "online", "repeats-3"]),
           data=st.data())
    def test_check_names_the_first_conjunct(self, first, rest, label, tw, kind, data):
        run, window = tw
        samples = len(run)
        formula = first if rest is None else And((replace(first, label=label), rest))
        k = data.draw(st.integers(1, samples - 1), label="prefix length")
        # half the online windows fit in the prefix, where an alarm decides it
        if kind == "online" and k > 2 and data.draw(st.booleans(), label="short window"):
            window = data.draw(st.integers(2, k - 1), label="window")
        cfg = {"offline": OracleConfig(), "online": OracleConfig(kind="online", window=window),
               "repeats-3": OracleConfig(repeats=3, base_seed=2)}[kind]
        prefix = run.head(k)
        if cfg.decided(formula, prefix, samples):
            head = formula.children[0] if isinstance(formula, And) else formula
            want = (False, head.label or "conjunct_0")
            assert cfg.check(formula, prefix) == want
            assert cfg.check(formula, run) == want
            assert cfg.check(formula, prefix, samples) == want


class TestMajorityVoting:
    @pytest.fixture
    def make_stub(self, monkeypatch):
        """Validator whose per-seed run verdicts are scripted."""
        def make(outcomes):
            v = SimulationValidator(PlantModel(), hold_mission(),
                                    OracleConfig(repeats=len(outcomes)))
            calls = []

            def fake_simulate(plant, pid, mission, **kwargs):
                calls.append(plant.noise.seed)
                return len(calls) - 1  # stands in for the trajectory of run k

            monkeypatch.setattr(validator_module, "simulate", fake_simulate)
            monkeypatch.setattr(OracleConfig, "check", lambda self, formula, k, samples=0:
                                (True, None) if outcomes[k] else (False, "scripted"))
            return v, calls
        return make

    def test_two_of_three_wins(self, make_stub):
        v, calls = make_stub([True, False, True])
        verdict = v.classify(PidConfig(1, 1, 1))
        assert verdict.valid and verdict.votes_valid == 2
        assert calls == [0, 1, 2]

    def test_minority_valid_loses(self, make_stub):
        v, _ = make_stub([False, True, False])
        verdict = v.classify(PidConfig(1, 1, 1))
        assert not verdict.valid
        assert verdict.violated_spec == "scripted"
        assert verdict.votes_valid == 1

    def test_seeds_offset_by_base(self, make_stub):
        v, calls = make_stub([True, True, True])
        v.cfg = OracleConfig(repeats=3, base_seed=40)
        v.classify(PidConfig(1, 1, 1))
        assert calls == [40, 41, 42]


class TestQueryCounter:
    def test_one_increment_per_classify(self):
        v = SimulationValidator(PlantModel(), hold_mission(), OracleConfig())
        v.classify(PidConfig(1, 0.5, 1))
        v.classify(PidConfig(1, 5, 1))
        assert query_count() == 2

    def test_repeats_still_count_once(self):
        v = SimulationValidator(PlantModel(), hold_mission(),
                                OracleConfig(repeats=3))
        v.classify(PidConfig(1, 0.5, 1))
        assert query_count() == 1

    def test_thread_safety(self):
        v = LookupValidator(lambda pid: True)
        threads = [threading.Thread(target=lambda: [v.classify(PidConfig(1, 1, 1))
                                                    for _ in range(200)])
                   for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert query_count() == 1600


SHORT_HOLD = hold_mission(settle_deadline=4.0, duration=8.0)


@pytest.fixture
def sim_calls(monkeypatch):
    """The pid of each validator.simulate call, in call order: one per run
    that the validator builds one at a time."""
    calls = []
    real = validator_module.simulate

    def counting(plant, pid, mission, **kwargs):
        calls.append(pid)
        return real(plant, pid, mission, **kwargs)

    monkeypatch.setattr(validator_module, "simulate", counting)
    return calls


class TestVerdictMemo:
    PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.01, disturbance_amp=0.1,
                                       disturbance_freq=0.2))
    CFG = OracleConfig(repeats=3, base_seed=5)
    PIDS = (PidConfig(3, 1, 2), PidConfig(1, 5, 1), PidConfig(2, 1.2, 0.4))

    def test_one_simulation_per_run_of_each_distinct_pid(self, sim_calls):
        v = SimulationValidator(self.PLANT, SHORT_HOLD, self.CFG)
        for pid in self.PIDS + self.PIDS[::-1] + self.PIDS:
            v.classify(pid)
        assert sim_calls == [pid for pid in self.PIDS for _ in range(3)]
        # the memo is per instance: another validator simulates again
        SimulationValidator(self.PLANT, SHORT_HOLD, self.CFG).classify(self.PIDS[0])
        assert sim_calls[9:] == [self.PIDS[0]] * 3

    def test_every_classify_counts_one_query(self):
        v = SimulationValidator(self.PLANT, SHORT_HOLD, self.CFG)
        for _ in range(4):
            v.classify(self.PIDS[0])
        v.classify(self.PIDS[1])
        assert query_count() == 5

    def test_memoised_verdict_equals_a_fresh_validators(self):
        for cfg in (self.CFG, OracleConfig(kind="online", window=100)):
            v = SimulationValidator(self.PLANT, SHORT_HOLD, cfg)
            first = [v.classify(pid) for pid in self.PIDS]
            again = [v.classify(pid) for pid in self.PIDS]
            fresh = [SimulationValidator(self.PLANT, SHORT_HOLD, cfg).classify(pid)
                     for pid in self.PIDS]
            assert again == first == fresh
            assert {verdict.valid for verdict in fresh} == {True, False}

    def test_given_runs_are_judged_without_simulating(self, sim_calls):
        # a judge with another kind or window but the same repeats and
        # base_seed votes on the runs the validator builds for its own cfg
        off = SimulationValidator(self.PLANT, SHORT_HOLD, self.CFG)
        on_cfg = OracleConfig(kind="online", window=100, repeats=3, base_seed=5)
        for pid, (off_verdict, on_verdict) in off._verdicts(
                list(self.PIDS), ((self.CFG, None), (on_cfg, None))):
            assert off_verdict == SimulationValidator(
                self.PLANT, SHORT_HOLD, self.CFG).classify(pid)
            assert on_verdict == SimulationValidator(
                self.PLANT, SHORT_HOLD, on_cfg).classify(pid)
        # _verdicts once per pid, then the two fresh validators per pid;
        # _verdicts counts no query and fills no memo
        assert len(sim_calls) == 3 * 3 * len(self.PIDS)
        assert query_count() == 2 * len(self.PIDS)
        assert off._memo == {}


class TestBaselinesOnTheMemo:
    """The memo changes what a revisit costs, not what a searcher sees."""

    SPACE = ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                       i_min=0.5, i_max=4.5, i_step=1.0,
                       d_min=0.2, d_max=1.0, d_step=0.4)

    @pytest.mark.parametrize("fn", [hill_climb, genetic_search])
    def test_same_result_and_budget_with_fewer_simulations(self, fn, sim_calls):
        budget = 40
        memo = fn(self.SPACE, SimulationValidator(PlantModel(), SHORT_HOLD, OracleConfig()),
                  budget=budget, seed=3)
        assert query_count() == budget
        memo_sims = len(sim_calls)
        assert memo_sims == len(set(sim_calls)) < budget

        del sim_calls[:]
        # a fresh validator per query: every query simulates
        fresh = fn(self.SPACE,
                   LookupValidator(lambda pid: SimulationValidator(
                       PlantModel(), SHORT_HOLD, OracleConfig()).classify(pid).valid),
                   budget=budget, seed=3)
        assert len(sim_calls) == budget
        assert len(set(sim_calls)) == memo_sims
        assert fresh == memo and memo


class TestRouthValidator:
    def test_matches_stability_predicate(self):
        v = RouthValidator(a1=1.0, a2=1.0)
        for pid in (PidConfig(1, 0.5, 1), PidConfig(1, 5, 1),
                    PidConfig(-0.5, 0.1, 1), PidConfig(2, 8.99, 2)):
            assert v.classify(pid).valid == routh_stable(pid, 1.0, 1.0)

    def test_violation_label(self):
        assert (RouthValidator(1, 1).classify(PidConfig(1, 5, 1)).violated_spec
                == "routh_hurwitz")

    def test_counts_queries(self):
        v = RouthValidator(1, 1)
        v.classify(PidConfig(1, 1, 1))
        v.classify(PidConfig(1, 2, 1))
        assert query_count() == 2

    def test_verdicts_are_two_shared_objects(self):
        v = RouthValidator(1, 1)
        stable = v.classify(PidConfig(1, 0.5, 1))
        assert v.classify(PidConfig(2, 0.5, 1)) is stable
        assert v.classify_many([PidConfig(1, 5, 1), PidConfig(3, 0.2, 0)]) == [
            v.classify(PidConfig(1, 6, 1)), stable]
        assert v.classify_many([PidConfig(3, 0.2, 0)])[0] is stable


# gains: small integers, integer-valued and short floats, zeros of both
# signs, and magnitudes whose sums and products overflow
ROUTH_GAIN = (st.integers(-4, 4) | st.integers(-4, 4).map(float)
              | st.sampled_from([0.0, -0.0]) | st.floats(-20, 20)
              | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def routh_batches(draw):
    a1 = draw(st.integers(-3, 3) | st.floats(-10, 10))
    a2 = draw(st.integers(-3, 3) | st.floats(-10, 10))
    pids = []
    for _ in range(draw(st.integers(0, 16))):
        kp, kd = draw(ROUTH_GAIN), draw(ROUTH_GAIN)
        tie = (kp + a1) * (kd + a2)  # the exact product routh_stable compares
        ki = draw(st.sampled_from([tie, math.nextafter(tie, math.inf),
                                   math.nextafter(tie, -math.inf), 0.0, None]))
        if ki is None or not math.isfinite(ki):
            ki = draw(ROUTH_GAIN)
        pids.append(PidConfig(kp, ki, kd))
    return a1, a2, pids


class TestClassifyMany:
    @settings(max_examples=300, deadline=None)
    @given(case=routh_batches())
    def test_routh_batch_equals_the_classify_loop(self, case):
        a1, a2, pids = case
        v = RouthValidator(a1, a2)
        q0 = query_count()
        batch = v.classify_many(pids)
        assert query_count() - q0 == len(pids)
        assert batch == [v.classify(pid) for pid in pids]
        assert [verdict.valid for verdict in batch] == [routh_stable(pid, a1, a2)
                                                        for pid in pids]

    def test_routh_batch_takes_any_iterable(self):
        v = RouthValidator(1, 1)
        pids = [PidConfig(1, 0.5, 1), PidConfig(1, 5, 1)]
        assert v.classify_many(iter(pids)) == v.classify_many(pids)
        assert v.classify_many([]) == []
        assert query_count() == 4

    def test_an_overriding_classify_is_called_per_pid(self):
        class Inverted(RouthValidator):
            def classify(self, pid):
                return RouthValidator(self.a1, self.a2).classify(pid._replace(ki=-pid.ki))

        pids = [PidConfig(1, 0.5, 1), PidConfig(1, -0.5, 1)]
        assert [v.valid for v in Inverted(1, 1).classify_many(pids)] == [False, True]
        assert query_count() == 2

    def test_the_base_classify_is_classify_many_of_one_pid(self):
        class Recording(Validator):
            def __init__(self):
                self.asked = []

            def classify_many(self, pids):
                self.asked.append(pids)
                return [f"verdict on {pid}" for pid in pids]

        v = Recording()
        assert v.classify("a") == "verdict on a"
        assert v.asked == [("a",)]
        with pytest.raises(NotImplementedError):
            Validator().classify(PidConfig(1, 1, 1))

    def test_default_on_a_lookup_oracle(self):
        v = LookupValidator(lambda pid: pid.ki < 1)
        pids = [PidConfig(1, 0.5, 1), PidConfig(1, 5, 1)]
        assert [verdict.valid for verdict in v.classify_many(pids)] == [True, False]
        assert query_count() == 2


# a pool of pids for the contract property: cells of the kp = 4 plane with
# valid and invalid verdicts under each validator below
CONTRACT_PIDS = [PidConfig(4.0, ki, kd) for ki in (0.2, 1.0, 4.0, 8.0)
                 for kd in (0.5, 1.5, 3.0)]
CONTRACT_VALIDATORS = {
    "simulation": lambda: SimulationValidator(
        PlantModel(noise=NoiseSpec(sensor_sigma=0.08, disturbance_amp=0.1,
                                   disturbance_freq=0.2)),
        SHORT_HOLD, OracleConfig(repeats=3)),
    "routh": lambda: RouthValidator(1, 1),
    "lookup": lambda: LookupValidator(lambda pid: pid.ki < 2 * pid.kd),
}


class TestOneContract:
    @pytest.mark.parametrize("kind", CONTRACT_VALIDATORS)
    @settings(max_examples=15, deadline=None)
    @given(pids=st.lists(st.sampled_from(CONTRACT_PIDS), max_size=16),
           batch_min=st.sampled_from([1, validator_module.BATCH_MIN]))
    def test_classify_many_is_the_classify_loop(self, kind, pids, batch_min):
        make = CONTRACT_VALIDATORS[kind]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validator_module, "BATCH_MIN", batch_min)
            q0 = query_count()
            batch = make().classify_many(iter(pids))
            q1 = query_count()
            loop = make()
            assert batch == [loop.classify(pid) for pid in pids]
            assert q1 - q0 == query_count() - q1 == len(pids)

    @pytest.mark.parametrize("kind", CONTRACT_VALIDATORS)
    def test_the_pool_holds_both_verdicts(self, kind):
        verdicts = CONTRACT_VALIDATORS[kind]().classify_many(CONTRACT_PIDS)
        assert {verdict.valid for verdict in verdicts} == {True, False}


@pytest.fixture
def batch_calls(monkeypatch):
    """(noise seed, pids) of each validator.simulate_batch call, in call order."""
    calls = []
    real = validator_module.simulate_batch

    def counting(plant, pids, mission):
        calls.append((plant.noise.seed, list(pids)))
        return real(plant, pids, mission)

    monkeypatch.setattr(validator_module, "simulate_batch", counting)
    return calls


@pytest.mark.usefixtures("python_engine")
class TestSimulationClassifyMany:
    PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.08, disturbance_amp=0.1,
                                       disturbance_freq=0.2))
    # 30 cells of the kp = 4 plane around its valid patch on the short hold;
    # with three runs, (4, 1, 1.5) splits its vote 2 to 1
    PIDS = [PidConfig(4.0, ki, kd) for ki in (0.2, 0.5, 1.0, 2.0, 4.0, 8.0)
            for kd in (0.5, 1.0, 1.5, 2.0, 3.0)]

    def fresh(self, cfg=OracleConfig()):
        return SimulationValidator(self.PLANT, SHORT_HOLD, cfg)

    # new pids: all 30 of PIDS, or the first BATCH_MIN - 1 or BATCH_MIN
    @pytest.mark.parametrize("cfg,new", [
        pytest.param(cfg, new, id=name + suffix)
        for name, cfg in (("offline", OracleConfig(base_seed=4)),
                          ("offline-repeats-3", OracleConfig(repeats=3, base_seed=4)),
                          ("online-repeats-3",
                           OracleConfig(kind="online", window=100, repeats=3)))
        for new, suffix in ((None, ""), (-1, "-below-batch-min"), (0, "-at-batch-min"))])
    def test_equals_the_classify_loop(self, cfg, new, batch_calls, sim_calls):
        pids = self.PIDS if new is None else self.PIDS[:validator_module.BATCH_MIN + new]
        batch = self.fresh(cfg).classify_many(pids)
        assert query_count() == len(pids)
        seeds = [cfg.base_seed + j for j in range(cfg.repeats)]
        if len(pids) < validator_module.BATCH_MIN:
            assert batch_calls == []
            assert sim_calls == [pid for pid in pids for _ in seeds]
        else:
            assert batch_calls == [(seed, pids) for seed in seeds]
            assert sim_calls == []
        loop = self.fresh(cfg)
        assert batch == [loop.classify(pid) for pid in pids]
        assert {verdict.valid for verdict in batch} == {True, False}
        if cfg.repeats == 3 and cfg.kind == "offline":
            assert batch[pids.index(PidConfig(4.0, 1.0, 1.5))].votes_valid == 2

    def test_duplicates_and_memo_hits_are_not_simulated_again(self, monkeypatch,
                                                              batch_calls, sim_calls):
        v = self.fresh(OracleConfig(repeats=3))
        a, b, c = self.PIDS[:3]
        v.classify(a)
        monkeypatch.setattr(validator_module, "BATCH_MIN", 1)
        batch = v.classify_many([b, a, c, b, c, a])
        assert query_count() == 1 + 6
        assert sim_calls == [a] * 3
        assert batch_calls == [(0, [b, c]), (1, [b, c]), (2, [b, c])]
        again = v.classify_many(iter([c, b, a, c]))
        assert query_count() == 1 + 6 + 4
        assert len(sim_calls) == 3 and len(batch_calls) == 3
        assert batch == [v.classify(pid) for pid in (b, a, c, b, c, a)]
        assert again == [batch[2], batch[0], batch[1], batch[2]]

    def test_the_first_failing_run_names_the_clause(self, monkeypatch):
        # each run stands in for its trajectory by its seed, and fails a
        # clause of its own
        monkeypatch.setattr(validator_module, "simulate",
                            lambda plant, pid, mission, **kwargs: plant.noise.seed)
        monkeypatch.setattr(validator_module, "simulate_batch",
                            lambda plant, pids, mission: [plant.noise.seed] * len(pids))
        monkeypatch.setattr(OracleConfig, "check", lambda self, formula, seed, samples=0:
                            (seed == 8, f"clause_{seed}"))
        v = self.fresh(OracleConfig(repeats=3, base_seed=7))
        assert v.classify_many(self.PIDS[:2]) == [v.classify(self.PIDS[2])] * 2
        assert v.classify(self.PIDS[2]).violated_spec == "clause_7"

    def test_a_single_new_pid_is_simulated_alone(self, batch_calls, sim_calls):
        v = self.fresh(OracleConfig(repeats=3))
        batch = v.classify_many([self.PIDS[0]] * 3)
        assert sim_calls == [self.PIDS[0]] * 3
        assert batch_calls == [] and query_count() == 3
        assert batch == [self.fresh(OracleConfig(repeats=3)).classify(self.PIDS[0])] * 3

    def test_classify_is_classify_many_of_one_pid(self, monkeypatch, sim_calls):
        asked = []
        real = SimulationValidator.classify_many

        def recording(self, pids):
            asked.append(list(pids))
            return real(self, pids)

        monkeypatch.setattr(SimulationValidator, "classify_many", recording)
        v = self.fresh()
        a, b = self.PIDS[:2]
        assert v.classify(a) == real(self.fresh(), [a])[0]
        assert asked == [[a]] and query_count() == 2
        # _verdicts simulates without a query or a memo entry; classify_many keeps both
        [(pid, verdicts)] = v._verdicts([b], ((v.cfg, None),))
        assert pid == b and len(verdicts) == 1
        assert query_count() == 2
        assert v.classify(b) == v.classify_many([b])[0] == verdicts[0]
        assert asked == [[a], [b], [b]]
        assert len(sim_calls) == 4 and query_count() == 4

    # BATCH_BYTES in runs of one seed; chunk sizes with three seeds
    @pytest.mark.parametrize("runs,sizes", [
        (5, [5]), (2, [1, 2, 2]), (1, [1, 1, 1, 1, 1])])
    def test_each_seeds_batch_fits_the_byte_budget(self, monkeypatch, batch_calls,
                                                   runs, sizes):
        run_bytes = 16 * sample_count(self.PLANT, SHORT_HOLD)
        monkeypatch.setattr(validator_module, "BATCH_BYTES", runs * run_bytes)
        monkeypatch.setattr(validator_module, "BATCH_MIN", 1)
        cfg = OracleConfig(repeats=3)
        pids = self.PIDS[::3][:5]
        batch = self.fresh(cfg).classify_many(pids)
        # one seed's batch is alive at a time, so each has BATCH_BYTES to
        # itself, and a chunk's three batches come one after another
        ends = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
        assert batch_calls == [(seed, pids[lo:hi]) for lo, hi in zip(ends, ends[1:])
                               for seed in range(3)]
        assert batch == [self.fresh(cfg).classify(pid) for pid in pids]

    @pytest.mark.parametrize("batch_min", [1, 100], ids=["batched", "one-at-a-time"])
    def test_no_run_outlives_its_check(self, monkeypatch, freed_runs, batch_min):
        run_bytes = 16 * sample_count(self.PLANT, SHORT_HOLD)
        monkeypatch.setattr(validator_module, "BATCH_BYTES", 2 * run_bytes)
        monkeypatch.setattr(validator_module, "BATCH_MIN", batch_min)
        self.fresh(OracleConfig(repeats=3)).classify_many(self.PIDS[:6])
        # three chunks of two pids, or eighteen runs one at a time
        assert freed_runs == ({"simulate": 0, "simulate_batch": 9} if batch_min == 1
                              else {"simulate": 18, "simulate_batch": 0})

    def test_nothing_new_simulates_nothing(self, monkeypatch, batch_calls, sim_calls):
        monkeypatch.setattr(validator_module, "BATCH_MIN", 1)
        v = self.fresh()
        v.classify_many(self.PIDS[:2])
        assert v.classify_many([]) == []
        assert v.classify_many(self.PIDS[1::-1]) == v.classify_many(self.PIDS[:2])[::-1]
        assert len(batch_calls) == 1 and sim_calls == []
        assert query_count() == 2 + 0 + 2 + 2

    # BATCH_BYTES = runs * (bytes of one run) + extra; new pids; batch sizes
    @pytest.mark.parametrize("runs,extra,new,sizes", [
        (1, -1, 3, [1, 1, 1]),  # a batch is one run at the least
        (4, 0, 3, [3]), (4, 0, 4, [4]), (4, 0, 5, [2, 3]), (4, 0, 9, [3, 3, 3]),
        (4, -1, 4, [2, 2]), (4, 1, 4, [4])])
    def test_batches_split_at_the_byte_budget(self, monkeypatch, batch_calls,
                                              runs, extra, new, sizes):
        run_bytes = 16 * sample_count(self.PLANT, SHORT_HOLD)
        monkeypatch.setattr(validator_module, "BATCH_BYTES", runs * run_bytes + extra)
        monkeypatch.setattr(validator_module, "BATCH_MIN", 1)
        pids = self.PIDS[::3][:new]
        batch = self.fresh().classify_many(pids)
        assert [len(chunk) for _, chunk in batch_calls] == sizes
        assert [pid for _, chunk in batch_calls for pid in chunk] == pids
        assert batch == [self.fresh().classify(pid) for pid in pids]


# The four modes on a 12 s mission, each spec deciding well before the end
MODE_MISSIONS = [
    hold_mission(hold_tol=0.1, settle_deadline=6.0, duration=12.0),
    brake_mission(brake_at=4.0, brake_deadline=4.0, v_stop=0.1, duration=12.0),
    circle_mission(radius=1.0, freq=0.2, circle_tol=0.3, settle_deadline=6.0, duration=12.0),
    return_home_mission(out_dist=2.0, out_t=3.0, return_t=3.0, home_radius=0.3,
                        settle_deadline=9.0, mono_margin=1.0, duration=12.0)]


def early_and_full(v, pids, judges):
    """(verdicts, run lengths) of v._verdicts with every run simulated and
    paused as _verdicts asks, then the verdicts of the same runs built
    whole."""
    real = validator_module.simulate
    lengths = []

    def paused(plant, pid, mission, **kwargs):
        run = real(plant, pid, mission, **kwargs)
        lengths.append(len(run))
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validator_module, "simulate", paused)
        early = list(v._verdicts(pids, judges))
        mp.setattr(validator_module, "simulate",
                   lambda plant, pid, mission, **kwargs: real(plant, pid, mission))
        assert early == list(v._verdicts(pids, judges))
    return early, lengths


class TestEarlyStop:
    """A run that _verdicts simulates one at a time ends at the first pause
    where every judge's check is decided, and its verdicts (valid,
    violated_spec and votes_valid) are those of the whole run."""

    PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.03, disturbance_amp=0.2,
                                       disturbance_freq=0.7))
    PIDS = [PidConfig(2.0, 1.0, 2.0), PidConfig(1.0, 0.5, 1.0), PidConfig(1.0, 5.0, 1.0),
            PidConfig(0.2, 3.0, 0.2), PidConfig(-5.0, 1.0, -3.0), PidConfig(1e5, 1e5, 1e5)]

    # a drawn formula guarded as the mode specs are, G (t > c -> f), so
    # that runs pause at c, where f's obligations may reach past the pause;
    # a G that ends at 9 s leaves f's obligations inside the run
    GUARDS = st.sampled_from([1.0, 3.0, 6.0, 9.0])
    GUARD_ENDS = st.sampled_from([None, 9.0])
    # windows at and next to the pauses of the guards and the deadlines
    NEAR_STOPS = st.sampled_from([101, 102, 103, 301, 302, 303, 601, 602, 603, 801, 802, 902])

    @settings(max_examples=100, deadline=None)
    @given(mission=st.sampled_from(MODE_MISSIONS), data=st.data(),
           shape=st.sampled_from(["mode", "random", "guarded", "guarded-then-mode",
                                  "mode-then-guarded"]),
           repeats=st.sampled_from([1, 3]), base_seed=st.integers(0, 50),
           pids=st.lists(st.sampled_from(PIDS), min_size=1, max_size=3, unique=True))
    def test_verdicts_equal_the_whole_runs(self, mission, data, shape, repeats, base_seed,
                                           pids):
        spec = mode_spec(mission)
        drawn = None if shape == "mode" else data.draw(formulas(), label="formula")
        if shape != "mode" and shape != "random":
            end = data.draw(self.GUARD_ENDS, label="guard end")
            drawn = Globally(Implies(Atom("t", ">", data.draw(self.GUARDS, label="guard")),
                                     drawn), t_lo=None if end is None else 0.0, t_hi=end)
        formula = {"mode": spec, "random": drawn, "guarded": drawn,
                   "guarded-then-mode": And((drawn, spec)),
                   "mode-then-guarded": And((spec, drawn))}[shape]
        n = sample_count(self.PLANT, mission)
        # judges: offline or online, the window below, at or above the head,
        # and the head the whole run (None) or shorter or longer than it
        windows = st.integers(2, n + 40) | self.NEAR_STOPS
        heads = st.none() | st.integers(2, n + 40) | self.NEAR_STOPS
        shapes = st.lists(st.tuples(st.booleans(), windows, heads), min_size=1, max_size=4)
        cfg = OracleConfig(repeats=repeats, base_seed=base_seed)
        judges = tuple((replace(cfg, kind="online", window=window) if online else cfg, head)
                       for online, window, head in data.draw(shapes, label="judges"))
        v = SimulationValidator(self.PLANT, mission, cfg, formula=formula)
        _, lengths = early_and_full(v, pids, judges)
        assert len(lengths) == repeats * len(pids) and max(lengths) <= n

    @pytest.mark.parametrize("window", [None, 302], ids=["offline", "online-window-302"])
    def test_an_obligation_past_the_pause_does_not_end_the_run(self, window):
        # at the pause just past t = 3, 302 samples, each sample's E [1 2]
        # looks past the prefix; read on the samples that exist it would
        # fail there, and so would eval_online over a window as long as the
        # prefix
        formula = Globally(Implies(Atom("t", ">", 3.0),
                                   Eventually(Atom("x", ">", 0.5), t_lo=1.0, t_hi=2.0)),
                           t_lo=0.0, t_hi=9.0)
        mission = MODE_MISSIONS[0]
        cfg = OracleConfig() if window is None else OracleConfig(kind="online", window=window)
        v = SimulationValidator(self.PLANT, mission, cfg, formula=formula)
        verdicts, lengths = early_and_full(v, [PidConfig(4.0, 1.0, 3.0)], ((cfg, None),))
        assert lengths == [sample_count(self.PLANT, mission)]
        assert verdicts[0][1][0].valid

    def test_only_the_first_conjunct_ends_a_run(self):
        # the second conjunct fails at once, and the first only at t = 10,
        # which it names: the run pauses at t > 3 and ends just past t = 10
        first = Globally(Implies(Atom("t", ">", 3.0), Atom("t", "<", 10.0)), label="first")
        formula = And((first, Globally(Atom("abs_e", "<", 1e-9), label="second")))
        v = SimulationValidator(self.PLANT, MODE_MISSIONS[0], OracleConfig(), formula=formula)
        verdicts, lengths = early_and_full(v, [PidConfig(4.0, 1.0, 3.0)], ((v.cfg, None),))
        assert lengths == [1002]
        assert verdicts[0][1][0].violated_spec == "first"

    # each mission with the first sample count past its spec's deadline
    @pytest.mark.parametrize("mission,stop", zip(MODE_MISSIONS, (602, 802, 602, 902)),
                             ids=[mission.mode for mission in MODE_MISSIONS])
    def test_runs_bound_for_the_clamp_stop_early_on_every_mode(self, mission, stop,
                                                               monkeypatch):
        v = SimulationValidator(self.PLANT, mission, OracleConfig(repeats=3))
        judges = ((v.cfg, None), (replace(v.cfg, kind="online", window=150), None),
                  (v.cfg, 600))
        # clamped, NaN, and huge gains that overflow to inf and nan without
        # a warning (an error here); then a valid pid
        diverging = [PidConfig(-5.0, 1.0, -3.0), PidConfig(1e5, 1e5, 1e5),
                     PidConfig(1e200, 1.0, 1.0), PidConfig(-1e300, 0.0, 0.0)]
        pids = [*diverging, PidConfig(4.0, 1.0, 3.0)]
        # the platform's engine, then the Python loop's one-at-a-time route
        for engine in (plant_module._engine, plant_module._python_steps):
            monkeypatch.setattr(plant_module, "_engine", engine)
            verdicts, lengths = early_and_full(v, pids, judges)
            # a spec's first conjunct fails just past its deadline on every
            # run that diverges, and every run of the valid pid is simulated
            # whole
            assert lengths == ([stop] * 3 * len(diverging)
                               + [sample_count(self.PLANT, mission)] * 3)
            # the whole-run judges; early_and_full compared all three
            assert [[verdict.valid for verdict in row[:2]] for _, row in verdicts] == [
                [False, False]] * len(diverging) + [[True, True]]


# The routes _verdicts takes, as (engine fixture, BATCH_MIN): the Python
# loop one pid at a time or batched, and the compiled kernel, which runs
# every pid one at a time whatever BATCH_MIN says
ROUTES = {"one-at-a-time": ("python_engine", 100), "batched": ("python_engine", 1),
          "kernel": ("kernel_engine", 1)}


@pytest.fixture(params=list(ROUTES))
def route(request, monkeypatch):
    """Send the test's new pids down one of _verdicts' routes; returns its name."""
    engine, batch_min = ROUTES[request.param]
    request.getfixturevalue(engine)
    monkeypatch.setattr(validator_module, "BATCH_MIN", batch_min)
    return request.param


class TestEveryRouteIsSimulate:
    """Every run a check sees on every route is bit for bit simulate's, so
    each verdict is the one simulate and cfg.check give, seed by seed: no
    verdict rests on a tolerance."""

    PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.03, disturbance_amp=0.2,
                                       disturbance_freq=0.7))
    PID = PidConfig(1.0, 0.5, 1.0)

    def exact(self, v, pid):
        """The verdict from simulate and cfg.check alone, seed by seed."""
        return v.cfg.vote([v.cfg.check(v.formula, simulate(plant, pid, v.mission))
                           for plant in v._plants])

    def calls(self, route, runs, batches):
        """freed_runs' counts for runs one at a time, or batches batched."""
        if route == "batched":
            return {"simulate": 0, "simulate_batch": batches}
        return {"simulate": runs, "simulate_batch": 0}

    def test_a_threshold_at_a_samples_error(self, route, freed_runs):
        # hold_tol at the largest settled error fails the strict bound on
        # that sample; the next float up passes it
        run = simulate(self.PLANT, self.PID, SHORT_HOLD)
        settled = np.abs(run.e)[run.t > SHORT_HOLD.params["settle_deadline"]].max()
        verdicts = []
        for tol in (settled, np.nextafter(settled, 1.0)):
            mission = hold_mission(hold_tol=float(tol), settle_deadline=4.0, duration=8.0)
            v = SimulationValidator(self.PLANT, mission, OracleConfig())
            verdicts.append(v.classify(self.PID))
            assert verdicts[-1] == self.exact(v, self.PID)
        assert [verdict.valid for verdict in verdicts] == [False, True]
        assert freed_runs == self.calls(route, 2, 2)

    @pytest.mark.parametrize("pid", [PidConfig(-5, 1, -3), PidConfig(1e5, 1e5, 1e5),
                                     PidConfig(1e200, 1, 1), PidConfig(-1e300, 0, 0),
                                     PidConfig(0, 1e300, 0), PidConfig(1, 0, -1e300)],
                             ids=["clamped", "nan", "huge", "huge-negative", "huge-integral",
                                  "huge-derivative"])
    def test_a_diverging_pid(self, pid, route, freed_runs):
        # the huge gains overflow to inf and nan without a warning (an
        # error here)
        v = SimulationValidator(self.PLANT, SHORT_HOLD, OracleConfig(repeats=3))
        verdict = v.classify(pid)
        assert freed_runs == self.calls(route, 3, 3)
        assert not verdict.valid and verdict == self.exact(v, pid)

    @pytest.mark.parametrize("mission", MODE_MISSIONS, ids=lambda mission: mission.mode)
    @pytest.mark.parametrize("cfg", [OracleConfig(base_seed=2), OracleConfig(repeats=3),
                                     OracleConfig(kind="online", window=150)],
                             ids=["offline", "offline-repeats-3", "online"])
    def test_verdicts_equal_simulate_on_every_mode(self, cfg, mission, route, freed_runs):
        pids = [PidConfig(p, i, d) for p in (-5.0, 0.5, 2.0, 6.0)
                for i in (0.1, 1.0, 4.0) for d in (-3.0, 0.4, 1.5)]
        v = SimulationValidator(self.PLANT, mission, cfg)
        got = [verdict for k in range(0, len(pids), 9)
               for verdict in v.classify_many(pids[k:k + 9])]
        # four chunks of nine new pids, each batched seed by seed or run
        # one at a time
        assert freed_runs == self.calls(route, len(pids) * cfg.repeats, 4 * cfg.repeats)
        assert got == [self.exact(v, pid) for pid in pids]
        assert {verdict.valid for verdict in got} == {True, False}


@pytest.mark.usefixtures("kernel_engine")
class TestKernelRoute:
    """Where simulate's compiled kernel loads, every new pid is simulated
    one at a time, however many there are, with no simulate_batch, and its
    runs end once decided; the verdicts are those of the Python loop's
    batched route."""

    PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.03, disturbance_amp=0.2,
                                       disturbance_freq=0.7))
    # valid, invalid, clamped and NaN runs on every mode
    PIDS = [PidConfig(p, i, d) for p in (-5.0, 0.5, 2.0, 6.0)
            for i in (0.1, 1.0, 4.0) for d in (-3.0, 0.4, 1.5)] + [PidConfig(1e5, 1e5, 1e5)]

    def test_many_new_pids_take_no_batch(self, freed_runs, sim_calls, batch_calls):
        assert len(self.PIDS) >= validator_module.BATCH_MIN
        v = SimulationValidator(self.PLANT, MODE_MISSIONS[0], OracleConfig(repeats=3))
        v.classify_many(self.PIDS)
        # freed_runs checked that no run outlived its check
        assert sim_calls == [pid for pid in self.PIDS for _ in range(3)]
        assert batch_calls == []
        assert freed_runs == {"simulate": 3 * len(self.PIDS), "simulate_batch": 0}

    @pytest.mark.parametrize("pid,valid,offline", [(PidConfig(-5.0, 1.0, -3.0), False, 0),
                                                   (PidConfig(4.0, 1.0, 3.0), True, 1)],
                             ids=["decided-at-the-pause", "run-whole"])
    def test_a_run_decided_at_the_pause_is_not_judged_again(self, monkeypatch, pid, valid,
                                                             offline):
        calls = {"eval_prefix": 0, "eval_offline": 0}
        for name in calls:
            def counting(*args, real=getattr(validator_module, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(validator_module, name, counting)
        v = SimulationValidator(self.PLANT, MODE_MISSIONS[0], OracleConfig())
        verdict = v.classify(pid)
        # the hold spec pauses the run once, just past its settle deadline
        assert verdict.valid is valid
        assert verdict.violated_spec == (None if valid else "hold_tolerance")
        assert calls == {"eval_prefix": 1, "eval_offline": offline}

    @pytest.mark.parametrize("cfg", [OracleConfig(base_seed=2), OracleConfig(repeats=3),
                                     OracleConfig(kind="online", window=150)],
                             ids=["offline", "offline-repeats-3", "online"])
    def test_verdicts_equal_the_python_loops_batched_verdicts(self, cfg, batch_calls):
        labels = set()
        for mission in MODE_MISSIONS:
            got = SimulationValidator(self.PLANT, mission, cfg).classify_many(self.PIDS)
            assert batch_calls == []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(plant_module, "_engine", plant_module._python_steps)
                want = SimulationValidator(self.PLANT, mission, cfg).classify_many(self.PIDS)
            assert len(batch_calls) == cfg.repeats
            del batch_calls[:]
            # Verdicts compare valid, violated_spec and votes_valid
            assert got == want, mission.mode
            assert {verdict.valid for verdict in got} == {True, False}, mission.mode
            labels |= {verdict.violated_spec for verdict in got}
        assert labels == {None, "hold_tolerance", "brake_stop", "circle_tracking",
                          "home_arrival"}


@pytest.mark.parametrize("engine", ["python_engine", "kernel_engine"])
def test_the_route_follows_the_engine(engine, request, freed_runs, batch_calls):
    # 50 new pids: one batch on the Python loop, one simulate each on the kernel
    request.getfixturevalue(engine)
    pids = [PidConfig(4.0, 0.2 * k, kd) for k in range(1, 11) for kd in (0.5, 1.0, 1.5, 2.0, 3.0)]
    v = SimulationValidator(TestSimulationClassifyMany.PLANT, SHORT_HOLD, OracleConfig())
    verdicts = v.classify_many(pids)
    assert len(pids) == 50 and {verdict.valid for verdict in verdicts} == {True, False}
    if engine == "python_engine":
        assert batch_calls == [(0, pids)] and freed_runs["simulate"] == 0
    else:
        assert batch_calls == [] and freed_runs["simulate"] == 50


@pytest.mark.parametrize("engine", ["python_engine", "kernel_engine"])
@pytest.mark.parametrize("seed", [0, 3])
def test_the_benchmark_walk_runs_one_pid_at_a_time(engine, seed, request, freed_runs):
    # the disturbed 40x40 hold plane that perfbench searches: the walk asks
    # one new pid per query, fewer than BATCH_MIN, so on either engine every
    # query is one simulate call
    request.getfixturevalue(engine)
    app = load_config(Path(__file__).parents[1] / "perfbench" / "fixtures"
                      / "disturbed_plane.ini")
    v = SimulationValidator(app.plant, app.mission, replace(app.oracle, base_seed=seed))
    identify_boundary(app.space, v)
    assert query_count() == 124
    assert freed_runs == {"simulate": 124, "simulate_batch": 0}
