import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import (NoiseSpec, OracleConfig, PidConfig, PlantModel, RouthValidator,
                    SimulationValidator, brake_mission, circle_mission,
                    hold_mission, query_count, reset_query_count,
                    return_home_mission, routh_stable, simulate)
from pidlab.mtl import And, Atom, Globally
from pidlab.validator import LookupValidator


@pytest.fixture(autouse=True)
def clean_counter():
    reset_query_count()
    yield
    reset_query_count()


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
        cfg = OracleConfig(repeats=3, base_seed=11)
        plant = PlantModel(noise=__import__("pidlab").NoiseSpec(sensor_sigma=0.01))
        v = SimulationValidator(plant, hold_mission(), cfg)
        pid = PidConfig(1, 1.2, 1)
        first = v.classify(pid)
        second = v.classify(pid)
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

GAIN = st.floats(-1e6, 1e6) | st.sampled_from([-1e6, -1e5, 1e5, 1e6])


class TestDivergentGains:
    """Any gains within +-1e6 give a trace that is finite or judged invalid,
    and nothing raises (numpy warnings are errors under pytest)."""

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


class TestMajorityVoting:
    def make_stub(self, outcomes):
        """Validator whose per-seed run verdicts are scripted."""
        v = SimulationValidator(PlantModel(), hold_mission(),
                                OracleConfig(repeats=len(outcomes)))
        calls = []

        def fake(pid, seed):
            calls.append(seed)
            ok = outcomes[len(calls) - 1]
            return (True, None) if ok else (False, "scripted")

        v._single_run = fake
        return v, calls

    def test_two_of_three_wins(self):
        v, calls = self.make_stub([True, False, True])
        verdict = v.classify(PidConfig(1, 1, 1))
        assert verdict.valid and verdict.votes_valid == 2 and verdict.runs == 3
        assert calls == [0, 1, 2]

    def test_minority_valid_loses(self):
        v, _ = self.make_stub([False, True, False])
        verdict = v.classify(PidConfig(1, 1, 1))
        assert not verdict.valid
        assert verdict.violated_spec == "scripted"
        assert verdict.votes_valid == 1

    def test_seeds_offset_by_base(self):
        v, calls = self.make_stub([True, True, True])
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

    def test_reset(self):
        v = LookupValidator(lambda pid: True)
        for _ in range(5):
            v.classify(PidConfig(1, 1, 1))
        assert query_count() == 5
        reset_query_count()
        assert query_count() == 0

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
