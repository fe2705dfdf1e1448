import inspect
import math
import pickle
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pidlab import (PidConfig, PlantModel, NoiseSpec, brake_mission,
                    circle_mission, hold_mission, reference_at,
                    return_home_mission, routh_stable, simulate)
from pidlab import plant as plant_module
from pidlab.plant import CLAMP, HOLD, Mission, Trajectory, sample_count, simulate_batch


STABLE = PidConfig(1, 0.5, 1)


class TestConfigValidation:
    def test_pid_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PidConfig(float("nan"), 1, 1)
        with pytest.raises(ValueError):
            PidConfig(1, float("inf"), 1)

    def test_pid_names_the_first_non_finite_gain(self):
        with pytest.raises(ValueError, match="ki must be finite, got inf"):
            PidConfig(1, float("inf"), float("nan"))
        with pytest.raises(ValueError, match="kd must be finite"):
            PidConfig(np.float64(1), np.float64(2), np.float64("-inf"))

    def test_pid_takes_huge_numpy_gains_without_warning(self):
        # numpy warnings are errors under pytest; adding these would warn
        pid = PidConfig(np.float64(1e308), np.float64(1e308), np.float64(-1e308))
        assert pid.kp == 1e308

    @pytest.mark.parametrize("builder,kwargs,key", [
        (hold_mission, {"hold_tol": 0}, "hold_tol"),
        (hold_mission, {"settle_deadline": 70, "duration": 60}, "settle_deadline"),
        (brake_mission, {"brake_at": 0}, "brake_at"),
        (brake_mission, {"brake_deadline": 50}, "brake_at"),
        (brake_mission, {"v_stop": -1}, "v_stop"),
        (circle_mission, {"freq": 0}, "freq"),
        (circle_mission, {"circle_tol": -0.1}, "circle_tol"),
        (circle_mission, {"settle_deadline": 0}, "settle_deadline"),
        (return_home_mission, {"return_t": 0}, "return_t"),
        (return_home_mission, {"out_t": 60, "return_t": 60}, "out_t"),
        (return_home_mission, {"settle_deadline": 70}, "settle_deadline"),
        (return_home_mission, {"eps_mono": 0}, "eps_mono"),
        (return_home_mission, {"mono_margin": -1}, "mono_margin"),
        # numpy would refuse -1 and 1.5 only at the first simulate, and run True as 1
        (NoiseSpec, {"seed": -1}, "seed"),
        (NoiseSpec, {"seed": 1.5}, "seed"),
        (NoiseSpec, {"seed": True}, "seed"),
    ])
    def test_builder_errors_lead_with_the_key(self, builder, kwargs, key):
        # the config loader points at the line of the key a message starts with
        with pytest.raises(ValueError) as err:
            builder(**kwargs)
        assert str(err.value).partition(" ")[0] == key

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make,key", [
        *((NoiseSpec, key) for key in ("sensor_sigma", "disturbance_amp", "disturbance_freq")),
        *((PlantModel, key) for key in ("a1", "a2", "dt", "t_max")),
        (lambda duration: Mission("hold", duration, {}), "duration"),
        *((builder, key) for builder in (hold_mission, brake_mission, circle_mission,
                                         return_home_mission)
          for key in inspect.signature(builder).parameters)])
    def test_non_finite_floats_are_refused_by_key(self, make, key, value):
        # NaN passed every `x < 0` and `x <= 0` check: NoiseSpec(sensor_sigma=nan)
        # ran with no noise, and hold_mission(hold_tol=nan) judged every run invalid
        with pytest.raises(ValueError) as err:
            make(**{key: value})
        assert str(err.value).partition(" ")[0] == key

    def test_pid_pickles_and_replaces(self):
        pid = PidConfig(0.1, 2.5, -3.0)
        back = pickle.loads(pickle.dumps(pid))
        assert back == pid and hash(back) == hash(pid)
        assert type(back) is PidConfig and tuple(back) == (0.1, 2.5, -3.0)
        assert pid._replace(ki=4.0) == PidConfig(0.1, 4.0, -3.0)
        with pytest.raises(ValueError):
            pid._replace(kd=float("nan"))
        with pytest.raises(ValueError, match="^kd must be finite"):
            PidConfig._make((1, 2, float("nan")))
        with pytest.raises(AttributeError):
            pid.kp = 1.0
        assert not hasattr(pid, "__dict__")
        # the hash of the tuple of the same gains, so set and dict orders
        # are those of the gain triples
        assert hash(pid) == hash((pid.kp, pid.ki, pid.kd))
        # numpy scalar gains, the largest float64 too, pass the check
        # without a warning and are stored as Python floats
        big = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pid = PidConfig(np.float64(big), np.float64(-big), np.float32(0.5))
            assert pid._replace(ki=np.float64(big)).ki == big
            assert PidConfig._make(np.array([big, big, big])) == (big, big, big)
        assert pid == (big, -big, 0.5)
        for made in (pid, pid._replace(ki=np.float64(big)), PidConfig._make(np.array([1, 2, 3])),
                     PidConfig(1, 2, 3), pickle.loads(pickle.dumps(pid))):
            assert [type(gain) for gain in made] == [float] * 3
        with pytest.raises(ValueError, match="^ki must be finite"):
            PidConfig(np.float64(1), np.float64("inf"), np.float64(1))

    def test_plant_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PlantModel(dt=0)
        with pytest.raises(ValueError):
            PlantModel(dt=0.01, t_max=0.05)

    def test_noise_rejects_negatives(self):
        with pytest.raises(ValueError):
            NoiseSpec(sensor_sigma=-1)

    def test_mission_mode_checked(self):
        with pytest.raises(ValueError):
            Mission("zigzag", 60, {})

    def test_mission_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="^duration must be > 0"):
            Mission(HOLD, 0.0, {})

    def test_factories_check_windows(self):
        with pytest.raises(ValueError):
            hold_mission(settle_deadline=60, duration=60)
        with pytest.raises(ValueError):
            brake_mission(brake_at=55, brake_deadline=10, duration=60)
        with pytest.raises(ValueError):
            return_home_mission(out_t=70, return_t=60, duration=120)


class TestReferenceAt:
    def test_hold(self):
        m = hold_mission(setpoint=2.0)
        assert reference_at(m, 0.0) == (2.0, 0.0)
        assert reference_at(m, 59.9) == (2.0, 0.0)

    def test_brake_ramp_then_freeze(self):
        m = brake_mission(cruise_speed=1.5, brake_at=20)
        r, rd = reference_at(m, 10.0)
        assert r == 15.0 and rd == 1.5
        r, rd = reference_at(m, 30.0)
        assert r == 30.0 and rd == 0.0

    def test_circle_is_sinusoid(self):
        m = circle_mission(radius=2.0, freq=0.05)
        r, rd = reference_at(m, 0.0)
        assert r == 0.0
        assert rd == pytest.approx(2.0 * 2 * math.pi * 0.05)
        quarter = 1 / 0.05 / 4
        r, _ = reference_at(m, quarter)
        assert r == pytest.approx(2.0)

    def test_return_home_phases(self):
        m = return_home_mission(out_dist=5, out_t=40, return_t=40)
        assert reference_at(m, 20.0) == (2.5, 0.125)
        r, rd = reference_at(m, 60.0)
        assert r == pytest.approx(2.5) and rd == -0.125
        assert reference_at(m, 100.0) == (0.0, 0.0)

    def test_rejects_out_of_range(self):
        m = hold_mission()
        with pytest.raises(ValueError):
            reference_at(m, -1.0)
        with pytest.raises(ValueError):
            reference_at(m, 61.0)

    def test_array_input(self):
        m = brake_mission(cruise_speed=1.0, brake_at=20)
        r, rd = reference_at(m, np.array([0.0, 10.0, 30.0]))
        assert np.allclose(r, [0.0, 10.0, 20.0])
        assert np.allclose(rd, [1.0, 1.0, 0.0])


class TestSimulate:
    def test_trace_length(self):
        traj = simulate(PlantModel(), STABLE, hold_mission())
        assert len(traj) == 6001
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(60.0)

    def test_error_is_reference_minus_position(self):
        traj = simulate(PlantModel(), STABLE, hold_mission())
        assert np.array_equal(traj.e, traj.r - traj.x)

    def test_stable_hold_settles(self):
        traj = simulate(PlantModel(), STABLE, hold_mission())
        assert abs(traj.e[-1]) < 0.01

    def test_unstable_oscillation_grows(self):
        traj = simulate(PlantModel(), PidConfig(1, 5, 1), hold_mission())
        half = len(traj) // 2
        assert np.abs(traj.e[half:]).max() > 2 * np.abs(traj.e[:half]).max()

    def test_divergence_clamps_instead_of_raising(self):
        traj = simulate(PlantModel(), PidConfig(-50, 100, -50), hold_mission())
        assert np.all(np.isfinite(traj.x))
        assert np.abs(traj.x).max() == CLAMP

    def test_last_sample_may_pass_the_duration_by_a_hair(self):
        # sample_count's slack takes 100 steps of 3 s for 300 s - 2e-9
        mission = hold_mission(settle_deadline=100.0, duration=300.0 - 2e-9)
        traj = simulate(PlantModel(dt=3.0, t_max=400.0), STABLE, mission)
        assert len(traj) == 101 and traj.t[-1] == 300.0 > mission.duration
        assert traj.r[-1] == reference_at(mission, traj.t[-1])[0]

    def test_duration_capped_by_t_max(self):
        with pytest.raises(ValueError):
            simulate(PlantModel(t_max=30), STABLE, hold_mission())

    def test_deterministic_given_seed(self):
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.01, seed=5))
        a = simulate(plant, STABLE, hold_mission())
        b = simulate(plant, STABLE, hold_mission())
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)

    def test_noise_free_run_ignores_seed(self):
        a = simulate(PlantModel(noise=NoiseSpec(seed=1)), STABLE, hold_mission())
        b = simulate(PlantModel(noise=NoiseSpec(seed=99)), STABLE, hold_mission())
        assert np.array_equal(a.x, b.x)

    def test_seed_changes_noisy_run(self):
        p1 = PlantModel(noise=NoiseSpec(sensor_sigma=0.05, seed=1))
        p2 = PlantModel(noise=NoiseSpec(sensor_sigma=0.05, seed=2))
        a = simulate(p1, STABLE, hold_mission())
        b = simulate(p2, STABLE, hold_mission())
        assert not np.array_equal(a.x, b.x)

    def test_sawtooth_disturbance_perturbs_settling(self):
        noisy = PlantModel(noise=NoiseSpec(disturbance_amp=0.5, disturbance_freq=0.2))
        a = simulate(PlantModel(), STABLE, hold_mission())
        b = simulate(noisy, STABLE, hold_mission())
        assert np.abs(b.e[3000:]).max() > np.abs(a.e[3000:]).max() + 0.01


def test_refining_dt_barely_moves_the_solution():
    """RK4 at dt=0.01 against dt=0.001 as the reference integration."""
    coarse = simulate(PlantModel(dt=0.01), STABLE, hold_mission())
    fine = simulate(PlantModel(dt=0.001), STABLE, hold_mission())
    assert abs(coarse.e[-1] - fine.e[-1]) < 1e-3
    # compare every shared sample, not just the endpoint
    assert np.abs(coarse.x - fine.x[::10]).max() < 1e-3


def test_stable_grid_settles_by_120s():
    """Routh-stable gains with a real stability margin settle on Hold."""
    plant = PlantModel()
    mission = hold_mission(duration=120.0)
    checked = 0
    for kp in (0.1, 0.5, 1.0, 2.0, 5.0):
        for kd in (0.1, 0.5, 1.0, 2.0):
            for frac in (0.05, 0.2, 0.4, 0.55, 0.7):
                ki = max(0.05, frac * (kp + 1) * (kd + 1))
                pid = PidConfig(kp, ki, kd)
                assert routh_stable(pid, 1, 1)
                traj = simulate(plant, pid, mission)
                assert abs(traj.e[-1]) < 0.01, (kp, ki, kd)
                checked += 1
    assert checked == 100


def loop_simulate(plant, pid, mission):
    """simulate() as it was before its loop moved to Python floats: every
    step indexes the numpy arrays and computes the sawtooth per stage, so
    the arithmetic runs on numpy scalars. The reference for bit identity."""
    if mission.duration > plant.t_max + 1e-9:
        raise ValueError("mission duration exceeds plant t_max")
    dt = plant.dt
    n = int(math.floor(mission.duration / dt + 1e-9)) + 1
    times = np.arange(n) * dt

    # Reference sampled at half-step resolution so RK4 stages index it directly.
    half_t = np.arange(2 * n - 1) * (dt / 2.0)
    r_half, rd_half = reference_at(mission, half_t)

    spec = plant.noise
    if spec.sensor_sigma > 0.0:
        noise = spec.sensor_sigma * np.random.default_rng(spec.seed).standard_normal(n - 1)
    else:
        noise = np.zeros(n - 1)

    dist_on = spec.disturbance_amp > 0.0 and spec.disturbance_freq > 0.0
    damp, dfreq = spec.disturbance_amp, spec.disturbance_freq

    kp, ki, kd = pid.kp, pid.ki, pid.kd
    a1, a2 = plant.a1, plant.a2

    xs = np.empty(n)
    vs = np.empty(n)
    x = 0.0
    v = 0.0
    q = 0.0
    xs[0] = x
    vs[0] = v
    half = 0.5 * dt
    sixth = dt / 6.0

    for k in range(n - 1):
        nk = noise[k]
        r0 = r_half[2 * k]
        rd0 = rd_half[2 * k]
        rm = r_half[2 * k + 1]
        rdm = rd_half[2 * k + 1]
        r1 = r_half[2 * k + 2]
        rd1 = rd_half[2 * k + 2]
        if dist_on:
            t0 = k * dt
            u0 = damp * (2.0 * ((dfreq * t0) % 1.0) - 1.0)
            um = damp * (2.0 * ((dfreq * (t0 + half)) % 1.0) - 1.0)
            u1 = damp * (2.0 * ((dfreq * (t0 + dt)) % 1.0) - 1.0)
        else:
            u0 = um = u1 = 0.0

        # stage 1
        e = r0 - (x + nk)
        acc = kp * e + ki * q + kd * (rd0 - v) + u0 - a2 * v - a1 * x
        k1x, k1v, k1q = v, acc, e
        # stage 2
        xv = x + half * k1x
        vv = v + half * k1v
        e = rm - (xv + nk)
        acc = kp * e + ki * (q + half * k1q) + kd * (rdm - vv) + um - a2 * vv - a1 * xv
        k2x, k2v, k2q = vv, acc, e
        # stage 3
        xv = x + half * k2x
        vv = v + half * k2v
        e = rm - (xv + nk)
        acc = kp * e + ki * (q + half * k2q) + kd * (rdm - vv) + um - a2 * vv - a1 * xv
        k3x, k3v, k3q = vv, acc, e
        # stage 4
        xv = x + dt * k3x
        vv = v + dt * k3v
        e = r1 - (xv + nk)
        acc = kp * e + ki * (q + dt * k3q) + kd * (rd1 - vv) + u1 - a2 * vv - a1 * xv

        x += sixth * (k1x + 2.0 * (k2x + k3x) + vv)
        v += sixth * (k1v + 2.0 * (k2v + k3v) + acc)
        q += sixth * (k1q + 2.0 * (k2q + k3q) + e)
        if x > CLAMP:
            x = CLAMP
        elif x < -CLAMP:
            x = -CLAMP
        if v > CLAMP:
            v = CLAMP
        elif v < -CLAMP:
            v = -CLAMP
        xs[k + 1] = x
        vs[k + 1] = v

    r_full = r_half[::2].copy()
    return Trajectory(dt=dt, t=times, x=xs, v=vs, r=r_full, e=r_full - xs)


def short_missions(d=10.0):
    """The four missions, shrunk to d seconds with their phases in proportion."""
    return [hold_mission(settle_deadline=0.5 * d, duration=d),
            brake_mission(brake_at=0.4 * d, brake_deadline=0.3 * d, duration=d),
            circle_mission(freq=2.0 / d, settle_deadline=0.5 * d, duration=d),
            return_home_mission(out_t=0.3 * d, return_t=0.3 * d, settle_deadline=0.8 * d,
                                duration=d)]


def assert_same_trace(plant, pid, mission):
    got = simulate(plant, pid, mission)
    with np.errstate(all="ignore"):  # numpy scalars warn on a divergent run
        want = loop_simulate(plant, pid, mission)
    assert got.dt == want.dt
    for name in "txvre":
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        assert np.array_equal(a, b, equal_nan=True), name
    return got


GAINS = {"stable": STABLE, "unstable": PidConfig(1, 5, 1),
         "clamped": PidConfig(-50, 100, -50), "divergent": PidConfig(1e5, 1e5, 1e5)}


@pytest.fixture(scope="class", params=["kernel", "python_loop"])
def engine(request):
    """Runs a class's tests once on simulate's compiled kernel and once on
    its Python loop, by setting the engine simulate found in its place.
    Class-scoped, because Hypothesis refuses function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "python_loop":
            patch.setattr(plant_module, "_engine", plant_module._python_steps)
        elif not plant_module.compiled():
            pytest.skip("no compiled kernel loads here (tests/test_kernel.py says why)")
        yield request.param


@pytest.mark.usefixtures("engine")
class TestBitIdenticalToTheNumpyScalarLoop:
    @pytest.mark.parametrize("dt", [0.01, 0.003, 0.007])
    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    @pytest.mark.parametrize("amp,freq", [(0.0, 0.0), (0.5, 0.16), (0.3, 2.5)])
    @pytest.mark.parametrize("gains", list(GAINS))
    def test_short_missions(self, dt, sigma, amp, freq, gains):
        plant = PlantModel(dt=dt, noise=NoiseSpec(sensor_sigma=sigma, disturbance_amp=amp,
                                                  disturbance_freq=freq, seed=7))
        for mission in short_missions():
            assert_same_trace(plant, GAINS[gains], mission)

    @pytest.mark.parametrize("mission", [hold_mission(), brake_mission(),
                                         circle_mission(), return_home_mission()],
                             ids=lambda m: m.mode)
    def test_full_missions_with_noise_and_disturbance(self, mission):
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.01, disturbance_amp=0.5,
                                           disturbance_freq=0.2, seed=3))
        assert_same_trace(plant, STABLE, mission)

    def test_numpy_scalar_inputs_give_the_same_trace(self):
        plant = PlantModel(a1=np.float64(1.0), a2=np.float64(1.0), dt=np.float64(0.01),
                           noise=NoiseSpec(disturbance_amp=0.5, disturbance_freq=0.2))
        mission = short_missions(20.0)[0]
        for gains in (STABLE, GAINS["divergent"]):
            pid = PidConfig(*np.array([gains.kp, gains.ki, gains.kd]))
            traj = assert_same_trace(plant, pid, mission)
            assert np.array_equal(traj.x, simulate(plant, gains, mission).x, equal_nan=True)

    def test_divergent_run_has_the_same_nan_samples(self):
        traj = assert_same_trace(PlantModel(), GAINS["divergent"], hold_mission())
        assert np.isnan(traj.x).sum() > 1000

    @settings(max_examples=60, deadline=None)
    @given(dt=st.floats(0.001, 0.05), freq=st.floats(0.01, 50.0), amp=st.floats(0.01, 10.0),
           sigma=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**16))
    def test_random_steps_and_sawtooths(self, dt, freq, amp, sigma, seed):
        plant = PlantModel(dt=dt, noise=NoiseSpec(sensor_sigma=sigma, disturbance_amp=amp,
                                                  disturbance_freq=freq, seed=seed))
        mission = short_missions(3.0)[seed % 4]
        assert_same_trace(plant, STABLE, mission)


@pytest.mark.usefixtures("engine")
class TestRunIsTheHeadOfTheLongerRun:
    """A run of a mission is, bit for bit, the first samples of the run of
    the mission ref_factor times longer, which compare_oracles relies on."""

    @settings(max_examples=60, deadline=None)
    @given(mode=st.integers(0, 3), dt=st.floats(0.005, 0.5), duration=st.floats(1.0, 20.0),
           ref_factor=st.floats(1.0, 10.0), freq=st.floats(0.01, 50.0),
           seed=st.integers(0, 2**16), gains=st.sampled_from(list(GAINS)))
    # circle missions whose last half-step time, (2n - 2) * dt / 2, rounds
    # past the duration
    @example(mode=2, dt=0.01, duration=45.55, ref_factor=10.0, freq=0.2, seed=1,
             gains="stable")
    @example(mode=2, dt=0.1, duration=7.3, ref_factor=10.0, freq=0.2, seed=1, gains="stable")
    def test_every_mode_with_noise_and_sawtooth(self, mode, dt, duration, ref_factor, freq,
                                                seed, gains):
        mission = short_missions(duration)[mode]
        longer = replace(mission, duration=duration * ref_factor)
        plant = PlantModel(dt=dt, t_max=max(longer.duration, 10 * dt),
                           noise=NoiseSpec(sensor_sigma=0.03, disturbance_amp=0.4,
                                           disturbance_freq=freq, seed=seed))
        short = simulate(plant, GAINS[gains], mission)
        head = simulate(plant, GAINS[gains], longer).head(len(short))
        assert len(short) == len(head) == sample_count(plant, mission)
        assert head.dt == short.dt
        for name in "txvre":
            assert np.array_equal(getattr(head, name), getattr(short, name),
                                  equal_nan=True), name


@pytest.mark.usefixtures("engine")
class TestPausedRuns:
    """simulate paused at stops: a prefix it returns is, bit for bit, the
    first samples of the uninterrupted run, and a run that no pause ends
    is that run."""

    @settings(max_examples=60, deadline=None)
    @given(mode=st.integers(0, 3), sigma=st.sampled_from([0.0, 0.03]), saw=st.booleans(),
           seed=st.integers(0, 2**16), gains=st.sampled_from(list(GAINS)),
           stops=st.lists(st.integers(-3, 520), max_size=6), pick=st.integers(0, 6))
    def test_a_prefix_is_the_uninterrupted_runs_head(self, mode, sigma, saw, seed, gains,
                                                     stops, pick):
        # decided accepts the pick-th stop, or none where there is none
        accept = stops[pick] if pick < len(stops) else None
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=sigma,
                                           disturbance_amp=0.4 if saw else 0.0,
                                           disturbance_freq=0.7, seed=seed))
        mission = short_missions(5.0)[mode]
        n = sample_count(plant, mission)
        with np.errstate(all="ignore"):  # numpy scalars warn on a divergent run
            want = loop_simulate(plant, GAINS[gains], mission)
        seen = []

        def decided(prefix):
            seen.append(len(prefix))
            return len(prefix) == accept

        got = simulate(plant, GAINS[gains], mission, stops=stops, decided=decided)
        pauses = sorted({stop for stop in stops if 1 <= stop < n})
        ended = accept in pauses
        assert seen == [stop for stop in pauses if not ended or stop <= accept]
        assert len(got) == (accept if ended else n)
        assert got.dt == want.dt
        for name in "txvre":
            assert np.array_equal(getattr(got, name), getattr(want, name)[:len(got)],
                                  equal_nan=True), name
        if not stops:
            for name in "txvre":
                assert np.array_equal(getattr(simulate(plant, GAINS[gains], mission), name),
                                      getattr(want, name), equal_nan=True), name

    def test_stops_need_a_decided_test(self):
        with pytest.raises(ValueError, match="stops need a decided test"):
            simulate(PlantModel(), STABLE, hold_mission(), stops=(100,))
        # stops outside the run pause nothing, so they need no test
        assert len(simulate(PlantModel(), STABLE, hold_mission(), stops=(0, 6001))) == 6001


def assert_batch_matches(plant, pids, mission):
    """Every run of simulate_batch equals simulate's, field by field."""
    batch = list(simulate_batch(plant, pids, mission))
    assert len(batch) == len(pids)
    for pid, got in zip(pids, batch):
        want = simulate(plant, pid, mission)
        assert got.dt == want.dt
        assert len(got) == len(want) == sample_count(plant, mission)
        for name in "txvre":
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.float64, name
            assert np.array_equal(a, b, equal_nan=True), (pid, name)
    return batch


# gains: moderate ones, zeros of both signs, and magnitudes that clamp,
# turn the run NaN, or overflow inside the first step
BATCH_GAIN = (st.floats(-20, 20) | st.sampled_from([0.0, -0.0, 1e5, -1e5, 1e150, -1e300])
              | st.floats(allow_nan=False, allow_infinity=False))


class TestSimulateBatch:
    @settings(max_examples=80, deadline=None)
    @given(mode=st.integers(0, 3), dt=st.sampled_from([0.01, 0.007, 0.05, 0.1]),
           sigma=st.sampled_from([0.0, 0.03]), saw=st.booleans(),
           freq=st.floats(0.01, 50.0), seed=st.integers(0, 2**16),
           gains=st.lists(st.tuples(BATCH_GAIN, BATCH_GAIN, BATCH_GAIN),
                          min_size=1, max_size=6))
    def test_every_run_equals_simulate(self, mode, dt, sigma, saw, freq, seed, gains):
        plant = PlantModel(dt=dt, noise=NoiseSpec(sensor_sigma=sigma,
                                                  disturbance_amp=0.4 if saw else 0.0,
                                                  disturbance_freq=freq, seed=seed))
        assert_batch_matches(plant, [PidConfig(*g) for g in gains],
                             short_missions(4.0)[mode])

    @pytest.mark.parametrize("mission", [hold_mission(), brake_mission(),
                                         circle_mission(), return_home_mission()],
                             ids=lambda m: m.mode)
    def test_full_missions_with_divergent_runs(self, mission):
        plant = PlantModel(noise=NoiseSpec(sensor_sigma=0.01, disturbance_amp=0.5,
                                           disturbance_freq=0.2, seed=3))
        pids = [*GAINS.values(), PidConfig(*np.array([2.0, 0.5, 1.5]))]
        batch = assert_batch_matches(plant, pids, mission)
        assert np.isnan(batch[list(GAINS).index("divergent")].x).any()
        assert np.abs(batch[list(GAINS).index("clamped")].x).max() == CLAMP

    @pytest.mark.parametrize("duration,dt", [(45.55, 0.01), (7.3, 0.1)])
    def test_last_half_step_past_the_duration(self, duration, dt):
        plant = PlantModel(dt=dt, noise=NoiseSpec(sensor_sigma=0.02, seed=1))
        mission = circle_mission(settle_deadline=duration / 2, duration=duration)
        n = sample_count(plant, mission)
        # the last half-step time, (2n - 2) * dt / 2, rounds past the duration
        assert (2 * n - 2) * (dt / 2) > duration
        assert_batch_matches(plant, [STABLE, PidConfig(1, 5, 1)], mission)

    def test_width_one(self):
        plant = PlantModel(noise=NoiseSpec(disturbance_amp=0.35, disturbance_freq=0.19))
        assert_batch_matches(plant, [STABLE], hold_mission())

    def test_no_pids(self):
        assert list(simulate_batch(PlantModel(), iter(()), hold_mission())) == []

    def test_duration_beyond_t_max_raises_at_the_call(self):
        with pytest.raises(ValueError, match="exceeds plant t_max"):
            simulate_batch(PlantModel(t_max=30), [STABLE], hold_mission())

    def test_runs_share_one_xv_array_and_own_their_error(self):
        first, second = simulate_batch(PlantModel(), [STABLE, PidConfig(1, 5, 1)],
                                       hold_mission())
        xv = first.x.base
        assert xv.shape == (6001, 2, 2)
        assert all(a.base is xv for a in (first.v, second.x, second.v))
        assert first.e.base is None and second.e.base is None


def traced_peak_per_sample(run, plant, pid, mission, cold=False):
    """The traced peak of one call of run, in bytes per sample of the run;
    cold drops the kept step layout first, so the call builds its own."""
    run(plant, pid, mission)  # a first call may allocate once-only caches
    if cold:
        plant_module._layout = None
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    trace = run(plant, pid, mission)
    peak = tracemalloc.get_traced_memory()[1] - base
    if started:
        tracemalloc.stop()
    return peak / len(trace)


MEMORY_CASES = pytest.mark.parametrize("noise, bound", [
    (NoiseSpec(), 80.0),
    (NoiseSpec(sensor_sigma=0.02, disturbance_amp=0.1, disturbance_freq=0.3, seed=4), 112.0),
], ids=["quiet", "noisy"])


class TestInputMemory:
    """The step inputs are views of the half-step reference, and noise or
    sawtooth that is off takes no memory. A simulate call that builds the
    layout was measured at 72.1 bytes per sample quiet and 104.1 noisy;
    copying the inputs into one dense (10, n - 1) table reads 128 and 165.
    A call that finds the layout kept from the last one, with its noise
    draw, reads 24.0 quiet and noisy: x, v and e."""

    @MEMORY_CASES
    def test_peak_per_sample_of_a_600s_circle(self, noise, bound):
        plant = PlantModel(t_max=600.0, noise=noise)
        mission = circle_mission(radius=1.0, freq=0.05, duration=600.0)
        assert traced_peak_per_sample(simulate, plant, STABLE, mission) <= bound

    @MEMORY_CASES
    def test_peak_per_sample_of_a_600s_circle_that_builds_its_layout(self, noise, bound):
        plant = PlantModel(t_max=600.0, noise=noise)
        mission = circle_mission(radius=1.0, freq=0.05, duration=600.0)
        assert traced_peak_per_sample(simulate, plant, STABLE, mission, cold=True) <= bound


def batch_of_one(plant, pid, mission):
    (run,) = simulate_batch(plant, [pid], mission)
    return run


class TestStepLayoutMemo:
    """_inputs keeps the seed-independent part of the last step layout it
    built, keyed by the exact bits of dt, the mission and the sawtooth."""

    NOISY = NoiseSpec(sensor_sigma=0.02, disturbance_amp=0.3, disturbance_freq=0.7, seed=5)

    def cases(self):
        missions = [*short_missions(4.0), hold_mission(setpoint=0.0, settle_deadline=2.0,
                                                       duration=4.0),
                    hold_mission(setpoint=-0.0, settle_deadline=2.0, duration=4.0)]
        noises = [NoiseSpec(), self.NOISY, replace(self.NOISY, disturbance_freq=0.5)]
        return [(PlantModel(dt=dt, noise=noise), mission)
                for dt in (0.01, 0.007) for mission in missions for noise in noises]

    @pytest.mark.parametrize("run", [simulate, batch_of_one], ids=lambda f: f.__name__)
    def test_runs_taken_in_turn_equal_cold_builds(self, run, monkeypatch):
        cases = self.cases()
        warm = [run(plant, STABLE, mission) for plant, mission in cases + cases[::-1]]
        for (plant, mission), got in zip(cases + cases[::-1], warm):
            monkeypatch.setattr(plant_module, "_layout", None)
            want = run(plant, STABLE, mission)
            for name in "txvre":
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_a_negative_zero_setpoint_is_not_the_zero_entry(self):
        for setpoint, negative in ((0.0, False), (-0.0, True), (0.0, False)):
            run = simulate(PlantModel(), STABLE, hold_mission(setpoint=setpoint))
            assert (np.signbit(run.r) == negative).all()
            assert np.signbit(run.e[0]) == negative

    def test_a_layout_is_kept_across_noise_seeds_only(self):
        mission = hold_mission()
        first = plant_module._inputs(PlantModel(noise=self.NOISY), mission)
        second = plant_module._inputs(PlantModel(noise=replace(self.NOISY, seed=6)), mission)
        assert all(a is b for a, b in zip((first[1], first[2], *first[3][1:]),
                                          (second[1], second[2], *second[3][1:])))
        assert not np.array_equal(first[3][0], second[3][0])  # each seed has its own draw
        third = plant_module._inputs(PlantModel(noise=replace(self.NOISY, disturbance_amp=0.2)),
                                     mission)
        assert third[1] is not first[1] and third[3][7] is not first[3][7]

    @pytest.mark.parametrize("noise", [NoiseSpec(), NOISY], ids=["quiet", "noisy"])
    def test_writing_into_a_kept_array_raises(self, noise):
        plant, mission = PlantModel(noise=noise), circle_mission(settle_deadline=5.0, duration=10.0)
        run = simulate(plant, STABLE, mission)
        _, times, r, steps = plant_module._inputs(plant, mission)
        assert run.t is times and run.r is r
        for array in (times, r, *steps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert simulate(plant, STABLE, mission).t[0] == 0.0
        if noise.sensor_sigma > 0.0:
            assert plant_module._inputs(plant, mission)[3][0] is steps[0]


class TestNoiseDrawMemo:
    """The layout _inputs keeps holds the scaled noise draw of the (sensor
    sigma, seed) it was last asked for, and drops it with the layout."""

    NOISY = TestStepLayoutMemo.NOISY
    MISSION = circle_mission(settle_deadline=2.0, duration=4.0)

    @pytest.mark.parametrize("run", [simulate, batch_of_one], ids=lambda f: f.__name__)
    def test_seeds_taken_in_turn_equal_cold_draws(self, run, monkeypatch):
        # seeds in turn, each replacing the last one's draw, and seeds taken
        # twice in a row, then a sigma that differs from the last in its
        # bits only, and an int sigma
        noises = [replace(self.NOISY, seed=seed) for seed in (5, 6, 7, 5, 5, 6, 6, 7)]
        noises += [replace(self.NOISY, sensor_sigma=sigma, seed=5)
                   for sigma in (np.nextafter(0.02, 1.0), 0.02, 1, 1.0)]
        plants = [PlantModel(noise=noise) for noise in noises]
        warm = [run(plant, STABLE, self.MISSION) for plant in plants]
        for plant, got in zip(plants, warm):
            monkeypatch.setattr(plant_module, "_layout", None)
            want = run(plant, STABLE, self.MISSION)
            assert got.x.tobytes() == want.x.tobytes(), plant.noise
            assert got.v.tobytes() == want.v.tobytes(), plant.noise

    def test_the_last_draw_is_kept(self, monkeypatch):
        monkeypatch.setattr(plant_module, "_layout", None)
        sigma = self.NOISY.sensor_sigma.hex()
        for seed in (5, 6, 5):
            plant = PlantModel(noise=replace(self.NOISY, seed=seed))
            draw = plant_module._inputs(plant, self.MISSION)[3][0]
            kept, noise = plant_module._layout[2]
            assert kept == (sigma, seed) and noise is draw
            assert plant_module._inputs(plant, self.MISSION)[3][0] is draw

    def test_the_draws_are_freed_with_the_layout(self, monkeypatch):
        monkeypatch.setattr(plant_module, "_layout", None)
        draw = weakref.ref(plant_module._inputs(PlantModel(noise=self.NOISY), self.MISSION)[3][0])
        assert draw() is not None
        plant_module._inputs(PlantModel(noise=self.NOISY), hold_mission())
        assert draw() is None
        assert plant_module._layout[2][0] == (self.NOISY.sensor_sigma.hex(), self.NOISY.seed)
