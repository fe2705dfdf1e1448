import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import (PidConfig, PlantModel, NoiseSpec, brake_mission,
                    circle_mission, hold_mission, reference_at,
                    return_home_mission, routh_stable, simulate)
from pidlab.plant import CLAMP, Mission, Trajectory


STABLE = PidConfig(1, 0.5, 1)


class TestConfigValidation:
    def test_pid_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PidConfig(float("nan"), 1, 1)
        with pytest.raises(ValueError):
            PidConfig(1, float("inf"), 1)

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
    # arange rounding can push the last half-sample a hair past duration
    half_t[-1] = min(half_t[-1], mission.duration)
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
    return Trajectory(dt=dt, t=times, x=xs, v=vs, r=r_full, e=r_full - xs,
                      mode=mission.mode)


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
    assert got.dt == want.dt and got.mode == want.mode
    for name in "txvre":
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        assert np.array_equal(a, b, equal_nan=True), name
    return got


GAINS = {"stable": STABLE, "unstable": PidConfig(1, 5, 1),
         "clamped": PidConfig(-50, 100, -50), "divergent": PidConfig(1e5, 1e5, 1e5)}


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
