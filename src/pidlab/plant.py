"""Second-order plant under PID control: mission references, noise injection,
and a fixed-step RK4 simulator producing Trajectory records.

The plant is  x'' + a2*x' + a1*x = u(t)  with
u = kp*e + ki*integral(e) + kd*de/dt, where e = r - x_measured.
The derivative term is formed analytically as (r' - v) so that sensor noise
does not get amplified by finite differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

# Divergent runs saturate here instead of raising. The integral state is not
# clamped: when it grows until the RK4 stages overflow, the run turns NaN, the
# NaN passes the clamp, and the trajectory oracle classifies the run invalid.
CLAMP = 1.0e6

HOLD = "hold"
BRAKE = "brake"
CIRCLE_TRACK = "circle_track"
RETURN_HOME = "return_home"
MODES = (HOLD, BRAKE, CIRCLE_TRACK, RETURN_HOME)


@dataclass(frozen=True)
class PidConfig:
    """One controller gain triple (kp, ki, kd)."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise and actuator disturbance settings.

    sensor_sigma: std-dev of Gaussian noise added to the measured position fed
        to the controller (one draw per integration step, held across RK4
        stages). The recorded trajectory keeps the true state.
    disturbance_amp / disturbance_freq: a deterministic sawtooth
        amp * (2*frac(freq*t) - 1) added to the actuator command. Disabled
        unless both are > 0.
    seed: RNG seed for the sensor noise stream.
    """

    sensor_sigma: float = 0.0
    disturbance_amp: float = 0.0
    disturbance_freq: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sensor_sigma < 0:
            raise ValueError("sensor_sigma must be >= 0")
        if self.disturbance_amp < 0:
            raise ValueError("disturbance_amp must be >= 0")
        if self.disturbance_freq < 0:
            raise ValueError("disturbance_freq must be >= 0")


@dataclass(frozen=True)
class PlantModel:
    """Plant coefficients plus integration settings.

    a1, a2: stiffness and damping coefficients of x'' + a2 x' + a1 x = u.
    dt: integration and sampling step, seconds.
    t_max: largest mission horizon this model is configured for.
    """

    a1: float = 1.0
    a2: float = 1.0
    dt: float = 0.01
    t_max: float = 120.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if not (math.isfinite(self.a1) and math.isfinite(self.a2)):
            raise ValueError("a1 and a2 must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_max < 10 * self.dt:
            raise ValueError("t_max must cover at least 10 integration steps")


@dataclass(frozen=True)
class Mission:
    """A reference profile plus the thresholds its spec quantifies over.

    Use the factory helpers (hold_mission, brake_mission, circle_mission,
    return_home_mission) rather than building params dicts by hand.
    """

    mode: str
    duration: float
    params: dict

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mission mode {self.mode!r}")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


def hold_mission(setpoint=1.0, hold_tol=0.05, settle_deadline=20.0, duration=60.0):
    """Constant setpoint; spec: |e| stays under hold_tol once settled."""
    if hold_tol <= 0 or settle_deadline <= 0 or settle_deadline >= duration:
        raise ValueError("need 0 < settle_deadline < duration and hold_tol > 0")
    return Mission(HOLD, duration, {
        "setpoint": float(setpoint),
        "hold_tol": float(hold_tol),
        "settle_deadline": float(settle_deadline),
    })


def brake_mission(cruise_speed=1.0, brake_at=20.0, brake_deadline=10.0,
                  v_stop=0.05, duration=60.0):
    """Ramp reference at cruise_speed, then freeze it at brake_at.

    Spec: |v| drops below v_stop within brake_deadline of the brake instant
    and stays there.
    """
    if brake_at <= 0 or brake_at + brake_deadline >= duration:
        raise ValueError("brake_at + brake_deadline must fall inside the mission")
    if v_stop <= 0:
        raise ValueError("v_stop must be > 0")
    return Mission(BRAKE, duration, {
        "cruise_speed": float(cruise_speed),
        "brake_at": float(brake_at),
        "brake_deadline": float(brake_deadline),
        "v_stop": float(v_stop),
    })


def circle_mission(radius=2.0, freq=0.05, circle_tol=0.25, settle_deadline=20.0,
                   duration=60.0):
    """Sinusoid reference r(t) = radius*sin(2*pi*freq*t), the one-dimensional
    projection of a circular track."""
    if radius <= 0 or freq <= 0 or circle_tol <= 0:
        raise ValueError("radius, freq and circle_tol must be > 0")
    if settle_deadline <= 0 or settle_deadline >= duration:
        raise ValueError("need 0 < settle_deadline < duration")
    return Mission(CIRCLE_TRACK, duration, {
        "radius": float(radius),
        "freq": float(freq),
        "circle_tol": float(circle_tol),
        "settle_deadline": float(settle_deadline),
    })


def return_home_mission(out_dist=5.0, out_t=40.0, return_t=40.0, home_radius=0.5,
                        settle_deadline=90.0, mono_margin=5.0, eps_mono=0.02,
                        duration=120.0):
    """Ramp out to out_dist, ramp back to the origin, then hold there.

    Two-part spec: once settled the position stays within home_radius of the
    origin, and during the return leg (mono_margin seconds after the turn,
    to skip the turnaround transient) the error magnitude never grows by more
    than eps_mono per sample.
    """
    if out_t <= 0 or return_t <= 0 or out_t + return_t >= duration:
        raise ValueError("out_t + return_t must fall inside the mission")
    if settle_deadline <= out_t + return_t or settle_deadline >= duration:
        raise ValueError("settle_deadline must sit between homecoming and mission end")
    if home_radius <= 0 or eps_mono <= 0 or mono_margin < 0:
        raise ValueError("home_radius and eps_mono must be > 0, mono_margin >= 0")
    return Mission(RETURN_HOME, duration, {
        "out_dist": float(out_dist),
        "out_t": float(out_t),
        "return_t": float(return_t),
        "home_radius": float(home_radius),
        "settle_deadline": float(settle_deadline),
        "mono_margin": float(mono_margin),
        "eps_mono": float(eps_mono),
    })


def reference_at(mission, t):
    """Reference position and velocity at time t.

    Args:
        mission: the Mission whose profile to evaluate.
        t: scalar or ndarray of times; must lie in [0, mission.duration].

    Returns:
        (r, r_dot) with the same shape as t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > mission.duration + 1e-9):
        raise ValueError("t outside [0, duration]")
    p = mission.params
    if mission.mode == HOLD:
        r = np.full_like(t, p["setpoint"])
        rd = np.zeros_like(t)
    elif mission.mode == BRAKE:
        vc, tb = p["cruise_speed"], p["brake_at"]
        r = np.where(t < tb, vc * t, vc * tb)
        rd = np.where(t < tb, vc, 0.0)
    elif mission.mode == CIRCLE_TRACK:
        w = 2.0 * math.pi * p["freq"]
        r = p["radius"] * np.sin(w * t)
        rd = p["radius"] * w * np.cos(w * t)
    else:  # RETURN_HOME
        dist, t_out, t_ret = p["out_dist"], p["out_t"], p["return_t"]
        v_out = dist / t_out
        v_ret = dist / t_ret
        r = np.where(t < t_out, v_out * t,
                     np.where(t < t_out + t_ret, dist - v_ret * (t - t_out), 0.0))
        rd = np.where(t < t_out, v_out,
                      np.where(t < t_out + t_ret, -v_ret, 0.0))
    if t.ndim == 0:
        return float(r), float(rd)
    return r, rd


@dataclass
class Trajectory:
    """A sampled closed-loop run. All arrays share one length; e = r - x."""

    dt: float
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    r: np.ndarray
    e: np.ndarray
    mode: str

    def __len__(self):
        return len(self.t)


def simulate(plant, pid, mission):
    """Integrate the closed loop over the mission and sample every dt.

    Classic fixed-step RK4 on the augmented state (x, v, q) with
    q = integral of e. The controller sees x + sensor noise (one draw per
    step, held across the four stages); the recorded trajectory keeps the
    true state. Divergent runs are clamped to |x|, |v| <= 1e6 after each
    step rather than raising; a run whose unclamped integral drives the
    stages to overflow turns NaN, which passes the clamp.

    Args:
        plant: PlantModel (carries the NoiseSpec).
        pid: PidConfig gains.
        mission: Mission; its duration sets the horizon and must not exceed
            plant.t_max.

    Returns:
        Trajectory of floor(duration/dt) + 1 samples.
    """
    if mission.duration > plant.t_max + 1e-9:
        raise ValueError("mission duration exceeds plant t_max")
    dt = float(plant.dt)
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

    # float(): numpy scalar gains would drag the whole loop onto numpy scalars
    kp, ki, kd = float(pid.kp), float(pid.ki), float(pid.kd)
    a1, a2 = float(plant.a1), float(plant.a2)

    xs = np.empty(n)
    vs = np.empty(n)
    x = 0.0
    v = 0.0
    q = 0.0
    xs[0] = x
    vs[0] = v
    half = 0.5 * dt
    sixth = dt / 6.0

    # The loop reads and writes only Python floats, which cost about a third
    # of what numpy scalars do per operation; memoryviews yield them without
    # copying the arrays. Each sawtooth sample takes the operations of the
    # per-step expression in the same order, so it is the same float.
    if dist_on:
        t0 = np.arange(n - 1) * dt
        dist = [memoryview(damp * (2.0 * ((dfreq * t) % 1.0) - 1.0))
                for t in (t0, t0 + half, t0 + dt)]
    else:
        dist = [repeat(0.0)] * 3
    steps = zip(memoryview(noise),
                memoryview(r_half[:-1:2]), memoryview(rd_half[:-1:2]),
                memoryview(r_half[1::2]), memoryview(rd_half[1::2]),
                memoryview(r_half[2::2]), memoryview(rd_half[2::2]), *dist)
    xm = memoryview(xs)
    vm = memoryview(vs)

    for k, (nk, r0, rd0, rm, rdm, r1, rd1, u0, um, u1) in enumerate(steps, 1):
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
        xm[k] = x
        vm[k] = v

    r_full = r_half[::2].copy()
    return Trajectory(dt=dt, t=times, x=xs, v=vs, r=r_full, e=r_full - xs,
                      mode=mission.mode)

