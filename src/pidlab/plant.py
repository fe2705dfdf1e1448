"""Second-order plant under PID control: mission references, noise injection,
and a fixed-step RK4 simulator producing Trajectory records.

The plant is  x'' + a2*x' + a1*x = u(t)  with
u = kp*e + ki*integral(e) + kd*de/dt, where e = r - x_measured.
The derivative term is formed analytically as (r' - v) so that sensor noise
does not get amplified by finite differencing.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# Divergent runs saturate here instead of raising. The integral state is not
# clamped: when it grows until the RK4 stages overflow, the run turns NaN, the
# NaN passes the clamp, and the trajectory oracle classifies the run invalid.
CLAMP = 1.0e6

# A linear run stands in for simulate's where every spec atom stays more
# than LINEAR_TOL * (1 + the run's largest |x| or |v|) from its threshold,
# about 1,000 times the linear scan's error on unclamped runs (at most
# 7.4e-13 over 600 random runs, 3e-12 over 300,000 undamped steps). A run that
# comes within that distance of the clamp, LINEAR_LIMIT, is simulated.
LINEAR_TOL = 1e-9
LINEAR_LIMIT = (CLAMP - LINEAR_TOL) / (1.0 + LINEAR_TOL)

HOLD = "hold"
BRAKE = "brake"
CIRCLE_TRACK = "circle_track"
RETURN_HOME = "return_home"


class PidConfig(namedtuple("PidConfig", ("kp", "ki", "kd"))):
    """One controller gain triple (kp, ki, kd): an immutable 3-tuple of
    Python floats whose constructor, _make, _replace and unpickling refuse a
    non-finite gain."""

    __slots__ = ()

    def __new__(cls, kp, ki, kd):
        # one test on the fast path; no arithmetic, which warns on numpy scalars
        if not (math.isfinite(kp) and math.isfinite(ki) and math.isfinite(kd)):
            for name, value in (("kp", kp), ("ki", ki), ("kd", kd)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        return tuple.__new__(cls, (float(kp), float(ki), float(kd)))

    @classmethod
    def _make(cls, iterable):
        # the inherited one, which _replace calls, would skip the check
        return cls(*iterable)


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise and actuator disturbance settings.

    sensor_sigma: std-dev of Gaussian noise added to the measured position fed
        to the controller (one draw per integration step, held across RK4
        stages). The recorded trajectory keeps the true state.
    disturbance_amp / disturbance_freq: a deterministic sawtooth
        amp * (2*frac(freq*t) - 1) added to the actuator command. Disabled
        unless both are > 0.
    seed: RNG seed for the sensor noise stream, an int >= 0.
    """

    sensor_sigma: float = 0.0
    disturbance_amp: float = 0.0
    disturbance_freq: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("sensor_sigma", "disturbance_amp", "disturbance_freq"):
            value = getattr(self, key)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{key} must be >= 0 and finite, got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
        _check_finite(a1=self.a1, a2=self.a2, dt=self.dt, t_max=self.t_max)
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
        _check_finite(duration=self.duration)
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


# Each error of a constructor or builder leads with the key at fault, so a
# config error can point at its line. Every float must be finite; the checks
# after that compare finite numbers, which NaN would have slipped past.
def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(**values):
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be > 0")


def _check_deadline(settle_deadline, duration):
    if settle_deadline <= 0 or settle_deadline >= duration:
        raise ValueError("settle_deadline must satisfy 0 < settle_deadline < duration")


def hold_mission(setpoint=1.0, hold_tol=0.05, settle_deadline=20.0, duration=60.0):
    """Constant setpoint; spec: |e| stays under hold_tol once settled."""
    _check_finite(**locals())
    if hold_tol <= 0:
        raise ValueError("hold_tol must be > 0")
    _check_deadline(settle_deadline, duration)
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
    _check_finite(**locals())
    if brake_at <= 0:
        raise ValueError("brake_at must be > 0")
    if brake_at + brake_deadline >= duration:
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
    _check_finite(**locals())
    _check_positive(radius=radius, freq=freq, circle_tol=circle_tol)
    _check_deadline(settle_deadline, duration)
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
    _check_finite(**locals())
    _check_positive(out_t=out_t, return_t=return_t)
    if out_t + return_t >= duration:
        raise ValueError("out_t + return_t must fall inside the mission")
    if settle_deadline <= out_t + return_t or settle_deadline >= duration:
        raise ValueError("settle_deadline must sit between homecoming and mission end")
    _check_positive(home_radius=home_radius, eps_mono=eps_mono)
    if mono_margin < 0:
        raise ValueError("mono_margin must be >= 0")
    return Mission(RETURN_HOME, duration, {
        "out_dist": float(out_dist),
        "out_t": float(out_t),
        "return_t": float(return_t),
        "home_radius": float(home_radius),
        "settle_deadline": float(settle_deadline),
        "mono_margin": float(mono_margin),
        "eps_mono": float(eps_mono),
    })


# Each mode's mission builder; a Mission and the config reader take no other mode.
MODES = {HOLD: hold_mission, BRAKE: brake_mission, CIRCLE_TRACK: circle_mission,
         RETURN_HOME: return_home_mission}


def reference_at(mission, t):
    """Reference position and velocity at time t.

    Args:
        mission: the Mission whose profile to evaluate.
        t: times, scalar or ndarray, in [0, duration + 2e-9 * max(duration, 1)].

    Returns:
        (r, r_dot) with the same shape as t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > mission.duration + 2e-9 * max(mission.duration, 1.0)):
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

    def __len__(self):
        return len(self.t)

    def head(self, n):
        """The first n samples, as views of this run's arrays."""
        return Trajectory(self.dt, self.t[:n], self.x[:n], self.v[:n], self.r[:n],
                          self.e[:n])


def sample_count(plant, mission):
    """Samples in a run of mission on plant: floor(duration / dt) + 1.
    Raises ValueError when the mission is longer than plant.t_max."""
    if mission.duration > plant.t_max + 1e-9:
        raise ValueError("mission duration exceeds plant t_max")
    return int(math.floor(mission.duration / float(plant.dt) + 1e-9)) + 1


# The last step layout _inputs built: (key, (times, r, reference views,
# sawtooth), ((sensor sigma, seed), scaled noise draw)), every array
# read-only; the draw is the last one taken, (None, None) before any. It
# lives here so that no engine's signature changes; its keys are exact and
# its arrays cannot be written, so no caller can see another's layout.
_layout = None


def _exact(value):
    """value with a float's bits spelled out, so that 0.0 and -0.0 differ."""
    return value.hex() if isinstance(value, float) else value


def _inputs(plant, mission):
    """(dt, times, r, steps) shared by every run of mission on plant: the
    step, the sample times, the reference at each sample, and steps, ten
    arrays of n - 1 floats whose entry k is what step k reads. They are the
    sensor noise draw, the reference and its slope at the step's start,
    middle and end (r0, rd0, rm, rdm, r1, rd1) as views of one half-step
    sampling, and the sawtooth there (u0, um, u1); noise or sawtooth that is
    off is a broadcast 0.0. A run resumed at step k reads them from k on.

    They are kept from one call to the next while dt, the sample count, the
    mission and the sawtooth's amp and freq stay the same floats, bit for
    bit; they are read-only. The last noise draw is kept with them while
    the sensor sigma and seed stay the same.
    """
    global _layout
    dt = float(plant.dt)
    n = sample_count(plant, mission)
    spec = plant.noise
    damp, dfreq = spec.disturbance_amp, spec.disturbance_freq
    key = (_exact(dt), n, mission.mode, _exact(mission.duration),
           tuple(sorted((name, _exact(value)) for name, value in mission.params.items())),
           _exact(damp), _exact(dfreq))
    layout = _layout
    if layout is None or layout[0] != key:
        layout = _layout = None  # the old layout is freed before the new one is built
        layout = _layout = key, _layout_of(mission, dt, n, damp, dfreq), (None, None)
    times, r, refs, dist = layout[1]

    sigma = spec.sensor_sigma
    if sigma > 0.0:
        drawn = (_exact(sigma), spec.seed)
        kept, noise = layout[2]
        if kept != drawn:
            noise = sigma * np.random.default_rng(spec.seed).standard_normal(n - 1)
            noise.flags.writeable = False
            _layout = key, layout[1], (drawn, noise)
    else:
        noise = np.broadcast_to(0.0, n - 1)
    return dt, times, r, (noise, *refs, *dist)


def _layout_of(mission, dt, n, damp, dfreq):
    """(times, r, refs, dist) of _inputs, built afresh and made read-only."""
    # the reference at k * dt / 2: step k's start, middle and end are at 2k,
    # 2k + 1 and 2k + 2, and no time is clamped to the duration
    halves = reference_at(mission, np.arange(2 * n - 1) * (dt / 2.0))
    times = np.arange(n) * dt
    r = halves[0][::2].copy()
    # Each sawtooth sample takes the operations of the per-step expression
    # damp * (2 * frac(dfreq * t) - 1) in the same order, so it is the
    # same float.
    dist = (np.broadcast_to(0.0, n - 1),) * 3
    if damp > 0.0 and dfreq > 0.0:
        t0 = np.arange(n - 1) * dt
        dist = tuple(damp * (2.0 * ((dfreq * t) % 1.0) - 1.0)
                     for t in (t0, t0 + 0.5 * dt, t0 + dt))
    for array in (*halves, times, r, *dist):
        array.flags.writeable = False
    refs = tuple(half[at::2][:n - 1] for at in range(3) for half in halves)
    return times, r, refs, dist


def simulate(plant, pid, mission, stops=(), decided=None):
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
        stops: sample counts at which the run pauses. At each one below the
            run's length, in increasing order, decided is called with the
            run's first stop samples, and where it returns True that prefix
            is the result. Counts outside [1, samples) are ignored.
        decided: the caller's test of a prefix; required with stops.

    Returns:
        Trajectory of floor(duration/dt) + 1 samples at t = k * dt, none clamped
        to the duration: the first samples of a longer mission's run, bit for bit;
        or the prefix decided accepted, the same samples of this run, bit for bit.
    """
    engine = _engine or _find_engine()
    dt, times, r, steps = _inputs(plant, mission)
    n = len(times)
    # the step count after each pause, then the run's last step
    ends = sorted({int(stop) - 1 for stop in stops if 1 <= stop < n})
    if ends and decided is None:
        raise ValueError("stops need a decided test")

    # float(): numpy scalar coefficients would drag the Python loop onto
    # numpy scalars; a PidConfig's gains are floats already
    coefficients = (*pid, float(plant.a1), float(plant.a2), dt, CLAMP)
    xs = np.empty(n)
    vs = np.empty(n)
    xs[0] = vs[0] = 0.0
    for end in engine(coefficients, steps, xs, vs, (*ends, n - 1)):
        if end < n - 1:
            m = end + 1
            run = Trajectory(dt=dt, t=times[:m], x=xs[:m], v=vs[:m], r=r[:m],
                             e=r[:m] - xs[:m])
            if decided(run):
                return run

    return Trajectory(dt=dt, t=times, x=xs, v=vs, r=r, e=r - xs)


def _python_steps(coefficients, steps, xs, vs, ends):
    """simulate's RK4 loop: a generator that takes the run's steps up to
    each end of ends in turn, writing sample k + 1 of xs and vs at step k,
    and yields the end once it is there.

    coefficients is (kp, ki, kd, a1, a2, dt, clamp), and steps _inputs'
    ten step arrays. The loop reads and writes only Python floats, through
    memoryviews that do not copy the arrays: a float operation costs about a
    third of a numpy scalar's. _rk4.c takes the same operations in the same
    order, so where it loads its runs are this loop's, bit for bit.
    """
    kp, ki, kd, a1, a2, dt, high = coefficients
    low = -high
    x = v = q = 0.0
    half, sixth = 0.5 * dt, dt / 6.0
    xm = memoryview(xs)
    vm = memoryview(vs)
    views = [memoryview(step) for step in steps]
    # Stage s's slope (dx, dv, dq) is (v, acc1, e1), (v2, acc2, e2),
    # (v3, acc3, e3) and (vv, acc, e). (x, v, q) carry across the ends in
    # these locals, so the steps after one are the uninterrupted run's.
    start = 0
    for end in ends:
        for k, (nk, r0, rd0, rm, rdm, r1, rd1, u0, um, u1) in enumerate(
                zip(*(view[start:end] for view in views)), start + 1):
            # stage 1
            e1 = r0 - (x + nk)
            acc1 = kp * e1 + ki * q + kd * (rd0 - v) + u0 - a2 * v - a1 * x
            # stage 2
            xv = x + half * v
            v2 = v + half * acc1
            e2 = rm - (xv + nk)
            acc2 = kp * e2 + ki * (q + half * e1) + kd * (rdm - v2) + um - a2 * v2 - a1 * xv
            # stage 3
            xv = x + half * v2
            v3 = v + half * acc2
            e3 = rm - (xv + nk)
            acc3 = kp * e3 + ki * (q + half * e2) + kd * (rdm - v3) + um - a2 * v3 - a1 * xv
            # stage 4
            xv = x + dt * v3
            vv = v + dt * acc3
            e = r1 - (xv + nk)
            acc = kp * e + ki * (q + dt * e3) + kd * (rd1 - vv) + u1 - a2 * vv - a1 * xv

            x += sixth * (v + 2.0 * (v2 + v3) + vv)
            v += sixth * (acc1 + 2.0 * (acc2 + acc3) + acc)
            q += sixth * (e1 + 2.0 * (e2 + e3) + e)
            if x > high:
                x = high
            elif x < low:
                x = low
            if v > high:
                v = high
            elif v < low:
                v = low
            xm[k] = x
            vm[k] = v
        yield end
        start = end


# simulate's step engine, a generator function of _python_steps' signature:
# None until the first run looks for the compiled one (kernel.load), then
# that one where it loads and steps _CHECKS' runs bit for bit as
# _python_steps does, else _python_steps. The platform decides; nothing
# else selects it.
_engine = None
_engine_lock = threading.Lock()

# The self-check's runs, (sensor noise sigma, sawtooth amp and freq, gains,
# mission) each: noisy, sawtooth, clamped and NaN in turn, each paused once
# at _CHECK_PAUSE steps. The noise is a fixed wave, not a draw, so that the
# check imports no numpy.random into a program that draws no noise.
_CHECKS = (
    (0.05, 0.0, 0.0, PidConfig(1.0, 0.5, 1.0), circle_mission(settle_deadline=2.0, duration=4.0)),
    (0.0, 0.5, 3.0, PidConfig(2.0, 1.0, 0.5), hold_mission(settle_deadline=2.0, duration=4.0)),
    (0.02, 0.3, 0.7, PidConfig(-50.0, 100.0, -50.0),
     return_home_mission(out_t=1.0, return_t=1.0, settle_deadline=3.0, duration=4.0)),
    (0.0, 0.0, 0.0, PidConfig(1e6, 1e6, 1e6),
     brake_mission(brake_at=1.0, brake_deadline=1.0, duration=4.0)),
)
_CHECK_PAUSE = 150


def _find_engine():
    """Set _engine on the first run, and return it."""
    global _engine
    with _engine_lock:
        if _engine is None:
            from . import kernel  # imports ctypes; importing pidlab does not

            compiled = kernel.load()
            _engine = compiled if compiled is not None and _agrees(compiled) else _python_steps
    return _engine


def compiled():
    """Whether simulate runs the compiled kernel here; the first call looks
    for it (kernel.load) as simulate's first run does."""
    return (_engine or _find_engine()) is not _python_steps


def _agrees(engine):
    """Whether engine's runs of _CHECKS are _python_steps', bit for bit.
    Their inputs come from _layout_of, so the layout _inputs keeps stays."""
    plant = PlantModel()
    for sigma, damp, dfreq, pid, mission in _CHECKS:
        n = sample_count(plant, mission)
        _, _, refs, dist = _layout_of(mission, plant.dt, n, damp, dfreq)
        noise = sigma * np.sin(np.arange(n - 1.0) ** 2)
        coefficients = (*pid, plant.a1, plant.a2, plant.dt, CLAMP)
        runs = []
        for run in (engine, _python_steps):
            xs, vs = np.zeros(n), np.zeros(n)
            for _ in run(coefficients, (noise, *refs, *dist), xs, vs, (_CHECK_PAUSE, n - 1)):
                pass
            runs.append(xs.tobytes() + vs.tobytes())
        if runs[0] != runs[1]:
            return False
    return True


# Steps per chunk of simulate_linear's scan.
_SPAN = 4096


def _rk4_map(plant, pid, dt):
    """RK4's step on the unclamped closed loop as an exact affine map.

    The loop is s' = A s + b(t) on s = (x, v, q) with
    b = (0, kp * (r - noise) + kd * r' + u, r - noise), so one RK4 step with
    b sampled at the step's start, middle (stages 2 and 3) and end is
    s[k + 1] = M s[k] + N0 b0 + Nm bm + N1 b1. Returns (M, V) with V's rows
    the state response to one unit of each of (b0[1], b0[2], bm[1], bm[2],
    b1[1], b1[2]).
    """
    kp, ki, kd = pid
    a1, a2 = float(plant.a1), float(plant.a2)
    eye = np.eye(3)
    h1 = dt * np.array([[0.0, 1.0, 0.0], [-(a1 + kp), -(a2 + kd), ki], [-1.0, 0.0, 0.0]])
    with np.errstate(all="ignore"):  # huge finite gains overflow to inf and nan
        h2 = h1 @ h1
        h3 = h2 @ h1
        m = eye + h1 + h2 / 2.0 + h3 / 6.0 + (h3 @ h1) / 24.0
        n0 = dt / 6.0 * (eye + h1 + h2 / 2.0 + h3 / 4.0)
        nm = dt / 6.0 * (4.0 * eye + 2.0 * h1 + h2 / 2.0)
    n1 = dt / 6.0 * eye
    return m, np.stack([n0[:, 1], n0[:, 2], nm[:, 1], nm[:, 2], n1[:, 1], n1[:, 2]])


def _squares(m, count):
    """[M, M^2, M^4, ...]: count matrices, each the square of the one
    before. An unstable M's squares overflow; callers silence that."""
    squares = [m]
    while len(squares) < count:
        squares.append(squares[-1] @ squares[-1])
    return squares[:count]


def simulate_linear(plant, pid, mission):
    """simulate's run from RK4's exact linear map, or None where the run may
    reach LINEAR_LIMIT.

    Below the clamp each RK4 step is the affine map of _rk4_map, fed the
    step inputs simulate loops over (the same reference, noise and sawtooth
    floats), so the run is simulate's up to rounding: t and r are
    simulate's, x and v may differ in their last bits, and a verdict on them
    is simulate's only where no spec atom sits that close to its threshold
    (mtl.atom_margin).

    The clamp is predicted before any input is built: where M^(n - 1), the
    unforced loop's state at the mission's end from each unit state, has an
    entry not below LINEAR_LIMIT or not finite, the run is None and draws no
    noise. M^(n - 1) is the float squares of M taken in the bits of n - 1,
    about 2 log2(n) 3x3 products with no LAPACK call. Otherwise the run is
    None once a sample's |x| or |v| reaches LINEAR_LIMIT or is not finite.
    """
    m, resp = _rk4_map(plant, pid, float(plant.dt))
    power = np.eye(3)
    count = sample_count(plant, mission) - 1
    with np.errstate(all="ignore"):  # a diverging loop overflows to inf or nan
        for bit, square in enumerate(_squares(m, count.bit_length())):
            if count >> bit & 1:
                power = power @ square
    if not (np.abs(power) < LINEAR_LIMIT).all():
        return None
    dt, times, r, steps = _inputs(plant, mission)
    xv = _linear_scan(steps, pid, m, resp)
    if xv is None:
        return None
    xs, vs = xv
    return Trajectory(dt=dt, t=times, x=xs, v=vs, r=r, e=r - xs)


def _linear_scan(steps, pid, m, resp):
    """x and v of the run on _inputs' steps from _rk4_map's (m, resp), or
    None once a sample reaches LINEAR_LIMIT (see simulate_linear).

    The scan takes _SPAN steps at a time, reading the steps' slices
    [k0:k1], so its temporaries do not grow with the run, and stops at the
    first chunk past the limit. Within a chunk, run[:, i] starts as step i's
    own response V^T f[i], plus M s for the chunk's start state s at
    i = 0; pass j of a doubling scan adds M^(2^j) run[:, i - 2^j] to every
    run[:, i] that has one, so after the passes run[:, i] is the state
    after step i.
    """
    n = len(steps[0]) + 1
    kp, _, kd = pid
    # Squared in extended precision where the platform has it: each float
    # squaring doubles the relative error of the square before it, and the
    # scan applies every square to all the steps after it.
    with np.errstate(all="ignore"):
        squares = [square.astype(float) for square in
                   _squares(m.astype(np.longdouble), (_SPAN - 1).bit_length())]
    xs = np.empty(n)
    vs = np.empty(n)
    xs[0] = vs[0] = 0.0
    state = np.zeros(3)
    noise = steps[0]
    # (r, r', u) at the step's start, middle and end
    points = tuple(zip(steps[1:7:2], steps[2:7:2], steps[7:]))
    for k0 in range(0, n - 1, _SPAN):
        k1 = min(k0 + _SPAN, n - 1)
        # per step: kp * (r - noise) + kd * r' + u and r - noise at the
        # step's start, middle and end
        forcing = np.empty((6, k1 - k0))
        with np.errstate(all="ignore"):  # an unstable map's powers overflow
            for at, (ref, slope, u) in enumerate(points):
                y = ref[k0:k1] - noise[k0:k1]
                forcing[2 * at] = kp * y + kd * slope[k0:k1] + u[k0:k1]
                forcing[2 * at + 1] = y
            run = resp.T @ forcing
            run[:, 0] += m @ state
            for bit, square in enumerate(squares):
                shift = 1 << bit
                if shift >= k1 - k0:
                    break
                # the product is built before the add, so the overlap is safe
                run[:, shift:] += square @ run[:, :-shift]
        xs[k0 + 1:k1 + 1] = run[0]
        vs[k0 + 1:k1 + 1] = run[1]
        if not np.abs(run[:2]).max() < LINEAR_LIMIT:
            return None
        state = run[:, -1]
    return xs, vs


def simulate_batch(plant, pids, mission):
    """simulate() for every gain triple in pids, in one RK4 loop.

    The loop keeps the N runs' states as one (3, N) array (x, v, q) and
    takes each of simulate's operations, in simulate's order, as one ufunc
    call over all N runs, with the step's inputs as the same Python floats.
    IEEE arithmetic does not depend on the operand's container, so run j
    is bit-identical to simulate(plant, pids[j], mission), NaN samples of a
    divergent run included. Runs overflow to inf and nan silently, as
    Python floats do, and the clamp (np.maximum, then np.minimum) passes a
    NaN as simulate's does.

    Memory: 16 bytes per sample per run for x and v (one (n, 2, N)
    array); each run's e is built when its Trajectory is.

    Returns:
        A generator of one Trajectory per pid, in order. The loop runs at
        the call; run j's Trajectory is built when the generator reaches
        it, from views of column j of the x/v array plus its own e.
    """
    dt, times, r, steps = _inputs(plant, mission)
    pids = list(pids)
    m = len(pids)
    # one row per factor of the products a stage takes, in the order of
    # the stage rows they multiply: a1*xv, a2*vv, ki*qv, kp*e, kd*(rd - vv)
    gains = np.empty((5, m))
    gains[0] = float(plant.a1)
    gains[1] = float(plant.a2)
    for row, name in ((2, "ki"), (3, "kp"), (4, "kd")):
        gains[row] = np.fromiter((getattr(pid, name) for pid in pids), float, m)
    # the step's scalar factors, as arrays: a ufunc takes an array operand
    # faster than a Python float
    half, full, two, sixth = (np.full((3, m), c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))

    xv = np.empty((len(times), 2, m))
    xv[0] = 0.0
    state = np.zeros((3, m))  # x, v, q
    # Stage s works in stages[s], rows (xv, vv, qv, e, rd - vv) at the
    # stage's point; qv is overwritten by the acceleration once the products
    # are taken, so stages[s][1:4] is the stage's slope (vv, acc, e), which
    # is (dx, dv, dq).
    stages = np.empty((4, 5, m))
    p1, p2, p3, p4 = (s[:3] for s in stages)
    k1, k2, k3, k4 = (s[1:4] for s in stages)
    s1, s2, s3, s4 = ((*s, s) for s in stages)
    products = np.empty((5, m))
    a1x, a2v, kiq, kpe, kdr = products
    xv_now = state[:2]
    low = np.full((2, m), -CLAMP)
    high = np.full((2, m), CLAMP)
    step_sum = np.empty((3, m))
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def stage(row, r_, rd, u, nk):
        x_, v_, acc, e, rdv, all_rows = row
        add(x_, nk, out=e)
        subtract(r_, e, out=e)  # e = r - (xv + noise)
        subtract(rd, v_, out=rdv)
        multiply(gains, all_rows, out=products)
        # acc = kp*e + ki*qv + kd*(rd - vv) + u - a2*vv - a1*xv
        add(kpe, kiq, out=acc)
        add(acc, kdr, out=acc)
        add(acc, u, out=acc)
        subtract(acc, a2v, out=acc)
        subtract(acc, a1x, out=acc)

    with np.errstate(all="ignore"):
        for k, (nk, r0, rd0, rm, rdm, r1, rd1, u0, um, u1) in enumerate(
                zip(*map(memoryview, steps)), 1):
            np.copyto(p1, state)
            stage(s1, r0, rd0, u0, nk)
            multiply(half, k1, out=step_sum)
            add(state, step_sum, out=p2)
            stage(s2, rm, rdm, um, nk)
            multiply(half, k2, out=step_sum)
            add(state, step_sum, out=p3)
            stage(s3, rm, rdm, um, nk)
            multiply(full, k3, out=step_sum)
            add(state, step_sum, out=p4)
            stage(s4, r1, rd1, u1, nk)
            # state += sixth * (k1 + 2 * (k2 + k3) + k4)
            add(k2, k3, out=step_sum)
            multiply(two, step_sum, out=step_sum)
            add(k1, step_sum, out=step_sum)
            add(step_sum, k4, out=step_sum)
            multiply(sixth, step_sum, out=step_sum)
            add(state, step_sum, out=state)
            # the clamp; a NaN passes both, as it passes simulate's
            np.maximum(xv_now, low, out=xv_now)
            np.minimum(xv_now, high, out=xv_now)
            xv[k] = xv_now

    return (Trajectory(dt=dt, t=times, x=x, v=v, r=r, e=r - x)
            for x, v in ((xv[:, 0, j], xv[:, 1, j]) for j in range(m)))
