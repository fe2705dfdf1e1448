"""The speed sampler that calibrates end-to-end times."""

import signal
from time import perf_counter

import calibration


def _busy(seconds):
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        sum(range(1000))


def test_timed_samples_inside_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = perf_counter()
    with calibration.timed() as timing:
        _busy(0.3)
    elapsed = perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timing.probes) > 2 * calibration.EDGE_PROBES
    assert 0.0 < timing.raw < elapsed
    assert timing.calibrated > 0.0


def test_unsampled_timing_is_raw():
    with calibration.timed(sample=False) as timing:
        _busy(0.05)
    assert timing.probes == []
    assert timing.calibrated == timing.raw >= 0.05
