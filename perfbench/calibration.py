"""Machine-speed sampling that calibrates the end-to-end times.

On a shared virtual machine the speed of one vCPU drifts by 20-50% within
seconds and between minutes while no time is stolen from the process, so
raw wall times of identical runs spread wider than any useful regression
bound. `timed()` therefore samples the speed while a pidlab call runs: a
SIGALRM handler runs a small fixed probe kernel every INTERVAL_S, on the
same vCPU and at the same moments as the call, and probes also run just
before and after it. The call's calibrated time is its raw time (probe time
taken out) times REFERENCE_S over the mean probe time: "seconds at the
reference speed". (The mean tracked the calls better than the median,
lower quantiles or an exponent on the ratio did, for simulate-, monitor-
and Routh-bound calls alike.) A change to pidlab moves the calibrated time as it moves
the raw time; a slow or fast spell of the machine moves the call and its
probes alike. Raw times are kept in the result file next to the calibrated
ones.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Mean probe time on the machine the benchmark was defined on (a 2-vCPU
# virtual machine at 2.1 GHz, Python 3.11, numpy 2.4). Only a unit: another
# value would scale every calibrated time by the same factor.
REFERENCE_S = 0.0013
INTERVAL_S = 0.05
EDGE_PROBES = 3

_SIGNAL = np.linspace(-1.0, 1.0, 256)


def _kernel():
    # The kinds of work pidlab's hot paths do: a Python-level float loop
    # (simulate), small numpy array operations in a loop (the monitors),
    # dict updates (labels, regions) and float formatting (CSV rows).
    x = v = q = 0.0
    seen = {}
    for k in range(2000):
        a = 1.5 * (1.0 - x) + 0.2 * q - 0.7 * v
        v += 0.01 * a
        x += 0.01 * v
        q += 0.01 * (1.0 - x)
        if k % 8 == 0:
            seen[(k, round(x, 3))] = "%.9g" % x
    hits = 0
    for k in range(20):
        window = _SIGNAL[k:k + 200]
        cs = np.concatenate(([0], np.cumsum(window > x)))
        hits += int(cs[-1] - cs[k]) + int(np.logical_and(window < 2.0, window > -2.0).all())
    return len(seen) + hits


def _probe():
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Timing:
    """Raw and calibrated seconds of one timed block."""

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0
        self.probes = []


@contextmanager
def timed(sample=True):
    """Time the block; with sample=True also calibrate it.

    With sample=False no probe runs and no signal is raised, and
    `calibrated` equals `raw`.
    """
    timing = Timing()
    if not sample:
        t0 = perf_counter()
        try:
            yield timing
        finally:
            timing.raw = timing.calibrated = perf_counter() - t0
        return

    probes = timing.probes
    probes.extend(_probe() for _ in range(EDGE_PROBES))
    inside = []

    def on_alarm(signum, frame):
        inside.append(_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = perf_counter()
    try:
        yield timing
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        probes.extend(inside)
        probes.extend(_probe() for _ in range(EDGE_PROBES))
        timing.raw = elapsed - sum(inside)
        timing.calibrated = timing.raw * REFERENCE_S / statistics.fmean(probes)
