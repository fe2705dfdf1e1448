import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import (PidConfig, characteristic_roots, roots_stable, routh_stable,
                    theoretical_boundary)


def poly_residual(pid, a1, a2, root):
    c2, c1, c0 = a2 + pid.kd, a1 + pid.kp, pid.ki
    return abs(((root + c2) * root + c1) * root + c0)


class TestRouthStable:
    def test_known_stable(self):
        assert routh_stable(PidConfig(1, 0.5, 1), 1, 1)

    def test_product_condition_fails(self):
        # (kp+a1)(kd+a2) = 4 < ki = 5
        assert not routh_stable(PidConfig(1, 5, 1), 1, 1)

    def test_ki_must_be_positive(self):
        assert not routh_stable(PidConfig(1, 0.0, 1), 1, 1)
        assert not routh_stable(PidConfig(1, -0.5, 1), 1, 1)

    def test_negative_effective_coeffs(self):
        assert not routh_stable(PidConfig(-2, 0.5, 1), 1, 1)
        assert not routh_stable(PidConfig(1, 0.5, -3), 1, 1)

    def test_boundary_point_counts_unstable(self):
        # equality in the product condition is marginal, not stable
        assert not routh_stable(PidConfig(1, 4.0, 1), 1, 1)

    def test_a_pid_config_gets_a_bool(self):
        assert routh_stable(PidConfig(1, 0.5, 1), 1, 1) is True
        assert routh_stable(PidConfig(1, 5, 1), 1, 1) is False

    def test_numpy_gains_do_not_warn(self):
        # a PidConfig stores floats, whose product overflows to inf silently
        pid = PidConfig(np.float64(-1e300), np.float64(1.0), np.float64(1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert routh_stable(pid, 1.0, 1.0) is False


GAIN = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]),
                 st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(pids=st.lists(st.builds(PidConfig, GAIN, GAIN, GAIN), max_size=20),
       a1=st.sampled_from([1.0, 0.0, -2.0, 1e300]), a2=st.sampled_from([1.0, 0.0, -2.0, 1e300]))
def test_gain_arrays_get_the_verdict_of_each_pid(pids, a1, a2):
    # the scalar verdicts on Python floats warn of nothing, and the arrays'
    # overflow is silenced as RouthValidator.classify_many silences it
    gains = tuple(np.array([pid[k] for pid in pids], dtype=float) for k in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            stable = routh_stable(gains, a1, a2)
        want = [routh_stable(pid, a1, a2) for pid in pids]
    assert stable.dtype == bool and stable.shape == (len(pids),)
    assert stable.tolist() == want


class TestCharacteristicRoots:
    def test_residuals_tiny(self):
        pid = PidConfig(1, 0.5, 1)
        roots = characteristic_roots(pid, 1, 1)
        assert len(roots) == 3
        for r in roots:
            assert poly_residual(pid, 1, 1, r) < 1e-9

    def test_all_roots_in_left_half_plane_when_stable(self):
        roots = characteristic_roots(PidConfig(1, 0.5, 1), 1, 1)
        assert np.all(roots.real < 0)

    def test_unstable_config_has_right_half_plane_root(self):
        roots = characteristic_roots(PidConfig(1, 5, 1), 1, 1)
        assert np.any(roots.real > 0)

    def test_roots_stable_flags(self):
        assert roots_stable(PidConfig(1, 0.5, 1), 1, 1)
        assert not roots_stable(PidConfig(1, 5, 1), 1, 1)


def test_routh_equals_roots_on_random_sample():
    """The algebraic predicate and the numeric root check must agree away
    from the marginal set."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        pid = PidConfig(rng.uniform(-2, 8), rng.uniform(-1, 8), rng.uniform(-2, 8))
        a1, a2 = rng.uniform(-1, 3), rng.uniform(-1, 3)
        roots = characteristic_roots(pid, a1, a2)
        if np.min(np.abs(roots.real)) <= 1e-6:
            continue
        checked += 1
        assert routh_stable(pid, a1, a2) == bool(np.all(roots.real < 0))


@given(kp=st.floats(-1.5, 8), kd=st.floats(-1.5, 8),
       a1=st.floats(-1, 3), a2=st.floats(-1, 3),
       frac=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_ki_threshold_is_the_coefficient_product(kp, kd, a1, a2, frac):
    if kp + a1 < 0.05 or kd + a2 < 0.05:
        return
    limit = (kp + a1) * (kd + a2)
    assert routh_stable(PidConfig(kp, frac * limit, kd), a1, a2)
    assert not routh_stable(PidConfig(kp, limit * (1 + frac), kd), a1, a2)


def test_single_flip_along_ki_axis():
    # scanning ki upward, validity changes exactly once
    verdicts = [routh_stable(PidConfig(1, 0.1 + 0.1 * k, 1), 1, 1)
                for k in range(60)]
    flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert verdicts[0] and flips == 1


class TestTheoreticalBoundary:
    def test_worked_values(self):
        line = theoretical_boundary(1, 1, 1, [0.0, 0.5, 1.0])
        assert line == [(0.0, 2.0), (0.5, 3.0), (1.0, 4.0)]

    def test_scales_with_plane(self):
        line = theoretical_boundary(2, 1, 0.5, [1.0])
        assert line == [(1.0, 4.5)]

    def test_no_boundary_when_plane_unstabilizable(self):
        assert theoretical_boundary(-1, 1, 1, [0.0, 1.0]) is None
        assert theoretical_boundary(-2, 1.5, 1, [0.5]) is None

    def test_points_straddle_the_line(self):
        for d, ki in theoretical_boundary(1, 1, 1, [0.2, 0.7]):
            assert routh_stable(PidConfig(1, ki - 1e-6, d), 1, 1)
            assert not routh_stable(PidConfig(1, ki + 1e-6, d), 1, 1)
