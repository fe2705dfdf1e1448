"""Closed-loop stability analysis for the PID-controlled second-order plant.

The characteristic polynomial of the loop is
    s^3 + (a2 + kd) s^2 + (a1 + kp) s + ki
and the Routh-Hurwitz conditions for a cubic reduce to four strict
inequalities on the coefficients.
"""

from __future__ import annotations

import numpy as np

# Roots this close to the imaginary axis are treated as marginal.
ROOT_MARGIN = 1e-9


def characteristic_coeffs(pid, a1, a2):
    """Coefficients (c2, c1, c0) of the monic closed-loop cubic."""
    kp, ki, kd = pid
    return a2 + kd, a1 + kp, ki


def routh_stable(pid, a1, a2):
    """Routh-Hurwitz verdict for the closed loop, exact strict inequalities.

    Stable iff kp + a1 > 0, kd + a2 > 0, ki > 0 and
    (kp + a1)(kd + a2) > ki. No epsilon is applied; boundary points
    count as unstable.

    pid is a PidConfig, whose verdict is a bool, or a (kp, ki, kd) triple
    of float arrays, whose verdict is a bool array of their shape. All four
    tests are taken for every entry, so arrays (and numpy scalar a1 or a2)
    warn where the product overflows; callers silence that with
    np.errstate. A PidConfig holds Python floats, which overflow to inf
    silently.
    """
    c2, c1, c0 = characteristic_coeffs(pid, a1, a2)
    return (c1 > 0.0) & (c2 > 0.0) & (c0 > 0.0) & (c1 * c2 > c0)


def characteristic_roots(pid, a1, a2):
    """All three closed-loop poles.

    Eigenvalues of the companion matrix, then a single Newton step per root
    to sharpen them.

    Returns:
        complex ndarray of shape (3,).
    """
    c2, c1, c0 = characteristic_coeffs(pid, a1, a2)
    companion = np.array([[-c2, -c1, -c0],
                          [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0]])
    roots = np.linalg.eigvals(companion)
    val = ((roots + c2) * roots + c1) * roots + c0
    deriv = (3.0 * roots + 2.0 * c2) * roots + c1
    safe = np.abs(deriv) > 1e-12
    roots = np.where(safe, roots - val / np.where(safe, deriv, 1.0), roots)
    return roots


def roots_stable(pid, a1, a2):
    """True iff every closed-loop pole has real part < -ROOT_MARGIN."""
    return bool(np.all(characteristic_roots(pid, a1, a2).real < -ROOT_MARGIN))


def theoretical_boundary(p_const, a1, a2, d_values):
    """Validity threshold in ki along a kp = p_const plane.

    For each kd in d_values the loop is stable exactly for
    0 < ki < (p_const + a1)(kd + a2), so the boundary height is that product.

    Returns:
        list of (kd, ki_boundary) pairs, or None when p_const + a1 <= 0
        (no stabilizing ki exists anywhere on the plane).
    """
    if p_const + a1 <= 0.0:
        return None
    return [(float(d), (p_const + a1) * (float(d) + a2)) for d in d_values]
