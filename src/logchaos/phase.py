"""Phase classification of (alpha, beta) and admissible barrier slopes.

The plane splits into the L2 region (second moments bounded), the wider
subcritical strip where only truncated second moments close, the third
phase (large |beta|, small |alpha|), the glassy second phase, and the
measure-zero seams labelled "boundary" with an exact-equality tolerance.
"""

from __future__ import annotations

import math

import numpy as np

L2 = "L2_subcritical"
SUBCRITICAL = "subcritical_non_L2"
BOUNDARY = "boundary"
PHASE_II = "phase_II_glassy"
PHASE_III = "phase_III"

LABELS = (L2, SUBCRITICAL, BOUNDARY, PHASE_II, PHASE_III)

_TOL = 1e-12


class PhaseError(ValueError):
    """Parameters outside the phase a routine is defined on."""


def classify(d, alpha, beta):
    """Phase label of (alpha, beta) in dimension d.

    Invariant under sign flips of either argument; points within 1e-12 of a
    seam are labelled boundary rather than assigned to a side.
    """
    if d not in (1, 2):
        raise ValueError(f"d={d} unsupported, need 1 or 2")
    # Python floats: an overflow to inf stays silent, where numpy scalars warn
    a, b = abs(float(alpha)), abs(float(beta))
    s = a * a + b * b
    rd2 = math.sqrt(d / 2.0)
    r2d = math.sqrt(2.0 * d)
    if s < d - _TOL:
        return L2
    if rd2 + _TOL < a < r2d - _TOL and b < r2d - a - _TOL:
        return SUBCRITICAL
    if a < rd2 - _TOL and s > d + _TOL:
        return PHASE_III
    if a + b > r2d + _TOL and a > rd2 + _TOL:
        return PHASE_II
    return BOUNDARY


def pick_lambda(d, alpha, beta):
    """Midpoint of the feasible barrier-slope interval.

    The interval is {lam : sqrt(2d) < lam < 2 alpha - sqrt(2 max(s - d, 0))}
    with s = alpha^2 + beta^2; it is nonempty exactly on the
    subcritical_non_L2 phase, where both defining inequalities hold
    strictly at the midpoint.
    """
    label = classify(d, alpha, beta)
    if label != SUBCRITICAL:
        raise PhaseError(f"pick_lambda needs {SUBCRITICAL}, got {label}"
                         f" at (d={d}, alpha={alpha}, beta={beta})")
    a, beta = abs(float(alpha)), float(beta)
    s = a * a + beta * beta
    lo = math.sqrt(2.0 * d)
    hi = 2.0 * a - math.sqrt(2.0 * max(s - d, 0.0))
    if not lo < hi:
        raise PhaseError(f"empty lambda interval ({lo}, {hi})")
    lam = 0.5 * (lo + hi)
    assert lo < lam < 2.0 * a and d + 0.5 * (2.0 * a - lam) ** 2 > s
    return lam


def scan(d, alphas, betas):
    """Label every (alpha, beta) pair; returns an object array of labels."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    out = np.empty((alphas.size, betas.size), dtype=object)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            out[i, j] = classify(d, a, b)
    return out
