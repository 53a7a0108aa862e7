"""Chaos densities, barrier events, and the Sobolev diagnostic.

A chaos integral is a plain quadrature of Wick-normalized exponentials of
the sampled mollified field against a compactly supported test function;
the block runners in verify sum chaos_density over the support rows.
Overflow of the exponential is saturated to zero and flagged, never left as
a silent infinity; estimators downstream exclude flagged replicas and report
the exclusion count.  The Wick pass builds its exponent in one buffer and
exponentiates it in place, in float with numpy's real exp when every
coefficient is real (real gamma), in complex otherwise; the test function
and the barrier event then multiply it as one real weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class ChaosParams:
    """Chaos parameters: single-gamma or two-field mode, plus truncation.

    f is the test-function table on the full grid (zeros outside its
    support); supp(f) must sit inside D_eps for every eps in play.
    """

    f: np.ndarray
    mode: str = "single"
    gamma: complex = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    truncation: bool = False
    q: int = 1
    lam: float = 0.0

    def __post_init__(self):
        if self.mode not in ("single", "two-field"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.truncation and self.q < 1:
            raise ValueError("truncation level q must be >= 1")


def wick_exp_flagged(u, z, v):
    """Wick exponential exp(u . z - (u . u) v / 2) with overflow saturation.

    u is one coefficient for the field z, or a sequence of coefficients for
    independent fields stacked along z's first axis that share the variance
    v.  Two-field chaos is u = (alpha, i beta) on (X, Y): the variance
    coefficient alpha^2 - beta^2 sits in the same exponent, so one overflow
    mask covers the combined exponent.  Returns (values, overflow_mask);
    overflowing entries are set to 0 and flagged rather than propagating
    infinities.  This is the only place the saturation rule lives.

    The exponent is built in one buffer, real and imaginary parts each as
    sum_j part(u_j) z_j - part(u . u) v / 2, and exponentiated in place.
    With every coefficient real the buffer and the values are float and
    take numpy's real exp; otherwise they are complex.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("variance v must be nonnegative")
    if np.ndim(u) == 0:
        u, z = [u], [z]
    u = [complex(c) for c in u]
    if len(u) != len(z):
        raise ValueError("need one coefficient per stacked field")
    z = [np.asarray(field) for field in z]
    half = 0.5 * sum(c * c for c in u)
    real = all(c.imag == 0.0 for c in u)
    buf = np.empty(np.broadcast_shapes(z[0].shape, v.shape),
                   dtype=float if real else complex)
    for part in ("real",) if real else ("real", "imag"):
        out = getattr(buf, part)  # a float buffer's .real is itself
        coefs = [getattr(c, part) for c in u]
        np.multiply(coefs[0], z[0], out=out)
        for c, field in zip(coefs[1:], z[1:]):
            out += c * field
        out -= getattr(half, part) * v
    mask = buf.real > OVERFLOW_EXPONENT
    saturated = mask.any()
    if saturated:  # exp(0) where the exponent would overflow, then 0
        buf[mask] = 0.0
    np.exp(buf, out=buf)
    if saturated:
        buf[mask] = 0.0
    return buf, mask


def barrier_below(z, rows, lam, tops=None):
    """below[i] = [Y_k <= k lam], k = tops[i], on the given rows of a
    (slabs, N, B) block.

    Slab i sums the levels after tops[i - 1] through its top level tops[i]
    (default: one slab per level 0, 1, ...), so the cumsum over slabs is
    the partial sum Y_k, accumulated in level order; the boundary is
    inclusive.  The barrier event A_{q,lam} at a point is below[i:].all(
    axis=0), i the slab whose top is q.  This is the only barrier
    evaluator.
    """
    tops = np.arange(z.shape[0]) if tops is None else np.asarray(tops)
    y = np.cumsum(z[:, rows, :], axis=0)
    return y <= lam * tops[:, None, None]


def chaos_density(u, x, v, f, event=None):
    """Chaos density Wick(u, x, v) * event * f on the support rows.

    x is the (S, B) mollified field block on the support rows ((fields, S,
    B) stacked for two-field coefficients u), v the (S,) variance table, f
    the (S,) test-function values, and event an optional (S, B) barrier
    indicator.  f and event fold into one real weight that multiplies the
    Wick values in place; saturated entries are already 0.  Returns
    (density (S, B), float for real u and complex otherwise, overflow
    (B,)); a replica column is flagged when any of its rows saturated.
    """
    vals, mask = wick_exp_flagged(u, x, np.asarray(v)[:, None])
    weight = np.asarray(f, dtype=float)[:, None]
    if event is not None:
        weight = event * weight
    vals *= weight
    return vals, mask.any(axis=0)


def q0_for(f, grid):
    """Smallest q with supp(f) inside the shrunken domain D_{e^{-q}}."""
    f = np.asarray(f, dtype=float)
    support = np.flatnonzero(f != 0.0)
    if support.size == 0:
        raise ValueError("test function is identically zero")
    pts = grid.points[support]
    lo, hi = grid.box
    margin = min(float((pts - lo).min()), float((hi - pts).min()))
    if margin <= 0:
        raise ValueError("test function touches the boundary")
    return max(1, math.floor(math.log(2.0 / margin)) + 1)


def sobolev_diag(density, grid, u):
    """Negative-index Sobolev mass Sum |M^(xi)|^2 (1+xi^2)^{-u} dxi.

    density is a (complex) d=1 field of shape (N, ...) on the full grid,
    already multiplied by the smooth cutoff; it is transformed and summed
    along axis 0, one mass per trailing index, with the box treated as a
    torus.  Requires u > 1/2 for the continuum weight to be integrable.
    """
    if grid.h is None or grid.d != 1:
        raise ValueError("sobolev_diag needs a regular d=1 grid")
    if u <= 0.5:
        raise ValueError(f"u={u} must exceed d/2 = 0.5")
    arr = np.asarray(density)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    weight = ((1.0 + xi ** 2) ** (-u)).reshape((-1,) + (1,) * (arr.ndim - 1))
    m_hat = np.fft.fft(arr, axis=0) * grid.h
    dxi = 2.0 * np.pi / (grid.box[1] - grid.box[0])
    return ((np.abs(m_hat) ** 2) * weight).sum(axis=0) * dxi


def bump_function(grid, center=None, radius=0.2, height=1.0):
    """Smooth compactly supported test function on the grid (tensor in d=2).

    The profile is exp(1 - 1/(1 - rho^2)) per axis, equal to `height` at the
    center and identically zero outside the radius.
    """
    pts = grid.points
    if center is None:
        center = [0.5 * (grid.box[0] + grid.box[1])] * grid.d
    center = np.atleast_1d(np.asarray(center, dtype=float))
    out = np.full(grid.n, float(height))
    for ax in range(grid.d):
        rho = (pts[:, ax] - center[ax]) / radius
        vals = np.zeros(grid.n)
        inside = np.abs(rho) < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho[inside] ** 2))
        out *= vals
    return out
