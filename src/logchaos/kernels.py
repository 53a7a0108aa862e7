"""Decomposable log-correlated covariance kernels.

The reference kernel is built from a radial overlap function kappa via
increment kernels

    Q_n(r) = int_{t0+n}^{t0+n+1} kappa(e^t r) dt,

so that Q_0 + sum_{n>=1} Q_n(r) = log(1/r) + smooth remainder.  Every Q_n is
bounded, Lipschitz, supported on r < e^{-(t0+n)}, and positive definite
(kappa is a normalized self-convolution of an interval indicator).  The
kernel layer is one-dimensional: a run of consecutive levels a..b
telescopes into one integral over [t0 + a, t0 + b + 1] with a closed form
(level_sum), so q_n, k_partial and lattice_row each evaluate a run in one
pass over the radii, at any level count.  Each mollified quantity has one
source, by role:

* on the grid, the sampler's own stencil (discrete_stencil) and level
  rows (lattice_row): the exact discrete convolutions offset_table
  tabulates, equal to sampled-field covariances to machine precision (the
  oracle the Monte Carlo checks are scored against);
* off the stencil, continuum midpoint rules: k_mollified, the grid-free
  reference, on quad_cloud, and q_mollified, the tilt means, on the
  overlap of the level and mollifier supports.

On a regular grid a K_{eps,eps'} table depends only on the lattice
offset i - j, so it is one value per offset (offset_table): kernel-check
reads its suprema from those values and their separations, the moment
oracles sum over them (verify.Bench.cross_table), and the Wick variance
is the offset-0 value; no weight matrix or summed Gram is built.
Both stencils sit on the grid lattice, so every radius |o h + u_a - v_b|
is a lag of it: the kernel is evaluated once per lag and correlated with
the stencil-pair weights binned by lag, bins cached per eps pair
(_lattice_bins, _lattice_table).  table_work counts that cost up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mollifier import (Mollifier, discrete_stencil, interior_rows,
                        quad_cloud, shrink_domain, theta_eps)


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the decomposed kernel K = Q_0 + sum Q_n.

    q0 is the smooth part Q_0, a constant: 0 for the reference kernel, or
    the variance of a common Gaussian mode.  d is the dimension, and only
    d=1 is implemented.
    """

    d: int = 1
    t0: float = 0.0
    q0: float = 0.0
    box: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.d != 1:
            raise ValueError(f"d={self.d} unsupported, the kernels are d=1 only")
        if self.t0 < 0:
            raise ValueError("t0 must be >= 0")
        object.__setattr__(self, "q0", float(self.q0))
        if not (math.isfinite(self.q0) and self.q0 >= 0):
            raise ValueError(f"q0={self.q0} must be finite and >= 0")


def _as_radii(r):
    arr = np.asarray(r, dtype=float)
    if (arr < 0).any():
        raise ValueError("separation must be nonnegative")
    return arr


def kappa(r):
    """Normalized overlap |(-1, 1) n (2r - 1, 2r + 1)| / 2 = (1 - r)_+.

    Equals 1 at r=0, vanishes for r >= 1, Lipschitz with constant 1.
    """
    out = np.maximum(1.0 - _as_radii(r), 0.0)
    return float(out) if np.ndim(r) == 0 else out


def level_sum(spec, a, b, r):
    """sum_{n=a..b} Q_n(r) over the consecutive levels 1 <= a <= b.

    Each Q_n integrates kappa(e^t r) = 1 - e^t r over one unit of t, cut
    where it turns negative at t* = -log r, so the run telescopes into one
    integral over [A, t0 + b + 1], A = t0 + a, with the closed form

        (C - A) - r (e^C - e^A),   C = clip(t*, A, t0 + b + 1),

    clamped at 0 against rounding.  It is exactly b - a + 1 at r = 0 and
    exactly 0 for r >= e^-A; b = a - 1 is the empty run, 0 everywhere.
    One pass over r at any number of levels.  r: array of radii >= 0.
    """
    if a < 1 or b < a - 1:
        raise ValueError(f"levels {a}..{b} are not a run of levels >= 1")
    lo = spec.t0 + a
    with np.errstate(divide="ignore"):  # -log 0 = inf, clipped to the top
        c = -np.log(r)
    np.clip(c, lo, spec.t0 + (b + 1), out=c)
    # (C - A) - r (e^C - e^A) in place: a table's radii need r, c and e alone
    e = np.exp(c)
    e -= np.exp(lo)
    e *= r
    c -= lo
    c -= e
    np.maximum(c, 0.0, out=c)
    c[r == 0.0] = b - a + 1
    return c


def q_n(spec, n, r):
    """Increment kernel Q_n(r) = int_{t0+n}^{t0+n+1} kappa(e^t r) dt.

    The one-level run of level_sum: exactly 1 at r=0 and exactly 0 for
    r >= e^{-(t0+n)}.
    """
    if n < 1:
        raise ValueError(f"level n={n} must be >= 1")
    arr = _as_radii(r)
    out = level_sum(spec, n, n, np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def k_partial(spec, n, r):
    """Partial sum K_n(r) = Q_0 + sum_{k=1..n} Q_k(r); K_n(0) = Q_0 + n.

    The levels 1..n are one level_sum, so a radius costs the same at every
    n.
    """
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    arr = _as_radii(r)
    out = level_sum(spec, 1, n, np.atleast_1d(arr))
    out += spec.q0
    return float(out[0]) if arr.ndim == 0 else out


def exact_level(spec, r_min):
    """Smallest truncation level at which K_n(r) = K(r) for all r >= r_min."""
    n = math.ceil(math.log(1.0 / r_min) - spec.t0) + 2
    return max(n, 1)


def k_exact(spec, r):
    """Full kernel K(r) = lim_n K_n(r), exact by the support property.

    Diverges like log(1/r) as r -> 0; the diagonal r = 0 is a hard error
    (mollify instead).
    """
    arr = _as_radii(r)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0):
        raise ValueError("k_exact diverges at r=0; use the mollified kernel")
    out = k_partial(spec, exact_level(spec, float(arr.min())), arr)
    return float(out[0]) if scalar else out


def gram(spec, n, grid):
    """Gram matrix [Q_n(|x_i - x_j|)] on the Grid; n=0 gives the Q_0 block.

    Dense, by its definition: for pd_check and as a reference.  No draw
    builds it: lattice_row gives the level rows the sampler embeds and
    offset_table the mollified tables.
    """
    if n == 0:
        return np.full((grid.n,) * 2, spec.q0)
    x = grid.points[:, 0]
    r = np.abs(x[:, None] - x[None, :])
    out = np.zeros(r.shape)
    live = r < math.exp(-(spec.t0 + n))
    out[live] = q_n(spec, n, r[live])
    return out


def lattice_row(spec, levels, h, offsets):
    """Sum over the levels n = a..b of Q_n(|o| h), at integer lattice offsets o.

    The one source of level rows on a regular grid: a group of levels
    embedded on an M-point torus takes offsets min(o, M - o), and the Gram
    of those levels is the row at offsets 0..N-1 indexed by |i - j|.  The
    levels must be one consecutive run, which level_sum evaluates in one
    pass; a gapped or empty list raises ValueError.
    """
    levels = [int(n) for n in levels]
    if not levels or levels != list(range(levels[0], levels[-1] + 1)):
        raise ValueError(f"levels {levels} are not one consecutive run")
    return level_sum(spec, levels[0], levels[-1],
                     np.abs(np.asarray(offsets)) * h)


@dataclass(frozen=True)
class PdReport:
    """Positive-definiteness diagnostics for one increment level."""

    level: int
    min_eigenvalue: float
    trace: float
    fourier_min: float
    fourier_points: int

    @property
    def ok(self):
        tol = 1e-8
        return (self.min_eigenvalue >= -tol * max(self.trace, 1.0)
                and self.fourier_min >= -tol)


def pd_check(spec, grid, n=3):
    """Eigenvalue and Fourier positivity checks.

    Reports the minimum eigenvalue of the Q_n Gram matrix on the grid and
    the minimum of the DFT of kappa sampled on a period-2 torus (period 2
    clears the unit support, so periodization does not overlap).
    """
    g = gram(spec, n, grid)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite kernel values in Gram matrix")
    eigs = np.linalg.eigvalsh(g)
    m = max(grid.n, 64)
    ax = np.arange(m) * (2.0 / m)
    spec_min = np.fft.fft(kappa(np.minimum(ax, 2.0 - ax))).real.min()
    return PdReport(level=n, min_eigenvalue=float(eigs[0]), trace=float(np.trace(g)),
                    fourier_min=float(spec_min), fourier_points=m)


@lru_cache(maxsize=32)
def _lattice_bins(mol, eps, eps_prime, h):
    """(first, ww) of the sampler's stencils of eps and eps' (the integer
    taps of discrete_stencil), read-only and cached per eps pair: ww[l] is
    the weight of the tap pairs u_a - v_b at lag first + l, the correlation
    of the two weight vectors.  ww holds about 2 (eps + eps') / h entries:
    0.5 MB at eps = eps' = 2^-3 and N = 2^17."""
    u, wu = discrete_stencil(mol, eps, h)
    v, wv = (u, wu) if eps_prime == eps else discrete_stencil(mol, eps_prime,
                                                               h)
    ww = np.correlate(wu, wv, "full")
    ww.flags.writeable = False
    return int(u[0] - v[-1]), ww


def _lattice_table(spec, offsets, eps, eps_prime, mol, n_levels, h):
    """Lattice K_{eps,eps'} at the separations o h of the
    consecutive integer offsets o of a table.  Offset o meets the stencil
    lag l at lag o + l, so the kernel is evaluated once per lag of the run
    and each value is one np.correlate of that row with the lag bins of
    _lattice_bins: (offsets - 1) + lags radii and offsets x lags
    products (table_work)."""
    first, ww = _lattice_bins(mol, eps, eps_prime, h)
    lags = np.arange(offsets[0] + first, offsets[-1] + first + ww.size)
    krow = k_partial(spec, n_levels, np.abs(lags * h))
    return np.correlate(krow, ww, "valid")


def _check_domain(spec, point, eps, who):
    dom = shrink_domain(spec.box, eps)
    if dom.empty:
        raise ValueError(f"domain empty at eps={eps}")
    pt = float(np.asarray(point, dtype=float).reshape(()))
    if pt < dom.lo - 1e-12 or pt > dom.hi + 1e-12:
        raise ValueError(f"{who}={pt} outside shrunken domain [{dom.lo}, {dom.hi}]")
    return pt


def k_mollified(spec, eps, eps_prime, x, y, mol=None, n_levels=None,
                nodes=32):
    """Doubly-mollified kernel value K_{eps,eps'}(x, y) by the continuum
    midpoint rule, `nodes` points per mollifier support: the grid-free
    reference the lattice tables (offset_table) are checked against.

    Finite for all inputs including x = y; the log singularity never enters
    because each Q_n term is bounded and the sum is truncated at the level
    where later terms vanish identically on the resolved separations.
    """
    if not 0.0 < eps_prime <= eps <= 1.0:
        raise ValueError(f"need 0 < eps'={eps_prime} <= eps={eps} <= 1")
    mol = mol if mol is not None else Mollifier()
    sep = (_check_domain(spec, x, eps, "x")
           - _check_domain(spec, y, eps_prime, "y"))
    if n_levels is None:
        n_levels = exact_level(spec, eps_prime)
    # every cloud pair, wu_a K(|sep + u_a - v_b|) wv_b
    u, wu = quad_cloud(mol, eps, nodes)
    v, wv = quad_cloud(mol, eps_prime, nodes)
    return float(wu @ k_partial(spec, n_levels,
                                np.abs(sep + u[:, None] - v[None, :])) @ wv)


def q_mollified(spec, n, eps, z, x, mol):
    """Singly-mollified increment kernel Q_{n,eps}(z, x): Q_n(|z - x - u|)
    against theta_eps(u) by the midpoint rule on the overlap of the two
    supports, |u| < eps and |z - x - u| < e^-(t0+n), split at the kink
    u = z - x into two runs of 32 nodes: the same cost at every level and
    eps, and a node spacing of at most a 32nd of the narrower support.

    Mollifies the x argument only.  Level 0 is the constant Q_0, and a
    level n >= 1 is exactly 0 for |z - x| >= e^-(t0+n) + eps (the overlap
    is empty).  z may be an array of points of shape (P,) or (P, 1), and
    x is a scalar.  The sampler's own value at lattice offset
    o = (z - x) / h is w @ lattice_row(spec, [n], h, o - offs),
    (offs, w) = discrete_stencil.
    """
    zz = np.asarray(z, dtype=float).reshape(-1)
    if n == 0:
        return np.full(zz.size, spec.q0)
    d, reach = zz - float(x), math.exp(-(spec.t0 + n))
    lo = np.maximum(d - reach, -eps)
    hi = np.maximum(np.minimum(d + reach, eps), lo)   # empty: zero width
    ends = np.array([lo, np.minimum(np.maximum(d, lo), hi), hi])
    width = (ends[1:] - ends[:-1]) / 32                          # (2, P)
    u = ends[:-1, :, None] + width[:, :, None] * (np.arange(32) + 0.5)
    vals = q_n(spec, n, np.abs(d[:, None] - u)) * theta_eps(mol, eps, u)
    return (vals.sum(axis=2) * width).sum(axis=0)


def offset_table(spec, grid, rows, rows_p, eps, eps_prime, mol, n_levels):
    """Lattice K_{eps,eps'} once per lattice offset of rows x rows_p.

    The offsets o run over the bounding runs of rows (a0..a1) and rows_p
    (b0..b1), a0 - b1 .. a1 - b0, and each offset's separation is taken
    from its first pair, x[f] - x[f - o] with f = max(a0, b0 + o) and x
    the grid's coordinates.
    Returns (lo, seps, vals): vals[k] is the value at the offset lo + k and
    seps[k] its separation.  The rows x rows_p table is vals indexed by
    np.subtract.outer(rows, rows_p) - lo.  The values are _lattice_table's
    at the separations o h.
    """
    a0, b0 = rows.min(), rows_p.min()
    o = np.arange(a0 - rows_p.max(), rows.max() - b0 + 1)
    f, x = np.maximum(a0, b0 + o), grid.points[:, 0]
    return (int(o[0]), x[f] - x[f - o],
            _lattice_table(spec, o, eps, eps_prime, mol, n_levels, grid.h))


def table_work(grid, eps, eps_prime):
    """Products of the (eps, eps') table over D_eps x D_eps': offsets x lags.

    D_eps is a run of m_eps rows, so the table has m_eps + m_eps' - 1
    offsets, and each correlates the kernel row with the stencil-pair lag
    bins, read from the run's own cache (_lattice_bins), so that planning
    warms what the tables read.
    """
    offsets = (interior_rows(grid, eps).size
               + interior_rows(grid, eps_prime).size - 1)
    return offsets * _lattice_bins(Mollifier(), eps, eps_prime,
                                   grid.h)[1].size
