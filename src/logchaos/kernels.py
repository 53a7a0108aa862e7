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
pass over the radii, at any level count.  Doubly mollified values
K_{eps,eps'} come in two quadrature flavours:

* "grid": the exact discrete double convolution with the sampler's stencil
  weights, so tables agree with sampled-field covariances to machine
  precision (the oracle the Monte Carlo checks are scored against);
* "midpoint": a continuum midpoint rule over the mollifier supports,
  independent of any sampling grid (used for kernel-level analysis).

On a regular grid a K_{eps,eps'} table depends only on the lattice offset
i - j, so it is one value per offset (offset_table).  kernel-check reads its
suprema from those values and their separations, and the moment oracles
sum over them (verify.Bench.cross_table); no weight matrix or summed Gram
is built.  On the grid both clouds of either rule sit on multiples of
h / q for some integer q (q = 1 for grid stencils, q <= 8 for 32-node
midpoint clouds at dyadic eps on a dyadic grid), so every radius
|o h + u_a - v_b| is a lag of one lattice: the kernel is evaluated once per
lag and correlated with the cloud-pair weights binned by lag, bins cached
per eps pair (_lattice_bins, _lattice_table).  Where no lattice with
q <= 8 evaluates fewer radii than the per-offset fold (midpoint clouds
off the lattice or on a finer one, as at N=300 or 1000), each
offset folds the two clouds into their distinct differences u_a - v_b and
evaluates the kernel once per (offset, distinct difference); midpoint_work
bounds that cost up front, and the lattice undercuts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .mollifier import Mollifier, discrete_stencil, quad_cloud, shrink_domain


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

    Dense, by its definition: for free point sets and pd_check.  Regular
    grids never build it: lattice_row gives the level rows the sampler
    embeds, and offset_table the mollified tables.
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


@lru_cache(maxsize=128)
def _cloud(mol, eps, rule, h, nodes):
    """(offsets (M,), weights) of one quadrature rule, ascending and
    read-only: a table that tries the lattice and then folds, and every
    k_mollified call at one eps, build it once."""
    if rule == "grid":
        if h is None:
            raise ValueError("rule 'grid' needs the sampling grid spacing")
        offs, w = discrete_stencil(mol, eps, h)
        offs = offs[:, 0] * h
    elif rule == "midpoint":
        offs, w = quad_cloud(mol, eps, nodes)
        offs = offs[:, 0]
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    offs.flags.writeable = w.flags.writeable = False
    return offs, w


def _fold_clouds(u, wu, v, wv, eps_prime):
    """(diffs, weights) of the difference cloud u_a - v_b, weights wu_a wv_b:
    every pair is formed, sorted, and pairs whose differences are equal to
    rounding are merged with their weights summed."""
    diffs = (u[:, None] - v[None, :]).ravel()
    # float keys on a 1e-12 eps' lattice, far below the cloud spacing; a
    # float never wraps as an int64 key would at a tiny eps' / eps
    keys = np.round(diffs / (1e-12 * eps_prime))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return (diffs[order[first]],
            np.add.reduceat(np.outer(wu, wv).ravel()[order], first))


def _mollified_of_seps(spec, seps, eps, eps_prime, mol, rule, n_levels, h, nodes):
    """Doubly-mollified K_{eps,eps'} as a function of separations.

    seps has shape (M,).  Stationarity of the decomposed kernel makes the
    double convolution a function of x - y only, which is what makes table
    assembly affordable.  The kernel is evaluated once per (separation,
    distinct difference u_a - v_b of the two clouds, from _fold_clouds)
    rather than per cloud pair.
    """
    u, wu = _cloud(mol, eps, rule, h, nodes)
    v, wv = (u, wu) if eps_prime == eps else _cloud(mol, eps_prime, rule, h,
                                                     nodes)
    diffs, ww = _fold_clouds(u, wu, v, wv, eps_prime)
    out = np.empty(seps.size)
    # chunk the (M, distinct differences) radii at 2e7
    step = max(1, int(2e7 // (ww.size + 1)))
    for lo in range(0, seps.size, step):
        s = seps[lo:lo + step, None] + diffs[None, :]
        out[lo:lo + step] = k_partial(spec, n_levels, np.abs(s, out=s)) @ ww
    return out


@lru_cache(maxsize=32)
def _lattice_bins(mol, eps, eps_prime, rule, h, nodes):
    """(q, first, ww, taps) of the clouds of eps and eps' on the lattice
    h / q, read-only and cached per eps pair: ww[l] is the weight of the
    cloud pairs at lag first + l and taps the lags some pair occupies
    (every lag for grid stencils, q = 1).  Midpoint clouds take the
    smallest q <= 8 that fits every point to 1e-12 eps' (the _fold_clouds
    tolerance), or None: from q = 32 on (N = 1000, 3000) gathering each
    offset's lags from a row q times as long ran slower than the fold.
    ww and taps hold about 2 x cloud width / (h / q) entries each: 0.5 MB
    apiece for a grid stencil at eps = 2^-3 and N = 2^17."""
    u, wu = _cloud(mol, eps, rule, h, nodes)
    v, wv = (u, wu) if eps_prime == eps else _cloud(mol, eps_prime, rule, h,
                                                     nodes)
    if rule == "grid":
        q, first = 1, round((u[0] - v[-1]) / h)
        ww = np.correlate(wu, wv, "full")
        taps = np.arange(ww.size)
    else:
        qs = np.arange(1, 9)[:, None]
        t = qs * (np.concatenate([u, v]) / h)
        fit = (np.abs(t - np.rint(t)) <= qs * (1e-12 * eps_prime / h)).all(1)
        if not fit.any():
            return None
        q = int(np.argmax(fit)) + 1
        iu, iv = (np.rint(c * (q / h)).astype(np.int64) for c in (u, v))
        first = int(iu[0] - iv[-1])
        ww = np.bincount((iu[:, None] - iv[None, :] - first).ravel(),
                         np.outer(wu, wv).ravel())
        taps = np.flatnonzero(ww)
    ww.flags.writeable = taps.flags.writeable = False
    return q, first, ww, taps


def _lattice_table(spec, offsets, eps, eps_prime, mol, rule, n_levels, h,
                   nodes, shift=0.0):
    """K_{eps,eps'} at the separations shift + o h of the consecutive
    integer offsets o of a table, by one kernel evaluation per lag of
    the lattice of _lattice_bins; None when there is no such lattice or it
    evaluates more radii, (offsets - 1) q + lags, than the fold's offsets x
    occupied lags.  Offset o meets the cloud lag l at lag o q + l, so each
    value correlates the kernel row with the binned pair weights: by
    np.correlate on q = 1 with at least 1 lag in 8 occupied, else over the
    occupied lags of strided windows of the row.
    """
    bins = _lattice_bins(mol, eps, eps_prime, rule, h, nodes)
    if bins is None:
        return None
    q, first, ww, taps = bins
    n_off = offsets.size
    if (n_off - 1) * q + ww.size > n_off * taps.size:
        return None
    lags = np.arange(offsets[0] * q + first,
                     offsets[-1] * q + first + ww.size)
    krow = k_partial(spec, n_levels, np.abs(lags * (h / q) + shift))
    # a correlated lag costs about a tenth of a gathered one (2-vCPU Xeon)
    if q == 1 and ww.size <= 8 * taps.size:
        return np.correlate(krow, ww, "valid")
    # row o holds the lags o q + first ..; chunked at 2e7 as the fold is
    win = as_strided(krow, (n_off, ww.size),
                     (q * krow.itemsize, krow.itemsize), writeable=False)
    step = max(1, int(2e7 // taps.size))
    return np.concatenate([win[lo:lo + step, taps] @ ww[taps]
                           for lo in range(0, n_off, step)])


def _check_domain(spec, point, eps, who):
    dom = shrink_domain(spec.box, eps)
    if dom.empty:
        raise ValueError(f"domain empty at eps={eps}")
    pt = float(np.asarray(point, dtype=float).reshape(()))
    if pt < dom.lo - 1e-12 or pt > dom.hi + 1e-12:
        raise ValueError(f"{who}={pt} outside shrunken domain [{dom.lo}, {dom.hi}]")
    return pt


def k_mollified(spec, eps, eps_prime, x, y, mol=None, rule="midpoint",
                n_levels=None, h=None, nodes=32):
    """Doubly-mollified kernel value K_{eps,eps'}(x, y).

    Finite for all inputs including x = y; the log singularity never enters
    because each Q_n term is bounded and the sum is truncated at the level
    where later terms vanish identically on the resolved separations.

    Parameters
    ----------
    rule : "midpoint" (continuum midpoint rule, `nodes` points) or "grid"
        (the sampler's discrete stencil; pass the grid spacing `h` and the
        sampler's level count as `n_levels` to reproduce sampled
        covariances exactly).
    """
    if not 0.0 < eps_prime <= eps <= 1.0:
        raise ValueError(f"need 0 < eps'={eps_prime} <= eps={eps} <= 1")
    mol = mol if mol is not None else Mollifier()
    sep = (_check_domain(spec, x, eps, "x")
           - _check_domain(spec, y, eps_prime, "y"))
    if n_levels is None:
        n_levels = exact_level(spec, eps_prime)
    if rule == "grid":
        # one lattice row at the separation, as tables read theirs
        return float(_lattice_table(spec, np.zeros(1, dtype=np.int64), eps,
                                    eps_prime, mol, rule, n_levels, h, nodes,
                                    sep)[0])
    return float(_mollified_of_seps(spec, np.array([sep]), eps, eps_prime,
                                    mol, rule, n_levels, h, nodes)[0])


def q_mollified(spec, n, eps, z, x, mol, h=None, rule="grid", nodes=32):
    """Singly-mollified increment kernel Q_{n,eps}(z, x).

    Mollifies the x argument only.  With rule "grid" the discrete sampling
    stencil is used, so the result is the exact covariance between the
    sampled increment at z and the sampled mollified field at x; rule
    "midpoint" uses the continuum cloud (for free point sets with no grid).
    z may be an array of points of shape (P,) or (P, 1), and x is a scalar.
    """
    zz = np.asarray(z, dtype=float).reshape(-1)
    if n == 0:
        return np.full(zz.size, spec.q0)
    offs, w = _cloud(mol, eps, rule, h, nodes)
    r = np.abs(zz[:, None] - (offs + float(x))[None, :])
    vals = np.zeros_like(r)
    live = r < math.exp(-(spec.t0 + n))
    if live.any():
        vals[live] = q_n(spec, n, r[live])
    return vals @ w


def offset_table(spec, grid, rows, rows_p, eps, eps_prime, mol, rule,
                 n_levels, nodes=32):
    """K_{eps,eps'} under rule, once per lattice offset of rows x rows_p.

    The offsets o run over the bounding runs of rows (a0..a1) and rows_p
    (b0..b1), a0 - b1 .. a1 - b0, and each offset's separation is taken
    from its first pair, x[f] - x[f - o] with f = max(a0, b0 + o) and x =
    grid.axis().
    Returns (lo, seps, vals): vals[k] is the value at the offset lo + k and
    seps[k] its separation.  The rows x rows_p table is vals indexed by
    np.subtract.outer(rows, rows_p) - lo.  The table comes from
    _lattice_table at the separations o h where it can; otherwise each
    offset folds at its separation.
    """
    a0, b0 = rows.min(), rows_p.min()
    o = np.arange(a0 - rows_p.max(), rows.max() - b0 + 1)
    f, x = np.maximum(a0, b0 + o), grid.axis()
    seps = x[f] - x[f - o]
    vals = _lattice_table(spec, o, eps, eps_prime, mol, rule, n_levels,
                          grid.h, nodes)
    if vals is None:
        vals = _mollified_of_seps(spec, seps, eps, eps_prime, mol, rule,
                                  n_levels, grid.h, nodes)
    return int(o[0]), seps, vals


def midpoint_work(grid, eps, eps_prime, nodes=32):
    """Upper bound on a midpoint table's radii: offsets times cloud pairs.

    Counted from the grid axis, without building the table: D_eps is a
    run of m_eps points, so a (eps, eps') table has m_eps + m_eps' - 1
    distinct offsets.  The per-offset fold evaluates one radius per
    (offset, distinct cloud difference), and the pairs bound the distinct
    differences from above; a lattice table evaluates fewer radii still.
    """
    mol = Mollifier()
    ax = grid.axis()
    dist = np.minimum(ax - grid.box[0], grid.box[1] - ax)
    offsets = (np.count_nonzero(dist > 2.0 * eps)
               + np.count_nonzero(dist > 2.0 * eps_prime) - 1)
    # the run's own cached clouds, so planning warms what the tables read
    return (offsets * _cloud(mol, eps, "midpoint", grid.h, nodes)[1].size
            * _cloud(mol, eps_prime, "midpoint", grid.h, nodes)[1].size)

