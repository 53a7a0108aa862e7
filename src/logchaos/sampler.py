"""Joint Gaussian sampling of increment fields and their partial sums.

All sampling runs through block_z, one block of 32 replicas at a time
(verify.Bench.map_blocks hands the blocks to every run), padded to exactly
32 columns (padding replicas are drawn and discarded).  Block b draws its
standard normals from the one counter-based stream
``np.random.default_rng([seed, b])``, so its bytes depend only on (seed,
block index, factors): results are identical for any worker count and any
total replica budget, which is what the replay contract requires.

A draw holds the W grid rows lo..hi its estimator's mollified fields
read (sampled_rows; all N rows without f), and one slab per group of
consecutive levels ending at a partial sum Y_l its estimator reads
(level_groups).  A group's summed level kernel is stationary with compact
support, so on a regular d=1 grid its Gram on W consecutive rows is banded
Toeplitz and embeds exactly in a circulant on any torus of M >= W +
bandwidth + 1 points, with a nonnegative DFT because the periodized sum is
positive definite (Dietrich & Newsam 1997; Wood & Chan 1994); the constant
Q_0 adds at frequency zero.  A block scales complex normals of shape (M,
BLOCK/2) by sqrt(lambda / M) and takes one FFT (pocketfft, outside BLAS):
the first W real parts are replicas 0-15, the imaginary parts replicas
16-31, two independent exact draws.  Free point sets use a small dense
Cholesky factor of the summed Gram in the same block_z.  Reading every
level gives one group per level: the per-level draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels

BLOCK = 32


class NumericError(RuntimeError):
    """Factorization or overflow failure that invalidates a run."""


class LevelFactor(NamedTuple):
    """One group's square root, the safety net it used and the rows it
    samples, for the levels first..last: sqrt(lambda / M) of its circulant
    on an M-point torus with net the smallest eigenvalue over the largest,
    or a dense lower Cholesky factor with net the diagonal jitter it needed
    (0.0 when none).  The group 0..0 is the scalar sqrt(Q_0), one normal
    per replica on every row: a 1-point torus (net 1.0) or jitter 0.0."""

    root: np.ndarray
    net: float
    rows: int
    first: int = 0
    last: int = 0

    @property
    def embedded(self):
        return self.root.ndim == 1

    @property
    def draws(self):
        """Rows of its normal panel: M, N, or 1 for the scalar Q_0."""
        return self.root.shape[0] if self.root.ndim else 1


def next_fast_len(n):
    """The smallest 5-smooth integer m >= n, a fast real FFT length for
    numpy's pocketfft: the least of 3^b 5^c times the smallest power of
    two reaching n, over the O(log^2 n) odd parts below 2^ceil(log2 n)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def circulant_root(row, name="kernel"):
    """Square root of the circulant whose first row is row, as sqrt(lambda / M),
    sampling all M points of its torus.

    Eigenvalues above -1e-12 * lambda_max count as rounding and are clipped
    at zero; a more negative one raises NumericError naming the kernel.
    """
    lam = np.fft.fft(row).real
    ratio = float(lam.min() / lam.max())
    if ratio < -1e-12:
        raise NumericError(f"circulant embedding of {name} is not positive "
                           f"semidefinite: eigenvalue ratio {ratio:.3g}")
    return LevelFactor(np.sqrt(np.maximum(lam, 0.0) / row.size), ratio,
                       row.size)


def free_cholesky(mat, name="kernel"):
    """Dense lower Cholesky factor of a free point set's level Gram, with jitter.

    A failed factorization retries with diagonal jitter starting at
    1e-10 * trace/N and escalating x10, at most 3 times; an unjittered
    factor with a squared pivot below that first jitter (a singular Gram
    that rounding left a tiny positive pivot) counts as failed.  A zero
    matrix factors to zero.  Raises NumericError naming the offending
    kernel when escalation is exhausted.
    """
    n = mat.shape[0]
    tr = float(np.trace(mat))
    if tr == 0.0 and not mat.any():
        return LevelFactor(np.zeros_like(mat), 0.0, n)
    base = 1e-10 * tr / n
    for jitter in (0.0, base, base * 10.0, base * 10.0 * 10.0):
        try:
            root = np.linalg.cholesky(mat + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        if jitter > 0.0 or np.diag(root).min() ** 2 >= base:
            return LevelFactor(root, jitter, n)
    raise NumericError(f"cholesky failed for {name} after jitter escalation")


@dataclass(frozen=True)
class TiltShift:
    """Cameron-Martin mean shift toward two tilt points.

    The shift adds alpha * (Q_{k,eps}(z, x) + Q_{k,eps'}(z, y)) to each
    increment Z_k, so partial sums and every mollified field pick up the
    doubly-mollified means automatically by linearity.
    """

    x: float
    y: float
    eps: float
    eps_prime: float
    alpha: float


def sampled_rows(grid, f=None, eps_max=0.0):
    """(lo, hi): the first and last grid row of a draw for test function f
    whose mollified fields convolve at eps <= eps_max.

    A convolution at eps reaches floor(eps / h) rows, the discrete_stencil
    half-width, so the rows are supp(f) widened by floor(eps_max / h) each
    side and clipped to the grid; eps_max=0 keeps the rows of supp(f), all
    a draw that convolves nothing reads.  Bench.draw passes the widest eps
    among the keys its draw mollifies.  All N rows without f, on free
    points or d=2 grids.
    """
    if f is None or not np.any(f) or grid.h is None or grid.d != 1:
        return 0, grid.n - 1
    supp = np.flatnonzero(f)
    reach = math.floor(eps_max / grid.h)
    return max(int(supp[0]) - reach, 0), min(int(supp[-1]) + reach, grid.n - 1)


def level_groups(n_max, levels=None):
    """[(first, last)] of the slabs a draw reading partial sums Y_l, l in
    levels (default 0..n_max; n_max always), holds: the read levels split
    0..n_max into groups of consecutive levels, each ending at a read one."""
    tops = sorted({int(n_max), *(range(n_max + 1) if levels is None
                                 else map(int, levels))})
    if tops[0] < 0 or tops[-1] > n_max:
        raise ValueError(f"levels {tops} outside 0..{n_max}")
    return list(zip([0] + [t + 1 for t in tops[:-1]], tops))


def increment_factors(spec, grid, n_max, rows=None, levels=None):
    """One LevelFactor per group of level_groups(n_max, levels).

    A regular d=1 grid embeds group a..b, on rows consecutive rows (default
    N), in a circulant on the smallest 5-smooth torus with M >= rows +
    bandwidth + 1 points, the bandwidth of its widest level; its row is
    kernels.lattice_row over the group's levels, plus Q_0 when a = 0, and
    no Gram is built.  Any other point set factors the group's summed dense
    Gram of all N points with free_cholesky.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = grid.n if rows is None else int(rows)
    embed = grid.h is not None and grid.d == 1
    factors = []
    for a, b in level_groups(n_max, levels):
        name = f"Q_{a}" if a == b else f"Q_{a}..Q_{b}"
        if b == 0:
            factors.append(LevelFactor(np.asarray(np.sqrt(spec.q0)),
                                       1.0 if embed else 0.0, rows, 0, 0))
            continue
        if embed:
            # offsets beyond floor(support / h) lie outside the support
            band = math.floor(math.exp(-(spec.t0 + max(a, 1))) / grid.h)
            m = next_fast_len(rows + band + 1)
            o = np.arange(m)
            row = kernels.lattice_row(spec, range(max(a, 1), b + 1), grid.h,
                                      np.minimum(o, m - o))
            factor = circulant_root(row + spec.q0 if a == 0 else row,
                                    name)._replace(rows=rows)
        else:
            factor = free_cholesky(sum(kernels.gram(spec, k, grid)
                                       for k in range(a, b + 1)), name=name)
        factors.append(factor._replace(first=a, last=b))
    return factors


# block_z's normals, one buffer per thread reused across its blocks: a
# fresh MB-sized array per block is mapped and faulted in anew each time
_BUFFER = threading.local()


def tilt_shift_rows(spec, grid, tilt, n_max, mol, nodes=32):
    """Deterministic per-level mean shifts at the grid points, shape (n_max+1, N).

    Regular grids mollify the tilt points with the discrete sampling stencil
    (so tilted means match grid-rule kernel tables exactly); free point sets
    fall back to the continuum midpoint cloud.
    """
    rule = "grid" if grid.h is not None else "midpoint"
    pts = grid.points
    rows = np.zeros((n_max + 1, grid.n))
    for k in range(0, n_max + 1):
        qa = kernels.q_mollified(spec, k, tilt.eps, pts, tilt.x, mol,
                                 h=grid.h, rule=rule, nodes=nodes)
        qb = kernels.q_mollified(spec, k, tilt.eps_prime, pts, tilt.y, mol,
                                 h=grid.h, rule=rule, nodes=nodes)
        rows[k] = tilt.alpha * (qa + qb)
    return rows


def block_z(spec, grid, factors, seed, block_start, n_max, shifts=None):
    """Group slabs for one replica block: shape (groups, W, BLOCK).

    Slab i holds the sum of the levels of the i-th factor with last <=
    n_max, so cumsum over the slabs gives the partial sums at the groups'
    last levels; W = LevelFactor.rows.  Column j belongs to replica
    block_start + j.  This is the only code path that touches the RNG or
    the factors.  Block b = block_start // BLOCK draws BLOCK * sum(draws)
    normals from the one stream default_rng([seed, b]) into a per-thread
    buffer (_BUFFER) and splits them, in group order, into one (draws,
    BLOCK) panel per group.  An embedded group reads its (M, BLOCK) panel
    as complex normals of shape (M, BLOCK/2) and takes one FFT along the
    lattice axis: the first W real parts fill columns 0..BLOCK/2-1, the
    imaginary parts the rest.  shifts holds one mean row per slab.
    """
    groups = [g for g in factors if g.last <= n_max]
    n, half = groups[-1].rows, BLOCK // 2
    rows = [g.draws for g in groups]
    size = BLOCK * sum(rows)
    if getattr(_BUFFER, "normals", np.empty(0)).size < size:
        _BUFFER.normals = np.empty(size)
    rng = np.random.default_rng([seed, block_start // BLOCK])
    panels = np.split(rng.standard_normal(out=_BUFFER.normals[:size]),
                      BLOCK * np.cumsum(rows[:-1]))
    z = np.empty((len(groups), n, BLOCK))
    for i, (group, xi) in enumerate(zip(groups, panels)):
        xi = xi.reshape(-1, BLOCK)
        if group.root.ndim == 0:
            z[i] = group.root * xi
        elif group.embedded:
            a = xi.view(complex)  # the block's own panel, scaled in place
            a *= group.root[:, None]
            y = np.fft.fft(a, axis=0)[:n]
            z[i, :, :half] = y.real
            z[i, :, half:] = y.imag
        else:
            np.matmul(group.root, xi, out=z[i])
    if shifts is not None:
        z += shifts[:, :, None]
    return z
