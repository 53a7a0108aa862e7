"""Joint Gaussian sampling of increment fields, partial sums, and mollified fields.

Replica r draws its standard normals from the counter-based stream
``np.random.default_rng([seed, r])``, so every replica is reproducible in
isolation.  All sampling then runs through fixed blocks of 32 replicas, with
the block always padded to exactly 32 columns (padding replicas use their
own streams and are discarded).  Each level Q_n has compact support, so its
Gram and lower Cholesky factor are banded; a block multiplies the factor's
dense row tiles, each spanning one band left of its rows, by the matching
rows of the normals.  Because each block's bytes depend only on (seed, block
index, factors), results are identical for any worker count and any total
replica budget, which is what the replay contract requires; the products
run in BLAS, so the bytes also depend on the BLAS build, its thread count
and the CPU kernel it selects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky_banded

from . import kernels
from .grids import Grid
from .mollifier import Mollifier, weight_matrix

BLOCK = 32
# minimum height of the dense row tiles block_z multiplies; a band wider
# than this sets the height to one bandwidth
TILE = 128


class NumericError(RuntimeError):
    """Factorization or overflow failure that invalidates a run."""


class LevelFactor(NamedTuple):
    """One level's Gram and lower Cholesky factor, held as bands.

    gram and chol use LAPACK's lower band storage: row d, column j holds
    entry (j + d, j), and rows past the bandwidth are absent.  tiles are the
    dense row tiles (r0, r1, lo, L[r0:r1, lo:r1]) that block_z multiplies.
    jitter is the diagonal shift the factorization needed, 0.0 when none.
    """

    gram: np.ndarray
    chol: np.ndarray
    tiles: tuple
    jitter: float


def band_block(band, rows, cols, fill=0.0, symmetric=False):
    """Dense block [rows, cols] of a matrix held in lower band storage.

    symmetric=True mirrors the band into the upper triangle; otherwise the
    matrix is lower triangular.  Entries outside the band read fill.
    """
    i = np.asarray(rows)[:, None]
    j = np.asarray(cols)[None, :]
    d = i - j
    if symmetric:
        d, j = np.abs(d), np.minimum(i, j)
    live = (d >= 0) & (d < band.shape[0])
    out = np.full(live.shape, float(fill))
    out[live] = band[d[live], np.broadcast_to(j, live.shape)[live]]
    return out


def _row_tiles(chol):
    """Dense row tiles of a banded lower factor; TILE rows or one band."""
    b, n = chol.shape[0] - 1, chol.shape[1]
    step = max(b + 1, TILE)
    tiles = []
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        lo = max(r0 - b, 0)
        tiles.append((r0, r1, lo, band_block(chol, np.arange(r0, r1),
                                             np.arange(lo, r1))))
    return tuple(tiles)


def band_cholesky(mat, name="kernel"):
    """Banded lower Cholesky factor of a symmetric matrix, with jitter.

    The bandwidth is read from the lower triangle of mat.  A failed
    factorization retries with diagonal jitter starting at 1e-10 * trace/N
    and escalating x10, at most 3 times; a zero matrix factors to zero.
    Raises NumericError naming the offending kernel when escalation is
    exhausted.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    cols = np.arange(n)
    # a row whose first nonzero lies right of the diagonal has an empty
    # lower part, hence the clip at 0
    nz = mat != 0.0
    reach = np.maximum(cols - nz.argmax(axis=1), 0)[nz.any(axis=1)]
    rows = cols[None, :] + np.arange(int(reach.max(initial=0)) + 1)[:, None]
    gram = np.where(rows < n, mat[np.minimum(rows, n - 1), cols], 0.0)
    tr = float(np.trace(mat))
    if tr == 0.0 and not gram.any():
        return LevelFactor(gram, gram.copy(), _row_tiles(gram), 0.0)
    base = 1e-10 * tr / n
    for jitter in (0.0, base, base * 10.0, base * 10.0 * 10.0):
        shifted = gram.copy()
        shifted[0] += jitter
        try:
            chol = cholesky_banded(shifted, lower=True)
        except np.linalg.LinAlgError:
            continue
        return LevelFactor(gram, chol, _row_tiles(chol), jitter)
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


@dataclass
class FieldSample:
    """One replica of the coupled field hierarchy on a grid.

    z[k] holds the level-k increment values on the grid (row 0 is the Q_0
    common mode, zero when q0_kind is "zero"); partial sums and mollified
    fields are derived views of the same draw.
    """

    spec: kernels.KernelSpec
    grid: Grid
    seed: int
    replica: int
    n_max: int
    z: np.ndarray = field(repr=False)
    tilt: TiltShift | None = None
    mol_profile: str | None = None
    mollified: dict = field(default_factory=dict, repr=False)
    mollified_rows: dict = field(default_factory=dict, repr=False)

    def y(self, n):
        """Partial sum Y_n = Q_0 mode + Z_1 + ... + Z_n, exact by summation."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 0..{self.n_max}")
        return self.z[: n + 1].sum(axis=0)


def increment_factors(spec, grid, n_max):
    """Banded Cholesky factors for levels 1..n_max plus the Q_0 amplitude.

    Returns (q0_amp, [LevelFactor_1, ..., LevelFactor_n_max]); q0_amp is
    sqrt(q0_const) for the constant smooth part and 0.0 otherwise.  Each
    level Gram is evaluated once and kept in band form with its factor.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    factors = [band_cholesky(kernels.gram(spec, k, grid), name=f"Q_{k}")
               for k in range(1, n_max + 1)]
    q0_amp = np.sqrt(spec.q0_value)
    return q0_amp, factors


def replica_normals(seed, replica, n_levels, n):
    """The (n_levels, n) standard-normal panel owned by one replica stream."""
    rng = np.random.default_rng([seed, replica])
    return rng.standard_normal((n_levels, n))


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
    """Increment stack for one replica block: shape (n_max+1, N, BLOCK).

    Column j belongs to replica block_start + j.  This is the only code path
    that touches the RNG or the factors, for samples and benches alike.
    """
    q0_amp, levels = factors
    n = grid.n
    panels = np.empty((BLOCK, n_max + 1, n))
    for j in range(BLOCK):
        panels[j] = replica_normals(seed, block_start + j, n_max + 1, n)
    # one transposing copy is cheaper than BLOCK strided column writes; z
    # reuses the panels' buffer, so a block allocates two (levels, N, BLOCK)
    # arrays, not three (a third measurably slows small-N runs)
    xi = np.ascontiguousarray(panels.transpose(1, 2, 0))
    z = panels.reshape(xi.shape)
    z[0] = q0_amp * xi[0, 0, :][None, :] * np.ones((n, 1))
    for k in range(1, n_max + 1):
        for r0, r1, lo, tile in levels[k - 1].tiles:
            np.matmul(tile, xi[k, lo:r1], out=z[k, r0:r1])
    if shifts is not None:
        z += shifts[:, :, None]
    return z


def sample_increments(spec, grid, n_max, seed, replicas=1, mol=None, tilt=None):
    """Generate FieldSample objects for replicas 0..replicas-1.

    Factors are computed once; each replica is extracted from its block so
    the draw agrees byte-for-byte with any batched run using the same seed.
    """
    mol = mol if mol is not None else Mollifier(d=spec.d)
    factors = increment_factors(spec, grid, n_max)
    shifts = None
    if tilt is not None and tilt.alpha != 0.0:
        shifts = tilt_shift_rows(spec, grid, tilt, n_max, mol)
    cache_start, cache = -1, None
    for r in range(replicas):
        start = (r // BLOCK) * BLOCK
        if start != cache_start:
            cache = block_z(spec, grid, factors, seed, start, n_max, shifts)
            cache_start = start
        yield FieldSample(spec=spec, grid=grid, seed=seed, replica=r,
                          n_max=n_max, z=cache[:, :, r - start].copy(),
                          tilt=tilt, mol_profile=mol.profile)


def sample_mollified(sample, eps_list, mol=None):
    """Attach mollified fields X_eps = W_eps Y_{n_max} for each requested eps.

    The truncation at n_max is covariance-exact at resolved separations
    because higher levels are supported below the grid scale; the
    precondition n_max >= ceil(log(1/eps_min)) + 2 enforces that.
    """
    mol = mol if mol is not None else Mollifier(d=sample.spec.d)
    eps_min = min(eps_list)
    need = kernels.exact_level(sample.spec, eps_min)
    if sample.n_max < need:
        raise ValueError(f"n_max={sample.n_max} < {need} required for eps={eps_min}")
    y_top = sample.y(sample.n_max)
    for eps in eps_list:
        rows, w = weight_matrix(sample.grid, mol, eps)
        sample.mollified[eps] = w @ y_top
        sample.mollified_rows[eps] = rows
    sample.mol_profile = mol.profile
    return sample


def save_sample(sample, path):
    """Binary arrays plus a JSON manifest; the manifest is the provenance unit."""
    arrays = {"z": sample.z}
    for eps, vals in sample.mollified.items():
        arrays[f"x_{eps!r}"] = vals
        arrays[f"rows_{eps!r}"] = sample.mollified_rows[eps]
    np.savez(path, **arrays)
    tilt = None
    if sample.tilt is not None:
        tilt = {"x": sample.tilt.x, "y": sample.tilt.y, "eps": sample.tilt.eps,
                "eps_prime": sample.tilt.eps_prime, "alpha": sample.tilt.alpha}
    manifest = {
        "seed": int(sample.seed),
        "replica": int(sample.replica),
        "grid_hash": sample.grid.digest(),
        "eps_list": sorted(float(e) for e in sample.mollified),
        "n_max": int(sample.n_max),
        "tilt": tilt,
        "mol_profile": sample.mol_profile,
    }
    mpath = str(path) + ".json"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def load_sample(path, spec, grid):
    """Rehydrate a saved sample; the grid must hash-match the manifest."""
    with open(str(path) + ".json") as fh:
        manifest = json.load(fh)
    if manifest["grid_hash"] != grid.digest():
        raise ValueError("grid hash mismatch against manifest")
    data = np.load(str(path) if str(path).endswith(".npz") else str(path) + ".npz")
    tilt = None
    if manifest["tilt"] is not None:
        tilt = TiltShift(**manifest["tilt"])
    sample = FieldSample(spec=spec, grid=grid, seed=manifest["seed"],
                         replica=manifest["replica"], n_max=manifest["n_max"],
                         z=data["z"], tilt=tilt,
                         mol_profile=manifest["mol_profile"])
    for eps in manifest["eps_list"]:
        sample.mollified[eps] = data[f"x_{eps!r}"]
        sample.mollified_rows[eps] = data[f"rows_{eps!r}"]
    return sample
