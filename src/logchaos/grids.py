"""Regular evaluation grids on axis-aligned box domains."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered set of evaluation points in a box, with quadrature weights.

    Parameters
    ----------
    points : ndarray, shape (N, d)
        Evaluation points, C-order over the lattice for regular grids.
    box : tuple of float
        (lo, hi) interval shared by every axis.
    h : float or None
        Lattice spacing for regular grids; None for free point sets.
    shape : tuple of int or None
        Per-axis point counts for regular grids; None for free point sets.
    """

    points: np.ndarray
    box: tuple[float, float]
    h: float | None = None
    shape: tuple[int, ...] | None = None

    @classmethod
    def regular(cls, box, n, d=1):
        """Cell-centered regular grid with n points per axis."""
        lo, hi = float(box[0]), float(box[1])
        if hi <= lo:
            raise ValueError(f"degenerate box {box}")
        h = (hi - lo) / n
        axis = lo + (np.arange(n) + 0.5) * h
        if d == 1:
            pts = axis[:, None]
        else:
            mesh = np.meshgrid(*([axis] * d), indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(points=pts, box=(lo, hi), h=h, shape=(n,) * d)

    @classmethod
    def from_points(cls, points, box):
        """Free point set (no lattice structure, no convolution support)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 2:
            pts = pts.T
        return cls(points=pts, box=(float(box[0]), float(box[1])))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def weight(self):
        """Midpoint-rule cell weight h^d (regular grids only)."""
        if self.h is None:
            raise ValueError("free point sets carry no quadrature weights")
        return self.h ** self.d

    def axis(self, i=0):
        """Coordinate values along axis i (regular grids)."""
        if self.shape is None:
            raise ValueError("not a regular grid")
        lo = self.box[0]
        return lo + (np.arange(self.shape[i]) + 0.5) * self.h

    def interior_idx(self, margin):
        """Indices of points whose distance to the box boundary exceeds margin."""
        lo, hi = self.box
        dist = np.minimum(self.points - lo, hi - self.points).min(axis=1)
        return np.where(dist > margin)[0]

    def digest(self):
        """Stable hash of the point set, used in table sidecars and manifests."""
        hsh = hashlib.sha256()
        hsh.update(np.ascontiguousarray(self.points).tobytes())
        hsh.update(repr(self.box).encode())
        return hsh.hexdigest()[:16]
