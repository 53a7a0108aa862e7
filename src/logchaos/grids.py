"""Regular evaluation grids on an interval."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered set of d=1 evaluation points in an interval.

    Parameters
    ----------
    points : ndarray, shape (N, 1)
        Evaluation points, ascending for regular grids.
    box : tuple of float
        (lo, hi) interval.
    h : float or None
        Lattice spacing for regular grids; None for free point sets.
    shape : tuple of int or None
        (N,) for regular grids; None for free point sets.
    """

    points: np.ndarray
    box: tuple[float, float]
    h: float | None = None
    shape: tuple[int, ...] | None = None

    @classmethod
    def regular(cls, box, n):
        """Cell-centered regular grid with n points."""
        lo, hi = float(box[0]), float(box[1])
        if hi <= lo:
            raise ValueError(f"degenerate box {box}")
        h = (hi - lo) / n
        pts = lo + (np.arange(n) + 0.5) * h
        return cls(points=pts[:, None], box=(lo, hi), h=h, shape=(n,))

    @classmethod
    def from_points(cls, points, box):
        """Free point set (no lattice structure, no convolution support) of
        d=1 points, shape (N,) or (N, 1)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 2 and pts.shape[1] == 1:
            pts = pts[:, 0]
        if pts.ndim != 1:
            raise ValueError(f"free points must be d=1, shape (N,) or (N, 1), "
                             f"got shape {pts.shape}")
        return cls(points=pts[:, None], box=(float(box[0]), float(box[1])))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def weight(self):
        """Midpoint-rule cell weight h (regular grids only)."""
        if self.h is None:
            raise ValueError("free point sets carry no quadrature weights")
        return self.h

    def axis(self):
        """Coordinate values, shape (N,) (regular grids)."""
        if self.shape is None:
            raise ValueError("not a regular grid")
        return self.points[:, 0]

    def interior_idx(self, margin):
        """Indices of points whose distance to the box boundary exceeds margin."""
        lo, hi = self.box
        x = self.points[:, 0]
        return np.where(np.minimum(x - lo, hi - x) > margin)[0]

    def digest(self):
        """Stable hash of the point set, used in table sidecars and manifests."""
        hsh = hashlib.sha256()
        hsh.update(np.ascontiguousarray(self.points).tobytes())
        hsh.update(repr(self.box).encode())
        return hsh.hexdigest()[:16]
