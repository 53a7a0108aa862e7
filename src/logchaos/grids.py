"""Cell-centred regular lattices on an interval, the one kind of Grid."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centred regular lattice of d=1 evaluation points in an interval.

    Parameters
    ----------
    points : ndarray, shape (N, 1)
        Evaluation points, ascending.
    box : tuple of float
        (lo, hi) interval.
    h : float
        Lattice spacing (hi - lo) / N.
    """

    points: np.ndarray
    box: tuple[float, float]
    h: float

    @classmethod
    def regular(cls, box, n):
        """Cell-centered regular grid with n points."""
        lo, hi = float(box[0]), float(box[1])
        if not (hi > lo and np.isfinite(hi - lo)):
            raise ValueError(f"degenerate box {box}")
        h = (hi - lo) / n
        pts = lo + (np.arange(n) + 0.5) * h
        return cls(points=pts[:, None], box=(lo, hi), h=h)

    @property
    def n(self):
        return self.points.shape[0]

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
