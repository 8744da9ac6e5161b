"""Discretized path pairs (g, h) = (log price, log variance) on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathPair"]


@dataclass(frozen=True)
class PathPair:
    """Piecewise-linear pair on a uniform grid; boundary values are data."""

    t: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ValueError("grid must be 1-D with at least 3 points")
        if g.shape != t.shape or h.shape != t.shape:
            raise ValueError("g, h must match the grid shape")
        dt = np.diff(t)
        if t[0] != 0.0 or abs(t[-1] - 1.0) > 1e-14 or not np.allclose(dt, dt[0], rtol=1e-10):
            raise ValueError("grid must be uniform on [0, 1]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @classmethod
    def constant(cls, g0: float, h0: float, n: int = 401) -> "PathPair":
        t = np.linspace(0.0, 1.0, n)
        return cls(t, np.full(n, float(g0)), np.full(n, float(h0)))
