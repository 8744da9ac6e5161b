"""Discretized path pairs (g, h) = (log price, log variance) on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathPair"]


@dataclass(frozen=True)
class PathPair:
    """Piecewise-linear pair on the uniform grid of its n nodes on [0, 1];
    boundary values are data."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if g.ndim != 1 or g.size < 3 or h.shape != g.shape:
            raise ValueError("g, h must be 1-D of one length, at least 3")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    @property
    def dt(self) -> float:
        return 1.0 / (self.n - 1)

    @classmethod
    def constant(cls, g0: float, h0: float, n: int = 401) -> "PathPair":
        return cls(np.full(n, float(g0)), np.full(n, float(h0)))
