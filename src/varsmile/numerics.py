"""Shared numerical kernel: singular quadrature and bracketed root finding.

Every integral in the rate-function machinery has an inverse square-root
singularity at one endpoint.  ``integrate_sqrt_singular`` removes it
exactly by the substitution u = sqrt(b - y) (mirrored for the left
endpoint) and integrates the smooth transformed integrand with a
vectorized adaptive Gauss-Legendre rule: each pass evaluates an n-point and
a 2n-point rule on every active panel in one integrand call, keeps the
panels where the two agree to their share of the tolerance and bisects the
rest.  Integrands are numpy-vectorized and may return several rows, so
integrals over the same interval share one evaluation.

The accuracy is fixed here, not by callers: every integral is accepted at
max(ABS_TOL, REL_TOL |integral|) within MAX_PANELS panels.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import AccuracyError, BracketError

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "MAX_PANELS",
    "Bracket",
    "integrate_sqrt_singular",
    "count_kernel_calls",
    "find_root",
    "bracket_root",
]

REL_TOL = 1e-10
ABS_TOL = 1e-13
MAX_PANELS = 200

_GL_N = 10
_X_N, _W_N = np.polynomial.legendre.leggauss(_GL_N)
_X_2N, _W_2N = np.polynomial.legendre.leggauss(2 * _GL_N)
# Neither rule has a node within _EDGE of a panel end, so a kink there is
# invisible to both.  Two probes just inside the ends are compared with the
# 2n-node interpolant extrapolated to them.
_PROBES = np.array([-1.0 + 1e-6, 1.0 - 1e-6])
_EDGE = 1.0 - _X_2N[-1]
_NODES = np.concatenate((_X_N, _X_2N, _PROBES))  # one evaluation for all, on [-1, 1]
_PROBE = 3 * _GL_N  # index of the first probe
# columns: n-point weights, 2n-point weights, interpolant at the two probes
_RULES = np.zeros((_NODES.size, 4))
_RULES[:_GL_N, 0] = _W_N
_RULES[_GL_N:_PROBE, 1] = _W_2N
_RULES[_GL_N:_PROBE, 2:] = [
    [np.prod((t - np.delete(_X_2N, j)) / (xj - np.delete(_X_2N, j))) for t in _PROBES]
    for j, xj in enumerate(_X_2N)
]

# per-context counter of kernel calls, set by ``count_kernel_calls``
_KERNEL_CALLS: ContextVar[list | None] = ContextVar("varsmile_kernel_calls", default=None)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] on which a function changes sign."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


@contextmanager
def count_kernel_calls():
    """Count ``integrate_sqrt_singular`` calls made in this context.

    Yields a one-element list holding the count; calls made inside a nested
    counter are added to the enclosing one when the nested block ends.
    """
    counter = [0]
    token = _KERNEL_CALLS.set(counter)
    try:
        yield counter
    finally:
        _KERNEL_CALLS.reset(token)
        outer = _KERNEL_CALLS.get()
        if outer is not None:
            outer[0] += counter[0]


def integrate_sqrt_singular(f: Callable, a: float, b: float, singular_at: str, max_panels: int = MAX_PANELS):
    """Integrate f on [a, b] where f may blow up like 1/sqrt(distance) at one end.

    ``singular_at`` is "a" or "b".  ``f`` is called as f(y, d), with y a
    1-D array of points and d the exact distance of each to the singular
    end (forming b - y inside f would cancel catastrophically near it); it
    returns an array of the same length, or an (m, len) array of m
    integrands, and the result is a float, or an array of m integrals.  The
    singular endpoint is removed by substitution before the panels see the
    integrand, and no rule evaluates a panel's endpoints.

    A panel is accepted when the n- and 2n-point rules agree to within its
    width's share of max(ABS_TOL, REL_TOL * |integral|), for every row; the
    disagreement also counts how far the integrand, probed 1e-6 half-widths
    inside each panel end other than the singular point, is from the 2n-node
    interpolant (a kink nearer an end than any node is otherwise missed by
    both rules).
    Raises AccuracyError, with the estimate and the summed disagreement of
    the open panels, when more than ``max_panels`` panels are needed.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if singular_at not in ("a", "b"):
        raise ValueError("singular_at must be 'a' or 'b'")
    if a == b:
        return 0.0
    if a > b:
        raise ValueError("requires a < b")
    counter = _KERNEL_CALLS.get()
    if counter is not None:
        counter[0] += 1

    end, sign = (b, -1.0) if singular_at == "b" else (a, 1.0)

    def g(u):
        d = u * u
        return 2.0 * u * f(end + sign * d, d)

    width = math.sqrt(b - a)
    left = np.array([0.0])
    half = np.array([0.5 * width])
    done = 0.0
    n_panels = 1
    while True:
        x = (left + half)[:, None] + half[:, None] * _NODES
        # the panel at the singular point (always first) gets no probe there:
        # it is moved onto a node and its term dropped
        at_singular = left[0] == 0.0
        if at_singular:
            x[0, _PROBE] = x[0, _GL_N]
        vals = np.asarray(g(x.ravel()), dtype=float)
        scalar = vals.ndim == 1
        vals = vals.reshape(-1, *x.shape)
        rules = vals @ _RULES
        i_2n = half * rules[..., 1]
        off_edge = np.abs(vals[..., _PROBE:] - rules[..., 2:])
        if at_singular:
            off_edge[:, 0, 0] = 0.0
        err = np.abs(i_2n - half * rules[..., 0]) + _EDGE * half * off_edge.sum(axis=-1)
        total = done + i_2n.sum(axis=-1)
        allowed = np.maximum(ABS_TOL, REL_TOL * np.abs(total))[:, None] * (2.0 * half / width)
        ok = (err <= allowed).all(axis=0)
        if ok.all():
            return float(total[0]) if scalar else total
        done = done + i_2n[:, ok].sum(axis=-1)
        bad = ~ok
        n_panels += int(bad.sum())
        if n_panels > max_panels:
            bound = err[:, bad].sum(axis=-1)
            raise AccuracyError(
                f"{n_panels} panels needed, budget {max_panels}",
                estimate=float(total[0]) if scalar else total,
                error_bound=float(bound[0]) if scalar else bound,
            )
        left, half = left[bad], 0.5 * half[bad]
        left = np.concatenate((left, left + 2.0 * half))
        half = np.concatenate((half, half))


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-12) -> float:
    """Bracketed root via Brent's method; never steps outside the bracket."""
    flo = f(bracket.lo)
    fhi = f(bracket.hi)
    if flo == 0.0:
        return bracket.lo
    if fhi == 0.0:
        return bracket.hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: f={flo:.6g}, {fhi:.6g}"
        )
    return brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=4 * sys.float_info.epsilon)


def bracket_root(f: Callable[[float], float], lo: float, hi: float, max_expansions: int = 60) -> Bracket:
    """Double [lo, hi] at ``hi`` until f changes sign."""
    flo = f(lo)
    fhi = f(hi)
    n = 0
    while flo * fhi > 0:
        if n >= max_expansions:
            raise BracketError(f"no sign change after {n} expansions (last [{lo}, {hi}])")
        hi = lo + (hi - lo) * 2.0
        fhi = f(hi)
        n += 1
    return Bracket(lo, hi)
