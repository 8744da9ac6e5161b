"""Shared numerical kernel: singular quadrature and bracketed root finding.

The rate integrals with an inverse square-root singularity at one end go
through ``integrate_sqrt_singular`` (smooth tables, running integrals and
discretized actions use fixed rules where they are formed).  It integrates on
[0, b] toward the singular end b (callers mirror a singularity at 0 onto
it), removes it exactly by the substitution u = sqrt(b - y) and integrates
the smooth transformed integrand with a vectorized adaptive Gauss-Legendre
rule: each pass evaluates an n-point and a 2n-point rule on every active
panel in one integrand call, keeps the panels where the two agree to their
share of the tolerance and bisects the rest.  Integrands are
numpy-vectorized and may return several rows, so integrals over the same
interval share one evaluation.

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
_EPS = sys.float_info.epsilon
_MAX_EXPANSIONS = 60  # bracket_root's doublings before it gives up

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

# per-context counter of kernel calls and passes, set by ``count_kernel_calls``
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
    """Count ``integrate_sqrt_singular`` calls and their passes in this context.

    Yields a list [calls, passes]; counts made inside a nested counter are
    added to the enclosing one when the nested block ends.
    """
    counter = [0, 0]
    token = _KERNEL_CALLS.set(counter)
    try:
        yield counter
    finally:
        _KERNEL_CALLS.reset(token)
        outer = _KERNEL_CALLS.get()
        if outer is not None:
            outer[0] += counter[0]
            outer[1] += counter[1]


def integrate_sqrt_singular(f: Callable, b: float, breaks=()):
    """Integrate f on [0, b] where f may blow up like 1/sqrt(b - y) at b.

    ``f`` is called as f(y, d), with y a 1-D array of points and d the exact
    distance b - y of each (forming b - y inside f would cancel
    catastrophically near b); it returns an array of the same length, or an
    (m, len) array of m integrands, and the result is a float, or an array
    of m integrals.  A singularity at the lower end is integrated by
    mirroring the integrand onto [0, b].  The singular endpoint is removed by
    substitution before the panels see the integrand, and no rule evaluates
    a panel's endpoints.

    A panel is accepted when the n- and 2n-point rules agree to within its
    width's share of max(ABS_TOL, REL_TOL * |integral|), for every row; the
    disagreement also counts how far the integrand, probed 1e-6 half-widths
    inside each panel end other than b, is from the 2n-node interpolant (a
    kink nearer an end than any node is otherwise missed by both rules).
    The starting panels end at the ``breaks`` (kinks of f) in (0, b).  A
    panel narrower in y than 16 eps |b| is accepted, as a kink known to
    about an ulp cannot be isolated further.
    Raises AccuracyError, with the estimate and the summed disagreement of
    the open panels, when more than MAX_PANELS panels are needed.
    """
    if not (0.0 <= b < math.inf):
        raise ValueError(f"requires a finite b >= 0, got {b}")
    if b == 0.0:
        return 0.0
    counter = _KERNEL_CALLS.get() or [0, 0]
    counter[0] += 1

    def g(u):
        d = u * u
        return 2.0 * u * f(b - d, d)

    width = math.sqrt(b)
    cuts = [math.sqrt(b - p) for p in breaks if 0.0 < p < b]  # break p sits at u = sqrt(b - p)
    cuts = np.array(sorted({0.0, *cuts, width}))
    left, half = cuts[:-1], 0.5 * (cuts[1:] - cuts[:-1])
    done = 0.0
    n_panels = left.size
    while True:
        counter[1] += 1
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
        # a panel below the rounding floor is accepted; 4 half (left + half) is its width in y
        if ok.all() or (ok := ok | (4.0 * half * (left + half) < 16.0 * _EPS * b)).all():
            return float(total[0]) if scalar else total
        done = done + i_2n[:, ok].sum(axis=-1)
        bad = ~ok
        n_panels += int(bad.sum())
        if n_panels > MAX_PANELS:
            bound = err[:, bad].sum(axis=-1)
            raise AccuracyError(
                f"{n_panels} panels needed, budget {MAX_PANELS}",
                estimate=float(total[0]) if scalar else total,
                error_bound=float(bound[0]) if scalar else bound,
            )
        left, half = left[bad], 0.5 * half[bad]
        left = np.concatenate((left, left + 2.0 * half))
        half = np.concatenate((half, half))


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-12) -> float:
    """Bracketed root via Brent's method; never steps outside the bracket and
    evaluates each end once (brentq does, returning an end where f is 0)."""
    try:
        return brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=4 * sys.float_info.epsilon)
    except ValueError:
        # the ends are evaluated again only to tell brentq's sign error from f's own
        flo, fhi = f(bracket.lo), f(bracket.hi)
        if flo * fhi > 0:
            raise BracketError(f"no sign change on [{bracket.lo}, {bracket.hi}]: f={flo:.6g}, {fhi:.6g}") from None
        raise


def bracket_root(f: Callable[[float], float], lo: float, hi: float) -> Bracket:
    """Double [lo, hi] at ``hi`` until f changes sign, ``_MAX_EXPANSIONS`` times at most."""
    flo = f(lo)
    fhi = f(hi)
    n = 0
    while flo * fhi > 0:
        if n >= _MAX_EXPANSIONS:
            raise BracketError(f"no sign change after {n} expansions (last [{lo}, {hi}])")
        hi = lo + (hi - lo) * 2.0
        fhi = f(hi)
        n += 1
    return Bracket(lo, hi)
