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

Most calls end after one pass on one panel, so a pass gives numpy only its
array work (the node matrix, the integrand call and one 3-D product for
both rules and the probes; a 2-D one rounds differently) and runs the rest
on Python floats, with each row's panel sum in numpy's pairwise order: the
bits of an all-numpy pass at half its fixed cost.

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
_NODES_AT_B = _NODES.copy()  # for the panel at the singular end: its first probe on a node
_NODES_AT_B[_PROBE] = _NODES[_GL_N]
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
    cuts = sorted({0.0, *(math.sqrt(b - p) for p in breaks if 0.0 < p < b), width})  # break p sits at u = sqrt(b - p)
    lefts, halves = cuts[:-1], [0.5 * (hi - lo) for lo, hi in zip(cuts, cuts[1:])]  # the panels in u
    floor = 16.0 * _EPS * b
    done, n_panels = None, len(halves)  # done: per row, the sum over the accepted panels
    while True:
        counter[1] += 1
        n = len(halves)
        # the panel at the singular point (always first) gets no probe there:
        # it is moved onto a node and its term dropped
        at_singular = lefts[0] == 0.0
        if n == 1:
            x = (lefts[0] + halves[0]) + halves[0] * (_NODES_AT_B if at_singular else _NODES)
        else:
            left, half = np.array(lefts), np.array(halves)
            x = (left + half)[:, None] + half[:, None] * _NODES
            if at_singular:
                x[0, _PROBE] = x[0, _GL_N]
        vals = np.asarray(g(x.ravel()), dtype=float)
        scalar = vals.ndim == 1
        vals = vals.reshape(-1, n, _NODES.size)
        rules = vals @ _RULES  # (m, n, 32) @ (32, 4): a 2-D product rounds differently
        # the rest in floats, one entry per row and panel, row after row
        rows, probes = rules.reshape(-1, 4).tolist(), vals[..., _PROBE:].reshape(-1, 2).tolist()
        m = len(rows) // n
        hs = halves * m
        drop = ([at_singular] + [False] * (n - 1)) * m  # the first probe's term, at b
        i_2n, err = [], []
        for h, (r_n, r_2n, p0, p1), (v0, v1), dropped in zip(hs, rows, probes, drop):
            i = h * r_2n
            i_2n.append(i)
            err.append(abs(i - h * r_n) + _EDGE * h * (abs(v1 - p1) + (0.0 if dropped else abs(v0 - p0))))
        # the row sums in numpy's pairwise order; one panel's sum is itself
        sums = i_2n if n == 1 else np.reshape(i_2n, (m, n)).sum(axis=-1).tolist()
        done = done or [0.0] * m
        total = [d + s for d, s in zip(done, sums)]
        # max(ABS_TOL, REL_TOL |total|) that keeps a NaN, as np.maximum does
        tols = [ABS_TOL if (t := REL_TOL * abs(s)) <= ABS_TOL else t for s in total]
        # a panel below the rounding floor is accepted; 4 half (left + half) is its width in y
        ok = [all(e <= t * (2.0 * h / width) for e, t in zip(err[p::n], tols)) or 4.0 * h * (left + h) < floor
              for p, (left, h) in enumerate(zip(lefts, halves))]
        if all(ok):
            return total[0] if scalar else np.array(total)
        ok = np.array(ok)
        done = [d + s for d, s in zip(done, np.reshape(i_2n, (m, n))[:, ok].sum(axis=-1).tolist())]
        n_panels += int((~ok).sum())
        if n_panels > MAX_PANELS:
            bound = np.reshape(err, (m, n))[:, ~ok].sum(axis=-1)
            raise AccuracyError(
                f"{n_panels} panels needed, budget {MAX_PANELS}",
                estimate=total[0] if scalar else np.array(total),
                error_bound=float(bound[0]) if scalar else bound,
            )
        lefts = [left for left, o in zip(lefts, ok) if not o]
        halves = [0.5 * h for h, o in zip(halves, ok) if not o] * 2
        lefts += [left + 2.0 * h for left, h in zip(lefts, halves)]


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
