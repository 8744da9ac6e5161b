"""Correlated-case rate machinery.

The action being minimized weighs the asset and variance path energies with
a rho cross term.  It has no closed form off rho = 0, so this module offers
analytic sandwich bounds; the exact perfect-correlation rate and the
correlated-path upper bound for intermediate rho, both from one h-only
problem, an Asian problem in the payoff level G(v) = v eta^2(F(v)), monotone
or not; and a direct transcription of the full problem, whose KKT system
Newton's method solves with a banded Lagrangian Hessian from seven coloured
central differences of the analytic gradient, 14 gradients in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PPoly
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar

from . import atm as atm_mod
from .errors import ConvergenceError, NumericsError, TableRangeError
from .model import LsvModel, clamp_points, forward_variance_limit, log_moneyness
from .numerics import Bracket, count_kernel_calls, find_root, integrate_sqrt_singular
from .paths import PathPair
from .rate_zero import (
    RateResult,
    _asian_seed,
    _paths_from_rate,
    asian_rate_j,
    rate_zero_rho,
)

__all__ = [
    "BoundsResult",
    "LambdaValue",
    "lambda_functional",
    "constraint_integral",
    "rate_bounds_rho",
    "rate_perfect_corr",
    "rate_upper_corr_path",
    "rate_numeric",
    "rate_by_method",
    "RATE_METHODS",
]

RATE_METHODS = ("closed", "bounds", "numeric", "expansion")  # of ``rate_by_method``; the first is the default


class LambdaValue(NamedTuple):
    total: float
    g_cost: float  # cross-weighted asset-leg integral
    h_cost: float  # pure variance-leg integral


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper_candidates: tuple[tuple[str, float], ...]
    best_upper: float
    dropped: tuple[tuple[str, str], ...] = ()  # (name, reason) of each upper that could not be formed

    def __post_init__(self):
        # discretized upper candidates can undershoot by quadrature error
        if self.lower > self.best_upper + 1e-6:
            raise ValueError("lower bound exceeds best upper bound")


# ---------------------------------------------------------------------------
# Discretized action
# ---------------------------------------------------------------------------


def _midpoint_pieces(model: LsvModel, g, h, dt: float):
    """Slopes of the log-level arrays g, h (nodes on the last axis) and the
    coefficient functions at their interval midpoints: (dg, dh, eta, eta',
    sigma, sigma', V), the derivatives in the log coordinates."""
    gm = 0.5 * (g[..., 1:] + g[..., :-1]) - math.log(model.s0)
    hm = 0.5 * (h[..., 1:] + h[..., :-1]) - math.log(model.v0)
    return (
        np.diff(g) / dt,
        np.diff(h) / dt,
        model.eta.value_log(gm),
        model.eta.dvalue_log(gm),
        model.sigma.value_log(hm),
        model.sigma.dvalue_log(hm),
        model.v0 * np.exp(hm),
    )


def lambda_functional(model: LsvModel, paths: PathPair) -> LambdaValue:
    """Midpoint-rule evaluation of the path action for |rho| < 1.

    Slopes live at interval midpoints; coefficient functions are evaluated at
    midpoint path values.  The same discretization is used by the numerical
    minimizer, so its reported value is reproducible from its paths.
    """
    rho = model.rho
    if abs(rho) >= 1.0:
        raise ValueError("|rho| must be < 1; use rate_perfect_corr at |rho| = 1")
    dg, dh, eta_m, _, sig_m, _, v_m = _midpoint_pieces(model, paths.g, paths.h, paths.dt)
    a = dg / (eta_m * np.sqrt(v_m))
    b = dh / sig_m
    g_cost = float(np.sum((a - rho * b) ** 2) * paths.dt / (2.0 * (1.0 - rho * rho)))
    h_cost = float(np.sum(b * b) * paths.dt / 2.0)
    return LambdaValue(g_cost + h_cost, g_cost, h_cost)


def constraint_integral(model: LsvModel, paths: PathPair) -> float:
    """Midpoint-rule value of int_0^1 e^h eta^2(e^g) dt."""
    _, _, eta_m, _, _, _, v_m = _midpoint_pieces(model, paths.g, paths.h, paths.dt)
    return float(np.sum(v_m * eta_m * eta_m) * paths.dt)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def rate_bounds_rho(model: LsvModel, k: float) -> BoundsResult:
    """Sandwich bounds on the rate for |rho| < 1.

    Lower: I0/(1+|rho|).  Uppers: I0/(1-|rho|); the action on the rho = 0
    optimal paths; J(V0, K/eta(S0)^2)/(1-rho^2); and the h-only
    correlated-path bound.  The action on the rho = 0 paths takes their exact
    leg costs g0 + h0 = I0 and sums only the cross term C = int a b dt on
    them: (g0 - rho C + rho^2 h0)/(1-rho^2) + h0, which is I0 at rho = 0.
    The cross term drops out at rho = 0 and for flat eta (a = 0; the rho = 0
    rate reports it as ``constant_eta``), and is not summed there.
    """
    rho = model.rho
    if abs(rho) >= 1.0:
        raise ValueError("bounds require |rho| < 1")
    model0 = model.with_rho(0.0)
    res0 = rate_zero_rho(model0, k)
    i0 = res0.value

    lower = i0 / (1.0 + abs(rho))
    uppers: list[tuple[str, float]] = [("scaled_zero_corr", i0 / (1.0 - abs(rho)))]

    cross = 0.0
    if rho != 0.0 and "constant_eta" not in res0.diagnostics:
        paths0 = _paths_from_rate(model0, res0, 401)
        dg, dh, eta_m, _, sig_m, _, v_m = _midpoint_pieces(model, paths0.g, paths0.h, paths0.dt)
        cross = float(np.sum(dg * dh / (eta_m * np.sqrt(v_m) * sig_m)) * paths0.dt)
    g0, h0 = res0.g_cost, res0.h_cost
    uppers.append(("zero_corr_paths", (g0 - rho * cross + rho * rho * h0) / (1.0 - rho * rho) + h0))

    z_pivot = k / float(model.eta.value_log(0.0)) ** 2
    uppers.append(("scaled_asian", asian_rate_j(model.sigma, model.v0, z_pivot).value / (1.0 - rho * rho)))

    dropped = ()
    try:
        uppers.append(("corr_path", rate_upper_corr_path(model, k)))
    except NumericsError as exc:  # e.g. the excursion leaves the coupled-map table; the other uppers stand
        dropped = (("corr_path", f"{type(exc).__name__}: {exc}"),)

    best = min(v for _, v in uppers)
    return BoundsResult(lower=lower, upper_candidates=tuple(uppers), best_upper=best, dropped=dropped)


# ---------------------------------------------------------------------------
# Path-coupling map and perfect correlation
# ---------------------------------------------------------------------------


class _CoupledMap:
    """Precomputed primitives for the coupled-path construction, in the log
    variance w = log(v / V0).

    Tabulates Phi_V(w) = sqrt(V0) int_0^w e^{w'/2}/sigma(w') dw' over the
    log-variance table |w| <= span, and the inverse of Phi_S(u) =
    int_0^u du'/eta(u') over the log-asset range that rho_eff Phi_V
    reaches, as cubic Hermite interpolants of the values and exact slopes at
    the nodes of a ``_grid``: STEP apart through 0, with a node on each clamp
    point, so no table segment holds a kink.  They give vectorized log F(w),
    the payoff level G(V0 e^w), G(v) = v eta^2(F(v)), and its w-derivative
    from the tables' own slope; ``levels`` holds G at the table's inner
    nodes ``w[1:-1]``.  The map depends on (model, rho_eff, span) alone, and
    the h-only route shares one per key through ``_coupled_map``, so its
    arrays are read-only.  An asset table that needs more than U_NODES nodes
    raises the clamp-saturation NumericsError; the sweeps and tests build at
    most 10565 while sizing one.
    """

    W_SPAN, MAX_SPAN = 4.0, 10.0
    STEP = 0.00625
    U_NODES = 2**16
    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

    def __init__(self, model: LsvModel, rho_eff: float, span: float = W_SPAN):
        self.model, self.rho_eff, self.v0 = model, rho_eff, model.v0

        self.w = self._grid(-span, span, clamp_points(model.sigma))
        dphi_v = lambda ww: np.sqrt(self.v0) * np.exp(0.5 * ww) / model.sigma.value_log(ww)
        phi_v = self._cumulative(dphi_v, self.w)
        self._phi_v = CubicHermiteSpline(self.w, phi_v, dphi_v(self.w))

        # the u table covers what rho_eff Phi_V reaches over the w table: it doubles out from
        # [-1, 1] on each side where Phi_S falls short, then keeps one node past the reach
        need, lo, hi = np.sort(rho_eff * phi_v[[0, -1]]), -1.0, 1.0
        while True:
            u = self._grid(lo, hi, clamp_points(model.eta))
            if u.size > self.U_NODES:
                raise NumericsError(f"coupled-map primitive out of range (clamp saturation) past {self.U_NODES} u nodes")
            phi_s = self._cumulative(lambda uu: 1.0 / model.eta.value_log(uu), u)
            if phi_s[0] < need[0] and phi_s[-1] > need[1]:
                break
            lo, hi = (2.0 * lo if phi_s[0] >= need[0] else lo), (2.0 * hi if phi_s[-1] <= need[1] else hi)
        keep = slice(np.searchsorted(phi_s, need[0]) - 1, np.searchsorted(phi_s, need[1], side="right") + 1)
        u, phi_s = u[keep], phi_s[keep]
        self._phi_s_inv = CubicHermiteSpline(phi_s, u, model.eta.value_log(u))
        self._phi_s_range = (phi_s[0], phi_s[-1])

        # G' jumps where the tabulated F crosses a clamp point of eta, a u node j:
        # at the root of rho_eff Phi_V(w) = Phi_S(u_j) on the one w segment holding it
        self._kinks = []
        if rho_eff != 0.0:
            for level in phi_s[np.isin(u, clamp_points(model.eta))] / rho_eff:
                i = int(np.searchsorted(phi_v, level)) - 1
                if 0 <= i < phi_v.size - 1:
                    seg = PPoly(self._phi_v.c[:, i : i + 1], self.w[i : i + 2])
                    self._kinks.extend(float(r) for r in seg.solve(level, extrapolate=False))

        self.levels = self.level(self.w[1:-1])
        for table in (self.w, self.levels, self._phi_v.x, self._phi_v.c, self._phi_s_inv.x, self._phi_s_inv.c):
            table.flags.writeable = False

    @classmethod
    def _grid(cls, lo: float, hi: float, clamps=()):
        """Nodes STEP apart from lo < 0 to hi > 0 (rounded out), 0 among
        them, and one on each clamp point inside: a node other than 0 within
        STEP/4 of a clamp point gives way to it."""
        n = math.ceil(-lo / cls.STEP - 1e-9)
        grid = cls.STEP * np.arange(-n, math.ceil(hi / cls.STEP - 1e-9) + 1)
        c = np.array([p for p in clamps if grid[0] <= p <= grid[-1] and p != 0.0])
        if c.size:
            near = n + np.rint(c / cls.STEP).astype(int)  # only the nearest node can be within STEP/4
            near = near[(np.abs(grid[near] - c) < 0.25 * cls.STEP) & (near != n)]
            grid = np.unique(np.concatenate((np.delete(grid, near), c)))
        return grid

    @classmethod
    def _cumulative(cls, fn, grid):
        """Cumulative integral along a ``_grid``, summed outward from its
        node 0 (where it is exactly 0); Gauss-Legendre per segment."""
        half = 0.5 * np.diff(grid)
        nodes = (grid[:-1] + half)[:, None] + half[:, None] * cls._GL_NODES
        seg = half * (fn(nodes.ravel()).reshape(nodes.shape) @ cls._GL_WEIGHTS)
        mid = int(np.searchsorted(grid, 0.0))
        out = np.zeros(grid.size)
        out[mid + 1 :] = np.cumsum(seg[mid:])
        out[:mid] = -np.cumsum(seg[mid - 1 :: -1])[::-1]
        return out

    def _coords(self, w):
        """(w, rho_eff Phi_V(w)) at log variance(s) w; Phi_S^{-1} of the latter is log(F / S0)."""
        w = np.asarray(w, dtype=float)
        if _outside(w, self.w[0], self.w[-1]):
            raise TableRangeError(f"log variance outside the coupled-map table [{self.w[0]:g}, {self.w[-1]:g}]")
        rhs = self.rho_eff * self._phi_v(w)
        if _outside(rhs, *self._phi_s_range):
            raise NumericsError("coupled-map primitive out of range (clamp saturation)")
        return w, rhs

    def log_f(self, w):
        """log F at log variance(s) w."""
        return math.log(self.model.s0) + self._phi_s_inv(self._coords(w)[1])

    def level(self, w):
        """The payoff level G(V0 e^w) = V0 e^w eta^2(F)."""
        w, rhs = self._coords(w)
        e = self.model.eta.value_log(self._phi_s_inv(rhs))
        return self.v0 * np.exp(w) * e * e

    def dlevel(self, w):
        """dG/dw = v G'(v) at v = V0 e^w, G' = eta^2(F) + 2 eta(F) Xi(F) du/dw with
        Xi the log-derivative of eta at F and the tables' own slope
        du/dw = rho_eff (Phi_S^{-1})' Phi_V' (not eta(F) rho_eff sqrt(v) / sigma):
        the derivative of ``level``."""
        w, rhs = self._coords(w)
        u, eta = self._phi_s_inv(rhs), self.model.eta
        e, du_dw = eta.value_log(u), self.rho_eff * self._phi_s_inv(rhs, 1) * self._phi_v(w, 1)
        return self.v0 * np.exp(w) * (e * (e + 2.0 * eta.dvalue_log(u) * du_dw))

    def kinks(self, s: float, t_hi: float):
        """The distances t = s w in (0, t_hi), ascending, at which the tabulated
        F(V0 e^w) crosses a clamp point of eta, so G' jumps."""
        return sorted(s * w for w in self._kinks if 0.0 < s * w < t_hi)


def _outside(a, lo: float, hi: float) -> bool:
    """Whether an entry of a lies outside [lo, hi], in one NaN-skipping reduction per bound."""
    return np.fmin.reduce(a, axis=None, initial=np.inf) < lo or np.fmax.reduce(a, axis=None, initial=-np.inf) > hi


_memo_map = functools.lru_cache(maxsize=8)(_CoupledMap)


def _coupled_map(model: LsvModel, rho_eff: float, span: float) -> _CoupledMap:
    """The shared ``_CoupledMap`` of (model, rho_eff, span), span clipped to
    [W_SPAN, MAX_SPAN] first: a memo of the last 8 keys, so equal-by-value
    models share one map."""
    return _memo_map(model, rho_eff, min(max(span, _CoupledMap.W_SPAN), _CoupledMap.MAX_SPAN))


# Integrand nodes this near (in w) to w_a take the payoff gap G(v_a) - G(v) from
# a Gauss rule on dG/dw, split where G' jumps; the plain difference cancels.
_NEAR = 1e-3
_NEAR_X, _NEAR_W = np.polynomial.legendre.leggauss(4)
# The root condition is not evaluated this near (in w) to an extremum of G or to
# a record start, where the endpoint integrand turns from 1/sqrt(d) toward 1/d.
_GUARD = 1e-6


def _coupled_endpoint(mapper: _CoupledMap, a0: float, w_a: float, b: float, extrema=()):
    """(G(v_a) / A0, F, G) at the terminal log variance w_a on the branch b: the
    Asian endpoint integrals in w, F = int dw / (sigma(w) sqrt(D)) and
    G = int sqrt(D) / sigma(w) dw over [0, w_a], D = b (G(v_a) - G(v)) / A0.
    The |w| of earlier extrema of G, where D dips toward 0, are kernel breaks."""
    d, t_a = math.copysign(1.0, w_a), abs(w_a)
    level = lambda w: mapper.level(w) / a0
    e_a = float(level(w_a))
    kinks = mapper.kinks(d, t_a)

    def fg(t, dist):  # t = |w| on [0, t_a], dist = t_a - t
        gap = b * (e_a - level(d * t))
        near = dist < _NEAR
        ends = [dist[near], *(np.clip(t_a - k, 0.0, dist[near]) for k in kinks), 0.0]
        gap[near] = 0.0
        for p, q in zip(ends[:-1], ends[1:]):
            wn = d * (t_a - (q + 0.5 * (p - q))[:, None] - 0.5 * (p - q)[:, None] * _NEAR_X)
            gap[near] += b * d * 0.5 * (p - q) * (mapper.dlevel(wn) @ _NEAR_W) / a0
        sig, r = mapper.model.sigma.value_log(d * t), np.sqrt(gap)
        return np.array([1.0 / (sig * r), r / sig])

    breaks = (*kinks, *extrema, *(d * w for w in clamp_points(mapper.model.sigma)))
    f, g = integrate_sqrt_singular(fg, t_a, breaks)
    return e_a, float(f), float(g)


def _coupled_asian(mapper: _CoupledMap, a0: float, zr: float):
    """The h-only problem as an Asian problem in the payoff level A = G(v),
    solved in the log variance w = log(v / V0): (rate, diagnostics).

    With sigma_hat the Asian coefficient in y = log(A / A0),
    dy / sigma_hat(y) = dw / sigma(w), so the endpoint integrals need G, not
    its inverse (``_coupled_endpoint``).  The optimal path ends at zero speed:
    (w' / sigma)^2 = 2 |lam| b (G(v_a) - G(v)), b = +1 above A0 and -1 below,
    so w is monotone and w_a is a strict running record of b G.  In each
    direction the records at the table nodes form runs, from the money or
    from where b G passes the last record (a root on one segment) to an
    extremum M (a bounded search on the two segments around it).  The root
    condition b (G(v_a) / A0 - zr) - G / F starts at or below 0 on a run and
    tends to b M - b zr at its end, where F diverges: the first run with
    b M > b zr holds the root, the runs before it cost no kernel call and
    their extrema are kernel breaks.  The least rate of the two directions
    is taken; TableRangeError if neither has a root on the table.

    In a run the root runs in |w_a| from a seed whose log(G / A0) is the
    Asian seed probe, doubling away from the run's start, at nodes at least
    _GUARD from its ends; a sign change between an end and its nearest node
    is chased by halving toward the end, until NumericsError at _GUARD.  Past
    a kink of G the root condition, smooth in the square root of the distance
    to it, can dip back below zero (a fold with three roots): the least rate
    is taken."""
    b = 1.0 if zr > 1.0 else -1.0
    probe = _asian_seed(zr)

    def solve(d, start, nodes, xp, ext, extrema):
        """The run's (rate, diagnostics); None if its root lies past the table (ext None)."""
        @functools.cache
        def endpoint(t_a):  # (G(v_a) / A0, F, G) at |w_a| = t_a; at 0, D vanishes and G/F with it
            return (1.0, 1.0, 0.0) if t_a == 0.0 else _coupled_endpoint(mapper, a0, d * t_a, b, extrema)

        def phi(t_a):  # the Asian root condition at |w_a| = t_a
            e_a, f, g = endpoint(t_a)
            return b * (e_a - zr) - g / f

        def toward(t, end, what):
            if abs(end - t) <= 2.0 * _GUARD:
                raise NumericsError(f"coupled Asian root within {_GUARD:g} of {what} at |log(v/V0)| = {end!r}")
            return 0.5 * (t + end)

        hi = float(np.interp(probe, xp, nodes))  # xp: b log(G / A0) at the nodes
        while phi(hi) < 0.0:
            if hi < nodes[-1]:
                hi = min(start + 2.0 * (hi - start), nodes[-1])
            elif ext is None:
                return None
            else:
                hi = toward(hi, ext, "an extremum of G")
        lo_t = nodes[0]  # the money itself, where phi < 0, on the run from it
        while phi(lo_t) >= 0.0:
            lo_t = toward(lo_t, start, "a record start of G")
        kinks = [c for c in mapper.kinks(d, hi) if c > lo_t]
        points = [lo_t]
        for a, c in zip(kinks, kinks[1:] + [hi]):
            points.append(a)
            if phi(a) > 0.0:  # a dip below zero just past a, if any, sits at phi's least value
                r = minimize_scalar(lambda r: phi(a + r * r), bounds=(0.0, math.sqrt(c - a)), method="bounded").x
                points.append(min(a + r * r, c))
        points.append(hi)
        roots = [find_root(phi, Bracket(p, q), tol=1e-13)
                 for p, q in zip(points[:-1], points[1:]) if (phi(p) < 0.0) != (phi(q) < 0.0)]
        t_a = min(roots, key=lambda t: endpoint(t)[1] * endpoint(t)[2])
        e_a, f, g = endpoint(t_a)
        return 0.5 * f * g, {"alpha": abs(math.log(e_a)), "branch": "above" if b > 0 else "below", "w_a": d * t_a}

    w = mapper.w[1:-1]
    mid = int(np.searchsorted(w, 0.0))
    bg_w = b * mapper.levels / a0
    found = []
    for d in (b, -b):
        t, bg = (w[mid:], bg_w[mid:]) if d > 0 else (-w[mid::-1], bg_w[mid::-1])
        neg_bg = lambda s: -b * float(mapper.level(d * s)) / a0  # -b G / A0 at |w| = s
        new = np.flatnonzero(bg[1:] > np.maximum.accumulate(bg)[:-1]) + 1  # nodes that set a record
        top, extrema = bg[0], []
        for run in np.split(new, np.flatnonzero(np.diff(new) > 1) + 1):
            run = run[bg[run] > top]  # the refined record can pass a node's
            if not run.size:
                continue
            i, j = run[0], run[-1]
            start = 0.0 if i == 1 else find_root(lambda s: top + neg_bg(s), Bracket(t[i - 1], t[i]), tol=1e-15)
            ext, m = None, bg[j]  # a run to the table's end has no extremum on it
            if j < t.size - 1:
                opt = minimize_scalar(neg_bg, bounds=t[[j - 1, j + 1]], method="bounded", options={"xatol": 1e-10})
                ext, m = (opt.x, -opt.fun) if -opt.fun > m else (t[j], m)
            if m > b * zr:
                at = np.arange(0 if start == 0.0 else i, j + 1)
                at = at[(t[at] >= start + (_GUARD if start else 0.0)) & (ext is None or t[at] <= ext - _GUARD)]
                if not at.size:
                    raise NumericsError(f"record run of G from |log(v/V0)| = {start!r} too short for its guards")
                found.append(solve(d, start, t[at], b * np.log(b * bg[at]), ext, tuple(extrema)))
                break
            if ext is None:
                break
            top = m
            extrema.append(ext)
    if not (found := [r for r in found if r is not None]):
        raise TableRangeError(f"no excursion inside the coupled-map table |log(v/V0)| <= {mapper.w[-2]:g} meets K")
    return min(found, key=lambda r: r[0])


def _h_only_rate(model: LsvModel, k: float, rho_eff: float) -> RateResult:
    """inf of the variance-leg energy subject to int G(e^h) dt = K, G monotone
    or not, by its one route ``_coupled_asian``; plain-JSON diagnostics
    ``alpha``, ``branch``, ``rho_eff``, ``w_a``, ``kernel_calls``,
    ``kernel_passes``.  The map's table is widened with the strike: |w_a| stays
    below 2 |log(K / A0)| at the models tried, so its half-width is
    2 |x| + 1, clipped to [W_SPAN, MAX_SPAN].  The map comes from the memo
    ``_coupled_map``, so strikes up to |x| = 1.5 on one model and rho_eff
    share one.  At the money the rate is 0 with no kernel call."""
    x = log_moneyness(model, k)
    if x == 0.0:
        return RateResult(0.0, "corr_path_asian", z_star=k,
                          diagnostics={"rho_eff": rho_eff, "kernel_calls": 0, "kernel_passes": 0})

    a0 = forward_variance_limit(model)
    mapper = _coupled_map(model, rho_eff, 2.0 * abs(x) + 1.0)
    with count_kernel_calls() as counts:
        value, diagnostics = _coupled_asian(mapper, a0, k / a0)
    diagnostics.update(rho_eff=rho_eff, kernel_calls=counts[0], kernel_passes=counts[1])
    return RateResult(value, "corr_path_asian", z_star=k, h_cost=value, diagnostics=diagnostics)


def rate_perfect_corr(model: LsvModel, k: float, sign: int) -> RateResult:
    """Exact rate at rho = +1 or -1 via the coupled-path reduction."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if model.rho != float(sign):
        raise ValueError(f"model.rho must equal {sign} for the perfect-correlation rate")
    return replace(_h_only_rate(model, k, float(sign)), method="perfect_corr")


def rate_upper_corr_path(model: LsvModel, k: float) -> float:
    """h-only upper bound on the rate for |rho| < 1 (tight as |rho| -> 1)."""
    if abs(model.rho) >= 1.0:
        raise ValueError("requires |rho| < 1")
    return _h_only_rate(model, k, model.rho).value


# ---------------------------------------------------------------------------
# Direct transcription of the full two-dimensional problem
# ---------------------------------------------------------------------------

_NEWTON_MAX_ITER = 20
_KKT_TOL = 1e-12  # on max |grad L|, unless its rounding floor is higher
_CONSTRAINT_TOL = 1e-12  # on |C - K|, relative to K
_FD_STEP = 1e-5  # central-difference step for the Hessian columns
_BW = 3  # half-bandwidth of the Lagrangian Hessian in the interleaved (g, h) unknowns
_EPS = float(np.finfo(float).eps)


def _to_nodes(left, right):
    """Interior-node gradient from per-interval partials on the last axis:
    interval i adds ``left[i]`` to node i > 0 and ``right[i]`` to node i + 1."""
    out = right.copy()
    out[..., :-1] += left[..., 1:]
    return out


def _newton_kkt(lagrangian_grad, z, k: float):
    """Newton iteration on the KKT system of min f(z) subject to C(z) = K,
    from z and a zero multiplier.

    ``lagrangian_grad(z, lam)`` returns (grad f + lam grad C, C - K, grad C),
    row by row for z batched on a leading axis.  The Lagrangian Hessian H is
    banded with half-bandwidth ``_BW``, so 2 _BW + 1 colour groups of central
    differences of the gradient, one batched call, give all of it (Curtis,
    Powell & Reid 1974); ``grad_evals`` counts gradient rows.  Each step
    solves [H a; a^T 0] with a = grad C by one banded solve for two
    right-hand sides and a scalar Schur complement for the multiplier.

    Returns (z, lam, diagnostics); raises ConvergenceError carrying both
    residuals when the tolerances are not met within ``_NEWTON_MAX_ITER``.
    """
    bw, width, lam = _BW, 2 * _BW + 1, 0.0
    rows, colours = np.arange(z.size), np.arange(width)[:, None]
    steps = np.where(rows % width == colours, _FD_STEP, 0.0)
    # row i of colour c's difference is H[i, cols[c, i]], the one column of colour c in row i's band
    cols = rows + (colours - rows + bw) % width - bw
    ok = (cols >= 0) & (cols < z.size)
    at = (bw + rows - cols)[ok], cols[ok]
    kkt_tol, evals = _KKT_TOL, 0
    for it in range(_NEWTON_MAX_ITER + 1):
        grad, c, a = lagrangian_grad(z, lam)
        evals += 1
        diag = {
            "newton_iters": it,
            "grad_evals": evals,
            "kkt_residual": float(np.max(np.abs(grad))),
            "constraint_residual": float(c),
        }
        if diag["kkt_residual"] < kkt_tol and abs(c) < _CONSTRAINT_TOL * k:
            return z, lam, diag
        if it == _NEWTON_MAX_ITER or not math.isfinite(diag["kkt_residual"] + c):
            break
        grads = lagrangian_grad(np.concatenate((z + steps, z - steps)), lam)[0]
        band = np.zeros((width, z.size))
        band[at] = ((grads[:width] - grads[width:]) / (2.0 * _FD_STEP))[ok]
        evals += 2 * width
        # grad L is not computable more finely than curvature times the rounding of z
        kkt_tol = max(_KKT_TOL, _EPS * float(np.max(np.abs(band[bw]))) * float(np.max(np.abs(z))))
        y = solve_banded((bw, bw), band, np.column_stack((-grad, a)))
        dlam = (a @ y[:, 0] + c) / (a @ y[:, 1])
        z = z + y[:, 0] - dlam * y[:, 1]
        lam += dlam
    raise ConvergenceError(
        f"Newton-KKT stopped after {diag['newton_iters']} iterations: "
        f"max|grad L| {diag['kkt_residual']:.3e}, |C - K| {abs(c):.3e}",
        best=z,
        diagnostics=diag,
    )


def _lagrangian_grad(model: LsvModel, k: float, seed: PathPair):
    """Gradient closure of the discrete Lagrangian Lambda + lam (C - K).

    The unknowns are the interleaved interior log levels z = (g_1, h_1, ...,
    g_{n-1}, h_{n-1}) on the grid of ``seed``, which pins node 0.  The closure
    maps (z, lam) to (grad L, C - K, grad C), row by row for z batched on a
    leading axis.  At an interior node grad L is -dt times the discrete
    Euler-Lagrange residual: s_* are the momenta, (m_* + 2 lam c_*) / dt the
    right-hand sides on the intervals.
    """
    rho = model.rho
    one_m = 1.0 - rho * rho
    dt, start = seed.dt, np.array((seed.g[0], seed.h[0]))

    def compute(z, lam):
        nodes = np.concatenate((np.broadcast_to(start, z.shape[:-1] + (2,)), z), axis=-1)
        dg, dh, eta_m, deta_m, sig_m, dsig_m, v_m = _midpoint_pieces(model, nodes[..., 0::2], nodes[..., 1::2], dt)

        p = 1.0 / (eta_m * np.sqrt(v_m))
        q = 1.0 / sig_m
        a_w = (dg * p - rho * dh * q) / one_m
        b = dh * q
        c_terms = v_m * eta_m * eta_m * dt
        c = np.sum(c_terms, axis=-1) - k

        # per-interval partials: s_* of the action w.r.t. the slope (times dt),
        # m_* w.r.t. the midpoint value, c_* of C w.r.t. the midpoint value
        s_g = a_w * p
        s_h = (b - rho * a_w) * q
        m_g = -dt * a_w * dg * p * deta_m / eta_m
        m_h = dt * (a_w * (rho * dh * q * dsig_m / sig_m - 0.5 * dg * p) - b * b * dsig_m / sig_m)
        c_g = c_terms * deta_m / eta_m
        c_h = 0.5 * c_terms

        grad_f, grad_c = np.empty(z.shape), np.empty(z.shape)
        grad_f[..., 0::2] = _to_nodes(0.5 * m_g - s_g, 0.5 * m_g + s_g)
        grad_f[..., 1::2] = _to_nodes(0.5 * m_h - s_h, 0.5 * m_h + s_h)
        grad_c[..., 0::2] = _to_nodes(c_g, c_g)
        grad_c[..., 1::2] = _to_nodes(c_h, c_h)
        return grad_f + lam * grad_c, c, grad_c

    return compute


def rate_numeric(model: LsvModel, k: float, n: int = 201) -> RateResult:
    """Direct transcription of the full variational problem for |rho| < 1.

    Piecewise-linear paths on a uniform grid of n nodes and a midpoint-rule
    action; the KKT conditions are solved by the banded Newton iteration
    ``_newton_kkt`` from the second-order small-x expansion paths (the
    constant pair at the money, accepted at iteration 0), whose record the
    diagnostics carry with x.  Raises ConvergenceError, with both residuals,
    if Newton does not converge.
    """
    if abs(model.rho) >= 1.0:
        raise ValueError("rate_numeric requires |rho| < 1")

    x = log_moneyness(model, k)
    base = atm_mod.expansion_paths(model, x, n=n)
    z0 = np.column_stack((base.g[1:], base.h[1:])).ravel()
    z, lam, diag = _newton_kkt(_lagrangian_grad(model, k, base), z0, k)
    paths = PathPair(np.concatenate((base.g[:1], z[0::2])), np.concatenate((base.h[:1], z[1::2])))

    lv = lambda_functional(model, paths)
    return RateResult(
        lv.total,
        "numeric_transcription",
        g_endpoint=float(math.exp(paths.g[-1])),
        lagrange=float(lam),
        g_cost=lv.g_cost,
        h_cost=lv.h_cost,
        diagnostics={"x": x, **diag},
        paths=paths,
    )


def rate_by_method(model: LsvModel, k: float, method: str) -> RateResult | BoundsResult:
    """The rate at strike k by a named method, as the CLI's ``rate`` and
    ``asymptotic_smile`` compute it.

    "closed": ``rate_zero_rho``.  "numeric": ``rate_numeric``, or at
    rho = +-1, where the transcription does not apply, the exact reduction
    ``rate_perfect_corr``.  "bounds": ``rate_bounds_rho`` (a BoundsResult).
    "expansion": A x^2 + B x^3, with x in the diagnostics.  A rate off the
    money that is not positive raises ValueError: A x^2 + B x^3 changes sign
    at x = -A/B.
    """
    if method == "bounds":
        return rate_bounds_rho(model, k)
    if method not in RATE_METHODS:
        raise ValueError(f"rate method must be one of {'|'.join(RATE_METHODS)}, got {method!r}")
    x = log_moneyness(model, k)
    if method == "closed":
        res = rate_zero_rho(model, k)
    elif method == "numeric":
        res = rate_perfect_corr(model, k, int(model.rho)) if abs(model.rho) == 1.0 else rate_numeric(model, k)
    else:
        res = RateResult(atm_mod.atm_expansion(model).rate(x), "expansion", diagnostics={"x": x})
    if x != 0.0 and res.value <= 0.0:
        raise ValueError(f"{method} rate {res.value:.6g} not positive at x={x}")
    return res
