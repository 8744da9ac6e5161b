"""Correlated-case rate machinery.

The action being minimized weighs the asset and variance path energies with
a rho cross term.  It has no closed form off rho = 0, so this module offers:
analytic sandwich bounds, the exact perfect-correlation reduction to a
one-dimensional problem, an h-only upper bound for intermediate rho, and a
direct transcription of the full problem.  The transcription solves its KKT
conditions by Newton's method: the midpoint action couples only adjacent
nodes, so the Lagrangian Hessian is banded and is built from a few coloured
central differences of the analytic gradient.  The solution is
cross-checked against the continuous stationarity conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar

from . import atm as atm_mod
from .errors import ConvergenceError, NumericsError, TableRangeError
from .model import LsvModel, forward_variance_limit
from .numerics import MAX_PANELS, Bracket, count_kernel_calls, find_root, integrate_sqrt_singular
from .paths import PathPair
from .rate_zero import (
    _ATM_REL_TOL,
    _SEED_STRETCH,
    RateResult,
    _asian_h_path,
    _const_sigma_root,
    _eta_flat,
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
]


class LambdaValue(NamedTuple):
    total: float
    g_cost: float  # cross-weighted asset-leg integral
    h_cost: float  # pure variance-leg integral


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper_candidates: tuple[tuple[str, float], ...]
    best_upper: float

    def __post_init__(self):
        # discretized upper candidates can undershoot by quadrature error
        if self.lower > self.best_upper + 1e-6:
            raise ValueError("lower bound exceeds best upper bound")


# ---------------------------------------------------------------------------
# Discretized action
# ---------------------------------------------------------------------------


def _midpoint_pieces(model: LsvModel, g, h, dt: float):
    """Slopes of the log-level arrays g, h and the coefficient functions at
    their interval midpoints: (dg, dh, eta, eta', sigma, sigma', V), the
    derivatives in the log coordinates."""
    gm = 0.5 * (g[1:] + g[:-1]) - math.log(model.s0)
    hm = 0.5 * (h[1:] + h[:-1]) - math.log(model.v0)
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
    dt = paths.dt
    dg, dh, eta_m, _, sig_m, _, v_m = _midpoint_pieces(model, paths.g, paths.h, dt)
    a = dg / (eta_m * np.sqrt(v_m))
    b = dh / sig_m
    g_cost = float(np.sum((a - rho * b) ** 2) * dt / (2.0 * (1.0 - rho * rho)))
    h_cost = float(np.sum(b * b) * dt / 2.0)
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

    Lower: I0/(1+|rho|).  Uppers: I0/(1-|rho|); the action evaluated on the
    rho = 0 optimal paths; J(V0, K/eta(S0)^2)/(1-rho^2); and the h-only
    correlated-path bound.
    """
    rho = model.rho
    if abs(rho) >= 1.0:
        raise ValueError("bounds require |rho| < 1")
    model0 = model.with_rho(0.0)
    res0 = rate_zero_rho(model0, k)
    i0 = res0.value

    lower = i0 / (1.0 + abs(rho))
    uppers: list[tuple[str, float]] = [("scaled_zero_corr", i0 / (1.0 - abs(rho)))]

    z_pivot = k / float(model.eta.value_log(0.0)) ** 2
    asian = asian_rate_j(model.sigma, model.v0, z_pivot)
    if _eta_flat(model):
        t = np.linspace(0.0, 1.0, 401)
        h = _asian_h_path(model.sigma, model.v0, asian.alpha, asian.branch, t)
        paths0 = PathPair(t, np.full(t.size, math.log(model.s0)), h)
    else:
        paths0 = _paths_from_rate(model0, k, res0, 401)
    uppers.append(("zero_corr_paths", lambda_functional(model, paths0).total))
    uppers.append(("scaled_asian", asian.value / (1.0 - rho * rho)))

    try:
        uppers.append(("corr_path", rate_upper_corr_path(model, k)))
    except TableRangeError:
        pass  # the strike's excursion leaves the coupled-map table; the other uppers stand

    best = min(v for _, v in uppers)
    return BoundsResult(lower=lower, upper_candidates=tuple(uppers), best_upper=best)


# ---------------------------------------------------------------------------
# Banded Newton-KKT solve shared by both direct transcriptions
# ---------------------------------------------------------------------------

_NEWTON_MAX_ITER = 20
_KKT_TOL = 1e-12  # on max |grad L|, unless its rounding floor is higher
_CONSTRAINT_TOL = 1e-12  # on |C - K|, relative to K
_FD_STEP = 1e-5  # central-difference step for the Hessian columns
_EPS = float(np.finfo(float).eps)


def _to_nodes(left, right):
    """Interior-node gradient from per-interval partials: interval i adds
    ``left[i]`` to node i and ``right[i]`` to node i + 1; node 0 is pinned."""
    out = right.copy()
    out[:-1] += left[1:]
    return out


def _newton_kkt(lagrangian_grad, z, lam: float, bw: int, k: float):
    """Newton iteration on the KKT system of min f(z) subject to C(z) = K.

    ``lagrangian_grad(z, lam)`` returns (grad f + lam grad C, C - K, grad C).
    The Lagrangian Hessian H is banded with half-bandwidth ``bw``, so 2 bw + 1
    colour groups of central differences of the gradient give all of it
    (Curtis, Powell & Reid 1974).  Each step solves [H a; a^T 0] with
    a = grad C by one banded solve for two right-hand sides and a scalar
    Schur complement for the multiplier.

    Returns (z, lam, diagnostics); raises ConvergenceError carrying both
    residuals when the tolerances are not met within ``_NEWTON_MAX_ITER``.
    """
    width = 2 * bw + 1
    rows = np.arange(z.size)
    # Hessian column j = i + off[c][i] is the one of colour c in row i's band
    offsets = [(c - rows + bw) % width - bw for c in range(width)]
    kkt_tol = _KKT_TOL
    evals = 0
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
        band = np.zeros((width, z.size))
        for colour, off in enumerate(offsets):
            step = np.where(rows % width == colour, _FD_STEP, 0.0)
            col = (lagrangian_grad(z + step, lam)[0] - lagrangian_grad(z - step, lam)[0]) / (2.0 * _FD_STEP)
            ok = (rows + off >= 0) & (rows + off < z.size)
            band[bw - off[ok], (rows + off)[ok]] = col[ok]
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


# ---------------------------------------------------------------------------
# Path-coupling map and perfect correlation
# ---------------------------------------------------------------------------


class _CoupledMap:
    """Precomputed primitives for the coupled-path construction.

    Tabulates Phi_V(w) = sqrt(V0) int_0^w e^{w'/2}/sigma(w') dw' over the
    log-variance table |w| <= span, clipped to [W_SPAN, MAX_SPAN], and the
    inverse of Phi_S(u) = int_0^u du'/eta(u') over the log-asset range that
    rho_eff Phi_V reaches, on uniform grids of node spacing STEP through 0,
    as cubic Hermite interpolants of the values and exact slopes at the
    nodes.  They give vectorized F(v), the effective payoff map
    G(v) = v eta^2(F(v)), and G' from the tables' own slope.
    """

    W_SPAN, MAX_SPAN = 4.0, 10.0
    STEP = 0.00625
    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

    def __init__(self, model: LsvModel, rho_eff: float, span: float = W_SPAN):
        self.model, self.rho_eff, self.v0 = model, rho_eff, model.v0

        self.w = self._grid(min(max(span, self.W_SPAN), self.MAX_SPAN))
        dphi_v = lambda ww: np.sqrt(self.v0) * np.exp(0.5 * ww) / model.sigma.value_log(ww)
        phi_v = self._cumulative(dphi_v, self.w)
        self._phi_v = CubicHermiteSpline(self.w, phi_v, dphi_v(self.w))

        # asset-side span must cover the image of rho * Phi_V: Phi_S grows at
        # least like u / eta_max, so u_span = |Phi_V|_max eta_max suffices
        reach = abs(rho_eff) * float(np.max(np.abs(phi_v)))
        u = self._grid(max(2.0, 1.05 * reach * model.eta.clamp_hi + 1.0))
        phi_s, e_u = self._cumulative(lambda uu: 1.0 / model.eta.value_log(uu), u), model.eta.value_log(u)
        self._phi_s_inv = CubicHermiteSpline(phi_s, u, e_u)
        self._phi_s_range = (phi_s[0], phi_s[-1])

        # G' jumps where F crosses a clamp point of eta: a u-table segment whose end nodes
        # differ in clamp state brackets one in Phi_S, and so in w (``kinks``)
        at = (e_u <= model.eta.clamp_lo) | (e_u >= model.eta.clamp_hi)
        j = np.flatnonzero(at[1:] != at[:-1])
        lvl, w = (rho_eff * phi_v, self.w) if rho_eff > 0 else (rho_eff * phi_v[::-1], self.w[::-1])
        ends = np.sort(np.interp(np.stack((phi_s[j], phi_s[j + 1])), lvl, w), axis=0).T
        reached = (phi_s[j + 1] > lvl[0]) & (phi_s[j] < lvl[-1])
        self._kink_brackets = np.clip(ends[reached] + [-self.STEP, self.STEP], w.min(), w.max())
        self._kinks = {}

    @classmethod
    def _grid(cls, span: float):
        """Nodes STEP apart from -span to span (rounded out), 0 in the middle."""
        n = math.ceil(span / cls.STEP - 1e-9)
        return cls.STEP * np.arange(-n, n + 1)

    @classmethod
    def _cumulative(cls, fn, grid):
        """Cumulative integral along a ``_grid``, summed outward from its
        middle node 0 (where it is exactly 0); Gauss-Legendre per segment."""
        half = 0.5 * cls.STEP
        nodes = (grid[:-1] + half)[:, None] + half * cls._GL_NODES
        seg = half * (fn(nodes.ravel()).reshape(nodes.shape) @ cls._GL_WEIGHTS)
        mid = grid.size // 2
        out = np.zeros(grid.size)
        out[mid + 1 :] = np.cumsum(seg[mid:])
        out[:mid] = -np.cumsum(seg[mid - 1 :: -1])[::-1]
        return out

    def _coords(self, x):
        """(w, rho_eff Phi_V(w)) at w = log(x / V0); Phi_S^{-1} of the latter is log(F(x) / S0)."""
        w = np.log(np.asarray(x, dtype=float) / self.v0)
        if np.any(np.abs(w) > self.w[-1]):
            raise TableRangeError(f"variance level outside the coupled-map table |log(v/V0)| <= {self.w[-1]:g}")
        rhs = self.rho_eff * self._phi_v(w)
        if np.any(rhs < self._phi_s_range[0]) or np.any(rhs > self._phi_s_range[1]):
            raise NumericsError("coupled-map primitive out of range (clamp saturation)")
        return w, rhs

    def f_of_x(self, x):
        """Asset level(s) F(x) at variance level(s) x."""
        return self.model.s0 * np.exp(self._phi_s_inv(self._coords(x)[1]))

    def payoff_factor(self, x):
        """G(x) = x * eta^2(F(x))."""
        e = self.model.eta.value_log(self._phi_s_inv(self._coords(x)[1]))
        return x * e * e

    def payoff_factor_deriv(self, x):
        """G'(x) = eta^2(F) + 2 eta(F) Xi(F) du/dw, Xi the log-derivative of eta at
        F, with the tables' own slope du/dw = rho_eff (Phi_S^{-1})' Phi_V' (not
        eta(F) rho_eff sqrt(x) / sigma(x)): the derivative of ``payoff_factor``."""
        w, rhs = self._coords(x)
        u, eta = self._phi_s_inv(rhs), self.model.eta
        e = eta.value_log(u)
        return e * (e + 2.0 * eta.dvalue_log(u) * self.rho_eff * self._phi_s_inv(rhs, 1) * self._phi_v(w, 1))

    def monotone_window(self):
        """(w_lo, w_hi): the widest run of inner table nodes around 0 on which
        G' > 0, or None if G' <= 0 at V0."""
        w = self.w[1:-1]
        down = np.flatnonzero(self.payoff_factor_deriv(self.v0 * np.exp(w)) <= 0.0)
        mid = w.size // 2
        if mid in down:
            return None
        below, above = down[down < mid], down[down > mid]
        return (w[below[-1] + 1] if below.size else w[0], w[above[0] - 1] if above.size else w[-1])

    def kinks(self, s: float, t_hi: float):
        """The distances t = s w in (0, t_hi), ascending, at which the tabulated
        F(V0 e^w) crosses a clamp point of eta, so G' jumps; each is bisected
        to rounding on the tables the first time it is asked for."""
        eta = self.model.eta
        for i, (lo, hi) in enumerate(self._kink_brackets):
            if i not in self._kinks and min(s * lo, s * hi) < t_hi and max(s * lo, s * hi) > 0.0:
                for _ in range(7):  # 256^7 subdivisions of the bracket reach rounding
                    grid = np.linspace(lo, hi, 257)
                    e = eta.value_log(self._phi_s_inv(self.rho_eff * self._phi_v(grid)))
                    at = (e <= eta.clamp_lo) | (e >= eta.clamp_hi)
                    j = max(int(np.argmax(at != at[0])), 1)
                    lo, hi = grid[j - 1], grid[j]
                self._kinks[i] = 0.5 * (lo + hi)
        return sorted(s * w for w in self._kinks.values() if 0.0 < s * w < t_hi)


# Integrand nodes this near (in w) to w_a take the payoff gap G(v_a) - G(v) from
# a Gauss rule on v G'(v), split where G' jumps; the plain difference cancels.
_NEAR = 1e-3
_NEAR_X, _NEAR_W = np.polynomial.legendre.leggauss(4)


def _coupled_endpoint(mapper: _CoupledMap, a0: float, w_a: float):
    """(G(v_a) / A0, F, G) at the terminal log variance w_a: the Asian
    endpoint integrals in w, F = int dw / (sigma(w) sqrt(D)) and
    G = int sqrt(D) / sigma(w) dw over [0, w_a], D = |G(v_a) - G(v)| / A0."""
    s, t_a, v0 = math.copysign(1.0, w_a), abs(w_a), mapper.v0
    level = lambda w: mapper.payoff_factor(v0 * np.exp(w)) / a0
    e_a = float(level(w_a))
    kinks = mapper.kinks(s, t_a)

    def fg(t, d):  # t = |w| on [0, t_a], d = t_a - t
        gap = s * (e_a - level(s * t))
        near = d < _NEAR
        ends = [d[near], *(np.clip(t_a - k, 0.0, d[near]) for k in kinks), 0.0]
        gap[near] = 0.0
        for p, q in zip(ends[:-1], ends[1:]):
            vn = v0 * np.exp(s * (t_a - (q + 0.5 * (p - q))[:, None] - 0.5 * (p - q)[:, None] * _NEAR_X))
            gap[near] += 0.5 * (p - q) * ((vn * mapper.payoff_factor_deriv(vn)) @ _NEAR_W) / a0
        sig, r = mapper.model.sigma.value_log(s * t), np.sqrt(gap)
        return np.array([1.0 / (sig * r), r / sig])

    # the kernel isolates a kink on the path by bisection: within 1e-9 of t_a, that takes 200-800 panels
    f, g = integrate_sqrt_singular(fg, 0.0, t_a, "b", max_panels=4 * MAX_PANELS if kinks else MAX_PANELS)
    return e_a, float(f), float(g)


def _coupled_asian(mapper: _CoupledMap, a0: float, zr: float, window):
    """The h-only problem as an Asian problem in the payoff level A = G(v),
    solved in the log variance w = log(v / V0): (rate, diagnostics).

    With sigma_hat the Asian coefficient in y = log(A / A0),
    dy / sigma_hat(y) = dw / sigma(w), so the endpoint integrals need G, not
    its inverse (``_coupled_endpoint``).  The root runs in |w_a|, from a seed
    whose log(G / A0) is the Asian seed probe, read off the table; None if it
    leaves ``window``, where G is increasing.  Just past a kink of G the root
    condition, smooth in the square root of the distance to it, can dip back
    below zero (a fold with three roots); there the least rate is taken.
    """
    s = 1.0 if zr > 1.0 else -1.0  # G increases, so w_a has the sign of log zr
    seen = {0.0: (1.0, 1.0, 0.0)}  # at w_a = 0, D vanishes and G/F with it

    def phi(t_a):  # the Asian root condition at |w_a| = t_a
        if t_a not in seen:
            seen[t_a] = _coupled_endpoint(mapper, a0, s * t_a)
        e_a, f, g = seen[t_a]
        return s * (e_a - zr) - g / f

    edge = window[1] if s > 0 else -window[0]
    nodes = mapper.w[(mapper.w >= 0.0) & (mapper.w <= edge)]
    lo = abs(math.log(zr))
    probe = lo + _SEED_STRETCH * (_const_sigma_root(zr)[1] - lo)
    hi = float(np.interp(probe, s * np.log(mapper.payoff_factor(mapper.v0 * np.exp(s * nodes)) / a0), nodes))
    while phi(hi) < 0.0:
        if hi == edge:
            if edge == mapper.w[-2]:
                raise TableRangeError(f"excursion leaves the coupled-map table |log(v/V0)| <= {edge:g}")
            return None  # it leaves the monotone window
        hi = min(2.0 * hi, edge)
    kinks = mapper.kinks(s, hi)
    points = [0.0]
    for a, b in zip(kinks, kinks[1:] + [hi]):
        points.append(a)
        if phi(a) > 0.0:  # a dip below zero just past a, if any, sits at phi's least value
            r = minimize_scalar(lambda r: phi(a + r * r), bounds=(0.0, math.sqrt(b - a)), method="bounded").x
            points.append(min(a + r * r, b))
    points.append(hi)
    roots = [find_root(phi, Bracket(p, q), tol=1e-13)
             for p, q in zip(points[:-1], points[1:]) if (phi(p) < 0.0) != (phi(q) < 0.0)]
    t_a = min(roots, key=lambda t: seen[t][1] * seen[t][2])
    e_a, f, g = seen[t_a]
    return 0.5 * f * g, {"alpha": abs(math.log(e_a)), "branch": "above" if s > 0 else "below", "w_a": s * t_a}


def _h_only_rate(model: LsvModel, k: float, rho_eff: float) -> RateResult:
    """inf of the variance-leg energy subject to int G(e^h) dt = K: an Asian
    problem in the payoff level (``_coupled_asian``, with plain-JSON diagnostics
    ``alpha``, ``branch``, ``rho_eff``, ``w_a`` and ``kernel_calls``), or a
    direct transcription when G is not invertible on the needed range.  The
    map's table is widened with the strike: |w_a| stays below 2 |log(K / A0)|
    at the models tried, up to the table's largest half-width MAX_SPAN."""
    if not 0 < k < math.inf:
        raise ValueError("strike must be positive and finite")
    a0 = forward_variance_limit(model)
    if abs(k - a0) <= _ATM_REL_TOL * a0:
        return RateResult(0.0, "corr_path_asian", z_star=k)

    mapper = _CoupledMap(model, rho_eff, 2.0 * abs(math.log(k / a0)) + 1.0)
    window = mapper.monotone_window()
    with count_kernel_calls() as kernel_calls:
        found = None if window is None else _coupled_asian(mapper, a0, k / a0, window)
    if found is None:
        return _h_only_direct(model, k, mapper)
    value, diagnostics = found
    diagnostics.update(rho_eff=rho_eff, kernel_calls=kernel_calls[0])
    return RateResult(value, "corr_path_asian", z_star=k, h_cost=value, diagnostics=diagnostics)


def _h_only_direct(model: LsvModel, k: float, mapper: _CoupledMap) -> RateResult:
    """Direct transcription of the h-only problem (non-invertible payoff map).

    The payoff map may be locally decreasing, so the sign of the excursion
    that meets the constraint is not known a priori; Newton-KKT solves are
    started on both sides and the lower-cost converged solution wins.  A
    path that leaves the coupled-map table raises NumericsError.
    """
    t = np.linspace(0.0, 1.0, 401)
    dt = t[1] - t[0]
    x_eff = math.log(k / forward_variance_limit(model))

    def pieces(h_int):
        h = np.concatenate(([0.0], h_int))
        hm = 0.5 * (h[1:] + h[:-1])
        v = model.v0 * np.exp(hm)
        sig = model.sigma.value_log(hm)
        dsig = model.sigma.dvalue_log(hm)
        return h, np.diff(h) / dt, v, sig, dsig

    def lagrangian_grad(h_int, lam):
        _, dh, v, sig, dsig = pieces(h_int)
        c = float(np.sum(mapper.payoff_factor(v)) * dt) - k
        b = dh / sig
        s_h = b / sig
        m_h = -dt * b * b * dsig / sig
        c_h = 0.5 * dt * mapper.payoff_factor_deriv(v) * v
        grad_c = _to_nodes(c_h, c_h)
        return _to_nodes(0.5 * m_h - s_h, 0.5 * m_h + s_h) + lam * grad_c, c, grad_c

    solutions, failures = [], []
    for scale in (x_eff, -x_eff):
        try:
            h_int, lam, diag = _newton_kkt(lagrangian_grad, (scale * 1.5 * (2.0 * t - t * t))[1:], 0.0, 1, k)
        except NumericsError as exc:  # no convergence, or the map table was left
            failures.append(exc)
            continue
        h, dh, v, sig, dsig = pieces(h_int)
        force = -dh * dh * dsig / sig**3 + lam * mapper.payoff_factor_deriv(v) * v
        diag["el_residual"] = _el_max(dt, (dh / sig**2, force))
        solutions.append((0.5 * float(np.sum((dh / sig) ** 2)) * dt, h, lam, diag))
    if not solutions:
        raise failures[0]
    value, h, lam, diag = min(solutions, key=lambda s: s[0])
    paths = PathPair(t, np.log(mapper.f_of_x(model.v0 * np.exp(h))), math.log(model.v0) + h)
    return RateResult(
        value,
        "corr_path_direct",
        z_star=k,
        lagrange=lam,
        h_cost=value,
        diagnostics={"x": x_eff, **diag, "fallback": True},
        paths=paths,
    )


def rate_perfect_corr(model: LsvModel, k: float, sign: int) -> RateResult:
    """Exact rate at rho = +1 or -1 via the coupled-path reduction."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if model.rho != float(sign):
        raise ValueError(f"model.rho must equal {sign} for the perfect-correlation rate")
    res = _h_only_rate(model, k, float(sign))
    return replace(res, method="perfect_corr" if res.method == "corr_path_asian" else "perfect_corr_direct")


def rate_upper_corr_path(model: LsvModel, k: float) -> float:
    """h-only upper bound on the rate for |rho| < 1 (tight as |rho| -> 1)."""
    if abs(model.rho) >= 1.0:
        raise ValueError("requires |rho| < 1")
    return _h_only_rate(model, k, model.rho).value


# ---------------------------------------------------------------------------
# Direct transcription of the full two-dimensional problem
# ---------------------------------------------------------------------------


def _lagrangian_grad(model: LsvModel, k: float, n: int):
    """Gradient closure of the discrete Lagrangian Lambda + lam (C - K).

    The unknowns are the interleaved interior log levels
    z = (g_1, h_1, ..., g_{n-1}, h_{n-1}); node 0 is pinned at (log S0, log V0).
    The closure maps (z, lam) to (grad L, C - K, grad C).
    """
    rho = model.rho
    one_m = 1.0 - rho * rho
    dt = 1.0 / (n - 1)
    log_s0 = math.log(model.s0)
    log_v0 = math.log(model.v0)

    def compute(z, lam):
        g = np.concatenate(([log_s0], z[0::2]))
        h = np.concatenate(([log_v0], z[1::2]))
        dg, dh, eta_m, deta_m, sig_m, dsig_m, v_m = _midpoint_pieces(model, g, h, dt)

        p = 1.0 / (eta_m * np.sqrt(v_m))
        q = 1.0 / sig_m
        a_w = (dg * p - rho * dh * q) / one_m
        b = dh * q
        c_terms = v_m * eta_m * eta_m * dt
        c = float(np.sum(c_terms)) - k

        # per-interval partials: s_* of the action w.r.t. the slope (times dt),
        # m_* w.r.t. the midpoint value, c_* of C w.r.t. the midpoint value
        s_g = a_w * p
        s_h = (b - rho * a_w) * q
        m_g = -dt * a_w * dg * p * deta_m / eta_m
        m_h = dt * (a_w * (rho * dh * q * dsig_m / sig_m - 0.5 * dg * p) - b * b * dsig_m / sig_m)
        c_g = c_terms * deta_m / eta_m
        c_h = 0.5 * c_terms

        grad_f = np.empty(2 * (n - 1))
        grad_c = np.empty(2 * (n - 1))
        grad_f[0::2] = _to_nodes(0.5 * m_g - s_g, 0.5 * m_g + s_g)
        grad_f[1::2] = _to_nodes(0.5 * m_h - s_h, 0.5 * m_h + s_h)
        grad_c[0::2] = _to_nodes(c_g, c_g)
        grad_c[1::2] = _to_nodes(c_h, c_h)
        return grad_f + lam * grad_c, c, grad_c

    return compute


def _el_max(dt: float, *pairs) -> float:
    """Scaled max-norm of d/dt momentum - force over (momentum, force) pairs
    given at interval midpoints."""
    resid = max(float(np.max(np.abs(np.diff(p) / dt - 0.5 * (f[1:] + f[:-1])))) for p, f in pairs)
    return resid / max(1.0, *(float(np.max(np.abs(f))) for _, f in pairs))


def _el_residual(model: LsvModel, paths: PathPair, lam: float) -> float:
    """Max-norm residual of the continuous stationarity conditions on the
    discrete paths (central differences of the momenta); diagnostic only."""
    rho = model.rho
    one_m = 1.0 - rho * rho
    dt = paths.dt
    dg, dh, eta_m, deta_m, sig_m, dsig_m, v_m = _midpoint_pieces(model, paths.g, paths.h, dt)
    sqrt_v = np.sqrt(v_m)

    p_g = dg / (one_m * eta_m**2 * v_m) - rho * dh / (one_m * eta_m * sqrt_v * sig_m)
    p_h = dh / (one_m * sig_m**2) - rho * dg / (one_m * eta_m * sqrt_v * sig_m)

    rhs_g = (
        -(dg**2) * deta_m / (one_m * eta_m**3 * v_m)
        + rho * dg * dh * deta_m / (one_m * eta_m**2 * sqrt_v * sig_m)
        + 2.0 * lam * v_m * eta_m * deta_m
    )
    rhs_h = (
        -0.5 * dg**2 / (one_m * eta_m**2 * v_m)
        - dh**2 * dsig_m / (one_m * sig_m**3)
        + rho * dg * dh * dsig_m / (one_m * eta_m * sqrt_v * sig_m**2)
        + rho * 0.5 * dg * dh / (one_m * eta_m * sqrt_v * sig_m)
        + lam * v_m * eta_m**2
    )
    return _el_max(dt, (p_g, rhs_g), (p_h, rhs_h))


def rate_numeric(model: LsvModel, k: float, n: int = 201) -> RateResult:
    """Direct transcription of the full variational problem for |rho| < 1.

    Piecewise-linear paths on a uniform grid of n nodes and a midpoint-rule
    action; the KKT conditions of the constrained minimization are solved by
    the banded Newton iteration ``_newton_kkt`` (half-bandwidth 3 in the
    interleaved (g, h) unknowns), started from the second-order small-x
    expansion paths.  Raises ConvergenceError, with both residuals, if Newton
    does not converge.
    """
    if abs(model.rho) >= 1.0:
        raise ValueError("rate_numeric requires |rho| < 1")
    if not 0 < k < math.inf:
        raise ValueError("strike must be positive and finite")

    x = math.log(k / forward_variance_limit(model))
    t = np.linspace(0.0, 1.0, n)
    log_s0 = math.log(model.s0)
    log_v0 = math.log(model.v0)
    if abs(x) <= 1e-14:
        paths = PathPair(t, np.full(n, log_s0), np.full(n, log_v0))
        return RateResult(0.0, "numeric_transcription", z_star=model.v0, lagrange=0.0, paths=paths)

    base = atm_mod.expansion_paths(model, x, n=n, order=2)
    z0 = np.column_stack((base.g[1:], base.h[1:])).ravel()
    z, lam, diag = _newton_kkt(_lagrangian_grad(model, k, n), z0, 0.0, 3, k)
    paths = PathPair(t, np.concatenate(([log_s0], z[0::2])), np.concatenate(([log_v0], z[1::2])))

    lv = lambda_functional(model, paths)
    return RateResult(
        lv.total,
        "numeric_transcription",
        g_endpoint=float(math.exp(paths.g[-1])),
        lagrange=lam,
        g_cost=lv.g_cost,
        h_cost=lv.h_cost,
        diagnostics={"x": x, **diag, "el_residual": _el_residual(model, paths, lam)},
        paths=paths,
    )


def rate_by_method(model: LsvModel, k: float, method: str) -> RateResult | BoundsResult:
    """The rate at strike k by a named method, as the CLI's ``rate`` and
    ``asymptotic_smile`` compute it.

    "closed": ``rate_zero_rho``.  "numeric": ``rate_numeric``, or at
    rho = +-1, where the transcription does not apply, the exact reduction
    ``rate_perfect_corr``.  "bounds": ``rate_bounds_rho`` (a BoundsResult).
    "expansion": A x^2 + B x^3, with x in the diagnostics.
    """
    if method == "closed":
        return rate_zero_rho(model, k)
    if method == "numeric":
        if abs(model.rho) == 1.0:
            return rate_perfect_corr(model, k, int(model.rho))
        return rate_numeric(model, k)
    if method == "bounds":
        return rate_bounds_rho(model, k)
    if method == "expansion":
        x = math.log(k / forward_variance_limit(model))
        return RateResult(atm_mod.rate_expansion(model, x), "expansion", diagnostics={"x": x})
    raise ValueError("rate method must be one of closed|bounds|numeric|expansion")
