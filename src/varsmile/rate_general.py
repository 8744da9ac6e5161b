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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from . import atm as atm_mod
from .errors import ConvergenceError, NumericsError
from .model import LsvModel, forward_variance_limit
from .numerics import QuadTolerance
from .paths import PathPair
from .rate_zero import (
    RateResult,
    _asian_h_path,
    _eta_flat,
    _paths_from_rate,
    asian_rate_general,
    asian_rate_j,
    rate_zero_rho,
)

__all__ = [
    "BoundsResult",
    "LambdaValue",
    "NumericOptions",
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


def rate_bounds_rho(model: LsvModel, k: float, tol: QuadTolerance | None = None) -> BoundsResult:
    """Sandwich bounds on the rate for |rho| < 1.

    Lower: I0/(1+|rho|).  Uppers: I0/(1-|rho|); the action evaluated on the
    rho = 0 optimal paths; J(V0, K/eta(S0)^2)/(1-rho^2); and the h-only
    correlated-path bound.
    """
    rho = model.rho
    if abs(rho) >= 1.0:
        raise ValueError("bounds require |rho| < 1")
    tol = tol or QuadTolerance()
    model0 = model.with_rho(0.0)
    res0 = rate_zero_rho(model0, k, tol=tol)
    i0 = res0.value

    lower = i0 / (1.0 + abs(rho))
    uppers: list[tuple[str, float]] = [("scaled_zero_corr", i0 / (1.0 - abs(rho)))]

    z_pivot = k / float(model.eta.value_log(0.0)) ** 2
    asian = asian_rate_j(model.sigma, model.v0, z_pivot, tol=tol)
    if _eta_flat(model):
        t = np.linspace(0.0, 1.0, 401)
        h = _asian_h_path(model.sigma, model.v0, asian.alpha, asian.branch, t, tol)
        paths0 = PathPair(t, np.full(t.size, math.log(model.s0)), h)
    else:
        paths0 = _paths_from_rate(model0, k, res0, 401, tol)
    uppers.append(("zero_corr_paths", lambda_functional(model, paths0).total))
    uppers.append(("scaled_asian", asian.value / (1.0 - rho * rho)))

    uppers.append(("corr_path", rate_upper_corr_path(model, k, tol=tol)))

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

    Caches spline representations of Phi_S(u) = int_0^u du'/eta(u') and
    Phi_V(w) = sqrt(V0) int_0^w e^{w'/2}/sigma(w') dw' on wide log grids,
    giving fast vectorized F(v), the effective payoff map G(x) = x eta^2(F(x)),
    and its analytic derivative.
    """

    W_SPAN = 10.0
    _INVERSE_MAX_ITER = 100
    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

    def __init__(self, model: LsvModel, rho_eff: float):
        self.model = model
        self.rho_eff = rho_eff
        self.s0 = model.s0
        self.v0 = model.v0

        w = np.linspace(-self.W_SPAN, self.W_SPAN, 1601)
        integrand_v = lambda ww: np.sqrt(self.v0) * np.exp(0.5 * ww) / model.sigma.value_log(ww)
        phi_v = self._cumulative(integrand_v, w)
        self._phi_v = CubicSpline(w, phi_v)

        # asset-side span must cover the image of rho * Phi_V: Phi_S grows at
        # least like u / eta_max, so u_span = |Phi_V|_max eta_max suffices
        reach = abs(rho_eff) * float(np.max(np.abs(phi_v)))
        u_span = max(2.0, 1.05 * reach * model.eta.clamp_hi + 1.0)
        n_seg = int(min(12800, max(1600, 80 * u_span)))
        u = np.linspace(-u_span, u_span, n_seg + 1)
        integrand_s = lambda uu: 1.0 / model.eta.value_log(uu)
        phi_s = self._cumulative(integrand_s, u)
        self._phi_s = CubicSpline(u, phi_s)
        self._phi_s_inv = CubicSpline(phi_s, u)
        self._phi_s_range = (phi_s[0], phi_s[-1])

    @classmethod
    def _cumulative(cls, fn, grid):
        """Cumulative integral along a uniform grid anchored at 0,
        Gauss-Legendre per segment."""
        lo = grid[:-1]
        hi = grid[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * cls._GL_NODES[None, :]
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        seg = half * (vals @ cls._GL_WEIGHTS)
        out = np.zeros(grid.size)
        out[1:] = np.cumsum(seg)
        # anchor so the primitive vanishes exactly at 0 (0 need not be a node)
        out -= CubicSpline(grid, out)(0.0)
        return out

    def f_of_x(self, x):
        """Asset level(s) F(x) = S0 exp(Phi_S^{-1}(rho_eff Phi_V(log(x / V0)))) at variance level(s) x."""
        w = np.log(np.asarray(x, dtype=float) / self.v0)
        if np.any(np.abs(w) > self.W_SPAN):
            raise NumericsError("variance level outside the coupled-map table")
        rhs = self.rho_eff * self._phi_v(w)
        if np.any(rhs < self._phi_s_range[0]) or np.any(rhs > self._phi_s_range[1]):
            raise NumericsError("coupled-map primitive out of range (clamp saturation)")
        return self.s0 * np.exp(self._phi_s_inv(rhs))

    def payoff_factor(self, x):
        """G(x) = x * eta^2(F(x))."""
        x = np.asarray(x, dtype=float)
        f = self.f_of_x(x)
        e = self.model.eta.value_log(np.log(f / self.s0))
        return x * e * e

    def payoff_factor_deriv(self, x):
        """G'(x) = eta^2(F) * (1 + 2 rho_eff sqrt(x) * Xi(F) / sigma(x)),
        with Xi the log-derivative of eta at F."""
        x = np.asarray(x, dtype=float)
        f = self.f_of_x(x)
        u = np.log(f / self.s0)
        e = self.model.eta.value_log(u)
        xi = self.model.eta.dvalue_log(u)
        sig = self.model.sigma.value_log(np.log(x / self.v0))
        return e * e * (1.0 + 2.0 * self.rho_eff * np.sqrt(x) * xi / sig)

    def monotone_window(self, n: int = 2001):
        """Largest log-variance window around 0 where G is strictly increasing."""
        w = np.linspace(-self.W_SPAN + 0.05, self.W_SPAN - 0.05, n)
        gp = self.payoff_factor_deriv(self.v0 * np.exp(w))
        i0 = n // 2
        if gp[i0] <= 0.0:
            return None
        lo = i0
        while lo > 0 and gp[lo - 1] > 0.0:
            lo -= 1
        hi = i0
        while hi < n - 1 and gp[hi + 1] > 0.0:
            hi += 1
        return (w[lo], w[hi], lo > 0 or hi < n - 1)

    def payoff_inverse(self, a, w_window):
        """x with G(x) = a, elementwise, inside the monotone window.

        Newton steps in w = log(x / V0) from w = log(a / G(V0)), kept inside a
        shrinking bracket by bisection, until every step is below 1e-13.
        """
        w_lo, w_hi, _ = w_window
        a = np.asarray(a, dtype=float)
        g_lo, g_mid, g_hi = self.payoff_factor(self.v0 * np.exp([w_lo, 0.0, w_hi]))
        if np.any(a < g_lo) or np.any(a > g_hi):
            raise NumericsError("payoff level outside the monotone window")
        lo = np.full(a.shape, w_lo)
        hi = np.full(a.shape, w_hi)
        w = np.clip(np.log(a / g_mid), w_lo, w_hi)
        for _ in range(self._INVERSE_MAX_ITER):
            x = self.v0 * np.exp(w)
            r = self.payoff_factor(x) - a
            lo = np.where(r < 0.0, w, lo)
            hi = np.where(r > 0.0, w, hi)
            w_new = w - r / (self.payoff_factor_deriv(x) * x)
            w_new = np.where((w_new > lo) & (w_new < hi) | (r == 0.0), w_new, 0.5 * (lo + hi))
            done = np.all(np.abs(w_new - w) <= 1e-13)
            w = w_new
            if done:
                return self.v0 * np.exp(w)
        raise ConvergenceError("payoff inverse did not converge", best=self.v0 * np.exp(w))


def _h_only_rate(model: LsvModel, k: float, rho_eff: float, tol: QuadTolerance) -> RateResult:
    """inf of the variance-leg energy subject to int G(e^h) dt = K.

    Reduced to a plain Asian problem with effective volatility
    sigma_hat(A) = x G'(x) sigma(x) / A at x = G^{-1}(A); falls back to a
    one-dimensional direct transcription when G is not invertible on the
    needed range.
    """
    a0 = forward_variance_limit(model)
    if abs(k - a0) <= 1e-14 * a0:
        return RateResult(0.0, "corr_path_asian", z_star=k, g_cost=0.0, h_cost=0.0)

    mapper = _CoupledMap(model, rho_eff)
    window = mapper.monotone_window()
    if window is not None:
        try:
            def sig_hat_log(y):
                a = a0 * np.exp(y)
                x = mapper.payoff_inverse(a, window)
                sig = model.sigma.value_log(np.log(x / model.v0))
                return x * mapper.payoff_factor_deriv(x) * sig / a

            sol = asian_rate_general(sig_hat_log, k / a0, tol=tol)
            return RateResult(
                sol.value,
                "corr_path_asian",
                z_star=k,
                g_cost=0.0,
                h_cost=sol.value,
                diagnostics={"alpha": sol.alpha, "branch": sol.branch, "rho_eff": rho_eff},
            )
        except NumericsError:
            pass  # excursion left the monotone window: transcribe directly

    return _h_only_direct(model, k, mapper)


def _h_only_direct(model: LsvModel, k: float, mapper: _CoupledMap, n: int = 401) -> RateResult:
    """Direct transcription of the h-only problem (non-invertible payoff map).

    The payoff map may be locally decreasing, so the sign of the excursion
    that meets the constraint is not known a priori; Newton-KKT solves are
    started on both sides and the lower-cost converged solution wins.
    """
    t = np.linspace(0.0, 1.0, n)
    dt = t[1] - t[0]
    log_v0 = math.log(model.v0)
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
    paths = PathPair(
        t,
        np.log(mapper.f_of_x(model.v0 * np.exp(np.clip(h, -mapper.W_SPAN, mapper.W_SPAN)))),
        log_v0 + h,
    )
    return RateResult(
        value,
        "corr_path_direct",
        z_star=k,
        lagrange=lam,
        g_cost=0.0,
        h_cost=value,
        diagnostics={"x": x_eff, **diag, "fallback": True},
        paths=paths,
    )


def rate_perfect_corr(model: LsvModel, k: float, sign: int, tol: QuadTolerance | None = None) -> RateResult:
    """Exact rate at rho = +1 or -1 via the coupled-path reduction."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if model.rho != float(sign):
        raise ValueError(f"model.rho must equal {sign} for the perfect-correlation rate")
    if k <= 0:
        raise ValueError("strike must be positive")
    tol = tol or QuadTolerance()
    res = _h_only_rate(model, k, float(sign), tol)
    method = "perfect_corr" if res.method == "corr_path_asian" else "perfect_corr_direct"
    return RateResult(
        res.value,
        method,
        z_star=res.z_star,
        g_cost=res.g_cost,
        h_cost=res.h_cost,
        diagnostics=res.diagnostics,
        paths=res.paths,
    )


def rate_upper_corr_path(model: LsvModel, k: float, tol: QuadTolerance | None = None) -> float:
    """h-only upper bound on the rate for |rho| < 1 (tight as |rho| -> 1)."""
    if abs(model.rho) >= 1.0:
        raise ValueError("requires |rho| < 1")
    if k <= 0:
        raise ValueError("strike must be positive")
    tol = tol or QuadTolerance()
    return _h_only_rate(model, k, model.rho, tol).value


# ---------------------------------------------------------------------------
# Direct transcription of the full two-dimensional problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericOptions:
    n: int = 201


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


def rate_numeric(
    model: LsvModel,
    k: float,
    opts: NumericOptions | None = None,
) -> RateResult:
    """Direct transcription of the full variational problem for |rho| < 1.

    Piecewise-linear paths on a uniform grid and a midpoint-rule action; the
    KKT conditions of the constrained minimization are solved by the banded
    Newton iteration ``_newton_kkt`` (half-bandwidth 3 in the interleaved
    (g, h) unknowns), started from the second-order small-x expansion paths.
    Raises ConvergenceError, with both residuals, if Newton does not converge.
    """
    if abs(model.rho) >= 1.0:
        raise ValueError("rate_numeric requires |rho| < 1")
    if k <= 0:
        raise ValueError("strike must be positive")
    opts = opts or NumericOptions()

    x = math.log(k / forward_variance_limit(model))
    n = opts.n
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
        z_star=None,
        g_endpoint=float(math.exp(paths.g[-1])),
        lagrange=lam,
        g_cost=lv.g_cost,
        h_cost=lv.h_cost,
        diagnostics={"x": x, **diag, "el_residual": _el_residual(model, paths, lam)},
        paths=paths,
    )


def rate_by_method(
    model: LsvModel,
    k: float,
    method: str,
    tol: QuadTolerance | None = None,
) -> RateResult | BoundsResult:
    """The rate at strike k by a named method, as the CLI's ``rate`` and
    ``asymptotic_smile`` compute it.

    "closed": ``rate_zero_rho``.  "numeric": ``rate_numeric``, or at
    rho = +-1, where the transcription does not apply, the exact reduction
    ``rate_perfect_corr``.  "bounds": ``rate_bounds_rho`` (a BoundsResult).
    "expansion": A x^2 + B x^3, with x in the diagnostics.
    """
    if method == "closed":
        return rate_zero_rho(model, k, tol=tol)
    if method == "numeric":
        if abs(model.rho) == 1.0:
            return rate_perfect_corr(model, k, int(model.rho), tol=tol)
        return rate_numeric(model, k)
    if method == "bounds":
        return rate_bounds_rho(model, k, tol=tol)
    if method == "expansion":
        x = math.log(k / forward_variance_limit(model))
        return RateResult(atm_mod.rate_expansion(model, x), "expansion", diagnostics={"x": x})
    raise ValueError("rate method must be one of closed|bounds|numeric|expansion")
