"""Zero-correlation rate function for variance options.

With rho = 0 the two-dimensional path problem splits: given the variance
leg's time budget z = integral of e^h, the asset leg's optimal cost is a
closed form driven by a terminal level G solving a ratio-of-integrals
equation, and the variance leg is the Asian-option rate J(V0, z).  The
rate function is the scalar infimum over z of the sum.  It is found as the
root of the objective's derivative, which the envelope theorem gives from
the asset leg's multiplier and the variance leg's endpoint integral F.  The
root is sought in the variance leg's terminal log excursion alpha rather
than in z: one pair of endpoint integrals F, G at alpha fixes z, J and F
without an Asian root solve.  The one Asian solve left (at the pivot budget
K/eta(S0)^2) brackets its root from the constant vol-of-vol root, which
depends only on z/V0; the asset-leg solves reuse each other's endpoint
integrals as brackets.  Integrals over one interval (F and G; the two
endpoint integrals; all panels of a cumulative time map) share one call of
the vectorized kernel ``integrate_sqrt_singular``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import DegenerateEtaError, InfeasibleStrikeError
from .model import LsvModel, SigmaSpec, forward_variance_limit
from .numerics import (
    Bracket,
    bracket_root,
    count_kernel_calls,
    find_root,
    integrate_sqrt_singular,
)
from .paths import PathPair

__all__ = [
    "AsianRateSolution",
    "RateResult",
    "asian_rate_j",
    "asian_rate_j_const",
    "asian_rate_general",
    "solve_g_endpoint",
    "rate_zero_rho",
    "optimal_paths_zero_rho",
]

CONST_ETA_REL_TOL = 1e-12
_ATM_REL_TOL = 1e-13


def _eta_flat(model: LsvModel) -> bool:
    """eta is constant, or flat at S0 (relative slope below CONST_ETA_REL_TOL,
    as on a clamp).  The endpoint equation then degenerates (it divides by
    eta^2(G) - eta^2(x)), and the rho = 0 rate is the Asian rate at K/eta(S0)^2."""
    eta0, eta1, _ = model.eta.log_coeffs()
    return model.eta.is_constant or abs(eta1) < CONST_ETA_REL_TOL * abs(eta0)


@dataclass(frozen=True)
class AsianRateSolution:
    """Variance-leg (h-only) rate J with its branch data.

    ``alpha`` is the terminal log excursion |h(1) - h(0)|; ``f_value`` and
    ``g_value`` are the two endpoint integrals whose half-product is J.
    ``const_param`` carries beta (above) or xi (below) when the constant
    vol-of-vol shortcut produced the solution.
    """

    value: float
    branch: str  # "above" | "below" | "atm"
    alpha: float = 0.0
    f_value: float = 0.0
    g_value: float = 0.0
    const_param: Optional[float] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("asian rate must be nonnegative")


@dataclass(frozen=True)
class RateResult:
    """Rate-function value with optimizer diagnostics."""

    value: float
    method: str
    z_star: Optional[float] = None
    g_endpoint: Optional[float] = None
    lagrange: Optional[float] = None
    g_cost: float = 0.0
    h_cost: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    paths: Optional[PathPair] = None


# ---------------------------------------------------------------------------
# Asian-option sub-problem J(V0, z)
# ---------------------------------------------------------------------------


def _fg_above(sig_log: Callable, alpha: float):
    """Endpoint integrals for the z > level0 branch.

    F = int_0^a dy / (sig(y) sqrt(e^a - e^y)),  G = int_0^a sqrt(e^a - e^y) / sig(y) dy,
    with e^a - e^y = e^y expm1(d) on the exact distance d = a - y.
    """

    def fg(y, d):
        s, r = sig_log(y), np.sqrt(np.expm1(d))
        return np.array([np.exp(-0.5 * y) / (s * r), np.exp(0.5 * y) * r / s])

    f, g = integrate_sqrt_singular(fg, 0.0, alpha, "b")
    return float(f), float(g)


def _fg_below(sig_log: Callable, alpha: float):
    """Endpoint integrals for the z < level0 branch (log excursion downward)."""
    ea = math.exp(0.5 * alpha)

    def fg(y, d):
        s, r = sig_log(-y), np.sqrt(np.expm1(d))
        return np.array([1.0 / (s * r), r / s])

    f, g = integrate_sqrt_singular(fg, 0.0, alpha, "b")
    return ea * float(f), float(g) / ea


def _const_sigma_root(zr: float) -> tuple[float, float]:
    """Root of the constant vol-of-vol Asian problem at budget ratio zr != 1:
    (beta, alpha) above, with sinh(beta)/beta = zr, or (xi, alpha) below,
    with sin(2 xi)/(2 xi) = zr.  G/F does not depend on sigma0 there, so
    neither does the terminal log excursion alpha."""
    if zr > 1.0:
        br = bracket_root(lambda b: math.sinh(b) / b - zr, 1e-8, 2.0)
        beta = find_root(lambda b: math.sinh(b) / b - zr, br, tol=1e-14)
        return beta, 2.0 * math.log(math.cosh(0.5 * beta))
    br = Bracket(1e-12, 0.5 * math.pi * (1.0 - 1e-15))
    xi = find_root(lambda s: math.sin(2.0 * s) / (2.0 * s) - zr, br, tol=1e-14)
    return xi, -2.0 * math.log(math.cos(xi))


# The first bracket probe of the general Asian root sits this factor of the
# constant vol-of-vol root's distance from the lower bound.
_SEED_STRETCH = 1.1


def asian_rate_general(sig_log: Callable, zr: float) -> AsianRateSolution:
    """Rate of the h-only problem with constraint (1/level0) int e^h dt = zr.

    ``sig_log(y)`` must return the (positive) volatility coefficients at an
    array of log offsets y from the starting level (J(V0, z) passes
    sigma).  The root in the terminal log excursion alpha is
    bracketed from |log zr| upward, with the first probe just past the
    constant vol-of-vol root, so the probe does not run far beyond the root
    (across a clamp kink, say) when sigma varies slowly.
    """
    if zr <= 0:
        raise ValueError("zr must be positive")
    if abs(zr - 1.0) <= _ATM_REL_TOL:
        return AsianRateSolution(0.0, "atm")

    above = zr > 1.0
    fg = _fg_above if above else _fg_below
    seen = {}  # find_root re-evaluates the ends bracket_root returns

    def phi(alpha):
        if alpha not in seen:
            seen[alpha] = fg(sig_log, alpha)
        f, g = seen[alpha]
        return (math.exp(alpha) - zr if above else zr - math.exp(-alpha)) - g / f

    lo = abs(math.log(zr))  # e^alpha >= zr (above) or e^-alpha <= zr (below) at the root
    _, alpha_c = _const_sigma_root(zr)
    alpha = find_root(phi, bracket_root(phi, lo, lo + _SEED_STRETCH * (alpha_c - lo)), tol=1e-13)
    f, g = seen[alpha]
    return AsianRateSolution(0.5 * f * g, "above" if above else "below", alpha=alpha, f_value=f, g_value=g)


def asian_rate_j(sigma: SigmaSpec, v0: float, z: float) -> AsianRateSolution:
    """J(V0, z): the variance-leg rate, by quadrature plus root finding."""
    if v0 <= 0 or z <= 0:
        raise ValueError("v0 and z must be positive")
    return asian_rate_general(sigma.value_log, z / v0)


def asian_rate_j_const(sigma0: float, v0: float, z: float) -> AsianRateSolution:
    """J(V0, z) for constant vol-of-vol, via the transcendental shortcuts.

    z above V0: beta solves sinh(beta)/beta = z/V0 and
    J = (beta^2/2 - beta tanh(beta/2)) / sigma0^2.  z below V0: xi in
    [0, pi/2] solves sin(2 xi)/(2 xi) = z/V0 and J = 2 xi (tan xi - xi) / sigma0^2.
    Quadrature-free, used as the independent check of the general route.
    """
    if sigma0 <= 0 or v0 <= 0 or z <= 0:
        raise ValueError("inputs must be positive")
    zr = z / v0
    if abs(zr - 1.0) <= _ATM_REL_TOL:
        return AsianRateSolution(0.0, "atm", const_param=0.0)

    param, alpha = _const_sigma_root(zr)
    if zr > 1.0:
        beta = param
        value = (0.5 * beta * beta - beta * math.tanh(0.5 * beta)) / sigma0**2
        ch = math.cosh(0.5 * beta)
        f = beta / (sigma0 * ch)
        g = 2.0 * ch * (0.5 * beta - math.tanh(0.5 * beta)) / sigma0
        return AsianRateSolution(value, "above", alpha=alpha, f_value=f, g_value=g, const_param=beta)

    xi = param
    value = 2.0 * xi * (math.tan(xi) - xi) / sigma0**2
    f = 2.0 * xi / (sigma0 * math.cos(xi))
    g = 2.0 * (math.sin(xi) - xi * math.cos(xi)) / sigma0
    return AsianRateSolution(value, "below", alpha=alpha, f_value=f, g_value=g, const_param=xi)


# ---------------------------------------------------------------------------
# Asset-leg endpoint equation and cost
# ---------------------------------------------------------------------------


def _eta_sq_gap(eta, u, u_g: float, e_g: float, dist):
    """eta^2 at u_g minus eta^2 at u for u_g < 0, the reverse for u_g > 0,
    given the exact distance dist = |u_g - u|; no cancellation as u -> u_g."""
    sgn = 1.0 if u_g > 0 else -1.0
    return sgn * eta.diff_log(u, u_g, delta=-sgn * dist) * (eta.value_log(u) + e_g)


def _endpoint_integrals(model: LsvModel, u_g: float):
    """The two integrals of the endpoint equation, on [min(u_g,0), max(u_g,0)].

    Returned positively oriented; their ratio num/den equals z/K at the
    solution.  u_g < 0 is the call geometry (eta^2(G) > eta^2(x) on the way),
    u_g > 0 the put geometry.  Both come from one kernel call.
    """
    eta = model.eta
    e_g = eta.value_log(u_g)

    def num_den(u, dist):
        e = eta.value_log(u)
        root = np.sqrt(np.maximum(_eta_sq_gap(eta, u, u_g, e_g, dist), 5e-324))
        return np.array([1.0 / (e * root), e / root])

    lo, hi, singular = (u_g, 0.0, "a") if u_g < 0 else (0.0, u_g, "b")
    num, den = integrate_sqrt_singular(num_den, lo, hi, singular)
    return float(num), float(den)


def _plateau_edge(eta, inside: float, outside: float) -> float:
    """Last point before eta turns flat (sits on a clamp), between ``inside``
    where it is not flat and ``outside`` where it is; by bisection."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            return inside
        if eta.dvalue_log(mid) == 0.0:
            outside = mid
        else:
            inside = mid


def _solve_u_g(model: LsvModel, z: float, k: float, side: str, seen: dict | None = None):
    """Root u_G = log(G/S0) of the ratio equation num/den = z/K, with the
    den integral at the root.

    The search for a sign change moves away from S0 and stops at the first
    point where eta turns flat: past it the integrals diverge, so a target
    not reached there is infeasible.  ``seen`` maps u_G to its endpoint
    integrals; solves for one model may share it, and its points then
    narrow the search.
    """
    eta0 = float(model.eta.value_log(0.0))
    target = z / k
    limit = 1.0 / eta0**2

    if side == "call":
        if target > limit * (1.0 + 1e-12):
            raise InfeasibleStrikeError(
                f"call-side endpoint needs z/K <= 1/eta(S0)^2; got {target} > {limit}"
            )
        if target >= limit * (1.0 - 1e-13):
            return 0.0, 0.0
        sign = -1.0
    elif side == "put":
        if target < limit * (1.0 - 1e-12):
            raise InfeasibleStrikeError(
                f"put-side endpoint needs z/K >= 1/eta(S0)^2; got {target} < {limit}"
            )
        if target <= limit * (1.0 + 1e-13):
            return 0.0, 0.0
        sign = 1.0
    else:
        raise ValueError("side must be 'call' or 'put'")

    seen = {} if seen is None else seen

    def psi(u_g):
        if u_g == 0.0:
            return limit - target  # num/den -> 1/eta(S0)^2 as u_g -> 0
        if u_g not in seen:
            seen[u_g] = _endpoint_integrals(model, u_g)
        num, den = seen[u_g]
        return num / den - target

    # psi has the sign of (limit - target) at u_g = 0 and crosses zero as
    # |u_g| grows.  Start from the last known point before the crossing and
    # the first known one past it; without the latter, expand until psi
    # crosses, eta turns flat or it saturates.
    u_prev = 0.0
    f_near = psi(u_prev)
    u = None
    for v in sorted((v for v in seen if v * sign > 0.0), key=abs):
        if f_near * psi(v) > 0.0:
            u_prev = v
        else:
            u = v
            break
    if u is None:
        u = 2.0 * u_prev if u_prev else sign * 0.25
    while True:
        if model.eta.dvalue_log(u) == 0.0:
            u = _plateau_edge(model.eta, u_prev, u)
            if f_near * psi(u) > 0.0:
                raise InfeasibleStrikeError(
                    f"no endpoint level G reaches z/K = {target} before eta turns flat at u = {u:.6g}"
                )
            break
        if f_near * psi(u) <= 0.0:
            break
        u_prev = u
        u = 2.0 * u
        if abs(u) > 40.0:
            raise InfeasibleStrikeError(
                f"no endpoint level G reaches z/K = {target} (eta saturated)"
            )
    lo, hi = (u, u_prev) if u < u_prev else (u_prev, u)
    u_g = find_root(psi, Bracket(lo, hi), tol=1e-13)
    return u_g, seen[u_g][1]


def solve_g_endpoint(model: LsvModel, z: float, k: float, side: str) -> float:
    """Terminal asset level G of the zero-correlation asset-leg solution."""
    if z <= 0 or k <= 0:
        raise ValueError("z and K must be positive")
    if _eta_flat(model):
        raise DegenerateEtaError("constant eta: endpoint equation is degenerate, use J(V0, K/eta0^2)")
    u_g, _ = _solve_u_g(model, z, k, side)
    return model.s0 * math.exp(u_g)


def _g_leg_cost(model: LsvModel, z: float, k: float, seen: dict | None = None):
    """Asset-leg cost at budget z: (G, cost, lagrange, eta(G)).

    The formula branch is fixed by z against K/eta(S0)^2, not by the option
    side: below it the asset path must raise eta (call geometry), above it
    must lower eta.
    """
    eta0 = float(model.eta.value_log(0.0))
    z_pivot = k / eta0**2
    if abs(z - z_pivot) <= 1e-13 * z_pivot:
        return model.s0, 0.0, 0.0, eta0
    side = "call" if z < z_pivot else "put"
    u_g, den = _solve_u_g(model, z, k, side, seen)
    eta_g = float(model.eta.value_log(u_g))
    gap = eta_g**2 * z - k
    # gap >= 0 on the call branch and <= 0 on the put branch by construction.
    cost = den * den * abs(gap) / (2.0 * k * k)
    lam = -den * den / (2.0 * k * k) if side == "call" else den * den / (2.0 * k * k)
    return model.s0 * math.exp(u_g), cost, lam, eta_g


def _asian_fields(sol: AsianRateSolution) -> dict:
    return {"alpha": sol.alpha, "branch": sol.branch, "f_value": sol.f_value, "g_value": sol.g_value}


def _variance_leg(model: LsvModel, alpha: float, above: bool):
    """Budget z and Asian solution of the variance leg whose terminal log
    excursion is ``alpha`` on the above (z > V0) or below branch.

    One endpoint-integral call gives F and G; the Asian root condition then
    fixes z = V0 (e^alpha - G/F) above and V0 (e^-alpha + G/F) below, with
    J = F G / 2.  No root is solved.
    """
    if alpha == 0.0:
        return model.v0, AsianRateSolution(0.0, "atm")
    f, g = (_fg_above if above else _fg_below)(model.sigma.value_log, alpha)
    z = model.v0 * (math.exp(alpha) - g / f if above else math.exp(-alpha) + g / f)
    return z, AsianRateSolution(0.5 * f * g, "above" if above else "below", alpha=alpha, f_value=f, g_value=g)


def _budget_legs(model: LsvModel, k: float, z: float, sol: AsianRateSolution, seen: dict | None = None):
    """Both legs at variance budget z, given the variance leg's solution
    there: (d/dz of the objective, z, ``sol``, the asset-leg tuple of
    ``_g_leg_cost``).  ``seen`` is passed on to ``_solve_u_g``.

    The derivative is lam eta(G)^2 + F^2 / (2 V0) on the above branch and
    lam eta(G)^2 - F^2 / (2 V0) below (envelope theorem: only the explicit
    z-dependence of each leg's Lagrangian counts).
    """
    leg = _g_leg_cost(model, z, k, seen)
    dj = sol.f_value**2 / (2.0 * model.v0)
    return leg[2] * leg[3] ** 2 + (dj if sol.branch == "above" else -dj), z, sol, leg


def rate_zero_rho(model: LsvModel, k: float) -> RateResult:
    """Closed-form rate function at rho = 0: the infimum over the variance
    budget z of the asset-leg cost plus J(V0, z).

    By the envelope theorem the objective's derivative is
    lam eta(G)^2 + F^2 / (2 V0) above V0 (minus below), from quantities the
    two leg solves already return (``_budget_legs``).  Its root is found in
    the variance leg's terminal log excursion alpha, which fixes z, J and F
    from one endpoint-integral call (``_variance_leg``), so no evaluation
    solves an Asian root.  The bracket is [0, alpha at the pivot
    K/eta(S0)^2]: alpha = 0 is z = V0, where dJ = 0, and at the pivot the
    asset cost and its multiplier vanish; one seeded Asian solve gives the
    pivot's alpha.  The asset-leg solves share their endpoint integrals, so
    each starts from the points earlier solves bracketed it with.  When the
    endpoint solve is infeasible at V0 (eta turns flat first), that end
    moves toward the pivot until it is feasible; if no feasible budget
    brackets the root, InfeasibleStrikeError is raised.

    The diagnostics are plain JSON: the variance leg's ``alpha``, ``branch``,
    ``f_value``, ``g_value``, and the counts ``derivative_evals`` and
    ``kernel_calls`` (quadrature kernel calls made by this rate).
    """
    if model.rho != 0.0:
        raise ValueError("rate_zero_rho requires a model with rho = 0")
    if not 0 < k < math.inf:
        raise ValueError("strike must be positive and finite")

    fv0 = forward_variance_limit(model)
    x = math.log(k / fv0)
    side = "call" if x > 0 else "put"
    if abs(x) <= 1e-14:
        return RateResult(
            0.0,
            "closed_zero_rho",
            z_star=model.v0,
            g_endpoint=model.s0,
            lagrange=0.0,
            diagnostics={"x": 0.0, "side": "atm"},
        )

    z_pivot = k / float(model.eta.value_log(0.0)) ** 2

    with count_kernel_calls() as kernel_calls:
        pivot = asian_rate_j(model.sigma, model.v0, z_pivot)
        if _eta_flat(model):
            return RateResult(
                pivot.value,
                "closed_zero_rho",
                z_star=z_pivot,
                h_cost=pivot.value,
                diagnostics={
                    "x": x,
                    "side": side,
                    "constant_eta": True,
                    **_asian_fields(pivot),
                    "derivative_evals": 0,
                    "kernel_calls": kernel_calls[0],
                },
            )

        above = z_pivot > model.v0
        endpoint = {}  # endpoint integrals by u_G, shared by the asset-leg solves
        legs = {pivot.alpha: _budget_legs(model, k, z_pivot, pivot)}
        evals = [1]

        def slope(alpha):  # d/dz at the budget that alpha fixes
            if alpha not in legs:
                evals[0] += 1
                z, sol = _variance_leg(model, alpha, above)
                legs[alpha] = _budget_legs(model, k, z, sol, endpoint)
            return legs[alpha][0]

        # a_near keeps the pivot's sign; a_far starts at V0 (alpha = 0) and
        # moves toward a_near while its endpoint solve is infeasible (a_bad).
        a_near, a_far, a_bad = pivot.alpha, 0.0, None
        for _ in range(60):
            try:
                if slope(a_far) * slope(a_near) <= 0.0 or a_bad is None:
                    break
                a_near = a_far  # feasible but past the root: it lies nearer a_bad
            except InfeasibleStrikeError:
                a_bad = a_far
            a_far = 0.5 * (a_bad + a_near)
        else:
            raise InfeasibleStrikeError(
                f"no feasible budget brackets the minimizer at K = {k}; it sits where eta turns flat"
            )
        if a_far == a_near:  # the pivot is at V0 to the Asian solve's precision
            a_star = a_near
        else:
            a_star = find_root(slope, Bracket(min(a_far, a_near), max(a_far, a_near)), tol=1e-12)
        _, z_star, sol, (g_end, g_cost, lam, _) = legs[a_star]
        diagnostics = {
            "x": x,
            "side": side,
            **_asian_fields(sol),
            "derivative_evals": evals[0],
            "kernel_calls": kernel_calls[0],
        }
    return RateResult(
        g_cost + sol.value,
        "closed_zero_rho",
        z_star=z_star,
        g_endpoint=g_end,
        lagrange=lam,
        g_cost=g_cost,
        h_cost=sol.value,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Optimal paths (rho = 0)
# ---------------------------------------------------------------------------


def _cumulative_map(integrand, upper: float, m: int = 160):
    """Cumulative integral of ``integrand`` on [0, upper] at m + 1 nodes
    clustered toward ``upper``, where the integrand may be singular.

    ``integrand(y, d)`` is vectorized, with d the exact distance upper - y.
    Each panel is mapped onto [0, 1] and becomes one row of a single kernel
    call, singular at 1 (harmless where the integrand is smooth).
    Returns (nodes, cumulative values).
    """
    j = np.arange(m + 1)
    nodes = upper * (1.0 - (1.0 - j / m) ** 2)
    nodes[0], nodes[-1] = 0.0, upper
    width = np.diff(nodes)[:, None]
    gap = (upper - nodes[1:])[:, None]

    def panels(_, e):
        d = gap + e * width
        return width * integrand(upper - d, d)

    cum = np.zeros(m + 1)
    cum[1:] = np.cumsum(integrate_sqrt_singular(panels, 0.0, 1.0, "b"))
    return nodes, cum


def _asian_h_path(sigma: SigmaSpec, v0: float, alpha: float, branch: str, t: np.ndarray):
    """Variance-leg path log V(t) of the Asian problem with terminal log
    excursion ``alpha`` on ``branch``, by inverting t(w) = P(w)/P(alpha)."""
    log_v0 = math.log(v0)
    if branch == "atm":
        return np.full(t.size, log_v0)
    if branch == "above":

        def kern(y, d):
            return np.exp(-0.5 * y) / (sigma.value_log(y) * np.sqrt(np.expm1(d)))

    else:

        def kern(y, d):
            return 1.0 / (sigma.value_log(-y) * np.sqrt(np.expm1(d)))

    w_nodes, p_cum = _cumulative_map(kern, alpha)
    w = PchipInterpolator(p_cum, w_nodes)(np.clip(t * p_cum[-1], 0.0, p_cum[-1]))
    h = log_v0 + (w if branch == "above" else -w)
    h[0] = log_v0
    return h


def optimal_paths_zero_rho(model: LsvModel, k: float, n: int = 401) -> PathPair:
    """Optimal (g, h) paths of the rho = 0 problem on a uniform n-point grid.

    h is recovered by inverting its implicit time map; g then follows from its
    own implicit equation driven by the running integral of e^h.  Endpoint
    slopes vanish by construction.
    """
    if model.rho != 0.0:
        raise ValueError("optimal_paths_zero_rho requires rho = 0")
    if _eta_flat(model):
        raise DegenerateEtaError("optimal paths need non-constant eta")

    return _paths_from_rate(model, k, rate_zero_rho(model, k), n)


def _paths_from_rate(model: LsvModel, k: float, res: RateResult, n: int) -> PathPair:
    """The optimal paths of ``optimal_paths_zero_rho`` from its solved rate."""
    t = np.linspace(0.0, 1.0, n)
    log_s0 = math.log(model.s0)
    if res.value == 0.0:
        return PathPair(t, np.full(n, log_s0), np.full(n, math.log(model.v0)))

    diag = res.diagnostics
    h = _asian_h_path(model.sigma, model.v0, diag["alpha"], diag["branch"], t)

    # asset leg: Theta(gamma(t)) = (den / (sqrt2 K)) * int_0^t e^h ds
    eta = model.eta
    u_g = math.log(res.g_endpoint / model.s0)
    _, den = _endpoint_integrals(model, u_g)
    m_t = CubicSpline(t, np.exp(h)).antiderivative()(t)

    e_g = eta.value_log(u_g)
    sgn = 1.0 if u_g > 0 else -1.0

    def theta_kern(s, d):
        gap = _eta_sq_gap(eta, sgn * s, u_g, e_g, d)
        return 1.0 / (eta.value_log(sgn * s) * np.sqrt(2.0 * np.maximum(gap, 5e-324)))

    s_nodes, theta_cum = _cumulative_map(theta_kern, abs(u_g))
    rhs = (den / math.sqrt(2.0) / k) * m_t
    gamma = PchipInterpolator(theta_cum, s_nodes)(np.clip(rhs, 0.0, theta_cum[-1]))
    g = log_s0 + sgn * gamma
    g[0] = log_s0

    return PathPair(t, g, h)
