"""Zero-correlation rate function for variance options.

With rho = 0 the two-dimensional path problem splits: given the variance
leg's time budget z = integral of e^h, the asset leg's optimal cost is a
closed form driven by a terminal level G solving a ratio-of-integrals
equation, and the variance leg is the Asian-option rate J(V0, z).  The
rate function is the scalar infimum over z of the sum, where the
objective's derivative vanishes; the envelope theorem gives it from the
asset leg's multiplier and the variance leg's endpoint integral F.

The minimizer is solved as one Newton system in two unknowns: the
variance leg's terminal log excursion alpha, which fixes z, J and F from
one pair of endpoint integrals without an Asian root solve, and the asset
endpoint u_G = log(G/S0).  The two equations are the endpoint equation at
the budget alpha fixes and the vanishing derivative.  The expansion around
the money seeds both unknowns, a finite-difference Jacobian starts the
iteration and secant updates carry it; a step that would cross alpha = 0
or u_G = 0 is cut short.  A root is accepted only with a certificate (z
between V0 and the pivot K/eta(S0)^2, u_G on its branch's side and off any
eta plateau, every value finite, the residual within the stopping
tolerances' share).  Otherwise the bracketed
route runs: a root in alpha between V0 and the pivot, whose single Asian
solve (at the pivot) brackets its root from the constant vol-of-vol root,
with each evaluation solving u_G by a bracketed root that reuses the
endpoint integrals of the earlier ones.  Integrals over one interval (F and
G; the two endpoint integrals; all panels of a cumulative time map) share
one call of the vectorized kernel ``integrate_sqrt_singular``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .atm import atm_expansion
from .errors import AccuracyError, DegenerateEtaError, InfeasibleStrikeError
from .model import ATM_REL_TOL, LsvModel, SigmaSpec, clamp_points, log_moneyness
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
    "solve_g_endpoint",
    "rate_zero_rho",
    "optimal_paths_zero_rho",
]

CONST_ETA_REL_TOL = 1e-12


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


def _fg_integrand(sigma: SigmaSpec, above: bool):
    """Integrand rows (F, G) of the Asian endpoint integrals in the log
    excursion y, on the z > level0 (``above``) or z < level0 branch, and its
    breaks, sigma's clamp points in y.  Above, F = int_0^a dy / (sig(y)
    sqrt(e^a - e^y)) and G = int_0^a sqrt(e^a - e^y) / sig(y) dy, with
    e^a - e^y = e^y expm1(d) on the exact distance d = a - y; below, sig(-y)
    replaces sig(y) and the factors e^(-+y/2) leave the integrals as e^(+-a/2).
    """
    sg = 1.0 if above else -1.0

    def fg(y, d):
        s, r = sigma.value_log(sg * y), np.sqrt(np.expm1(d))
        if above:
            return np.array([np.exp(-0.5 * y) / (s * r), np.exp(0.5 * y) * r / s])
        return np.array([1.0 / (s * r), r / s])

    return fg, tuple(sg * w for w in clamp_points(sigma))


def _fg(sigma: SigmaSpec, alpha: float, above: bool):
    """Endpoint integrals F, G at the terminal log excursion alpha."""
    fg, breaks = _fg_integrand(sigma, above)
    f, g = integrate_sqrt_singular(fg, 0.0, alpha, "b", breaks)
    if above:
        return float(f), float(g)
    ea = math.exp(0.5 * alpha)
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


def asian_rate_j(sigma: SigmaSpec, v0: float, z: float) -> AsianRateSolution:
    """J(V0, z): the variance-leg rate, the least energy of h with
    (1/V0) int e^h dt = z/V0, by quadrature plus root finding.

    The root in the terminal log excursion alpha is bracketed from |log(z/V0)|
    upward, with the first probe just past the constant vol-of-vol root, so it
    does not run far past the root (across a clamp kink, say) when sigma varies slowly.
    """
    if v0 <= 0 or z <= 0:
        raise ValueError("v0 and z must be positive")
    zr = z / v0
    if abs(zr - 1.0) <= ATM_REL_TOL:
        return AsianRateSolution(0.0, "atm")

    above = zr > 1.0
    seen = {}  # find_root re-evaluates the ends bracket_root returns

    def phi(alpha):
        if alpha not in seen:
            seen[alpha] = _fg(sigma, alpha, above)
        f, g = seen[alpha]
        return (math.exp(alpha) - zr if above else zr - math.exp(-alpha)) - g / f

    lo = abs(math.log(zr))  # e^alpha >= zr (above) or e^-alpha <= zr (below) at the root
    _, alpha_c = _const_sigma_root(zr)
    alpha = find_root(phi, bracket_root(phi, lo, lo + _SEED_STRETCH * (alpha_c - lo)), tol=1e-13)
    f, g = seen[alpha]
    return AsianRateSolution(0.5 * f * g, "above" if above else "below", alpha=alpha, f_value=f, g_value=g)


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
    if abs(zr - 1.0) <= ATM_REL_TOL:
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


def _endpoint_integrand(eta, u_g: float):
    """Integrand rows (num, den) of the endpoint equation at u, given dist = |u_g - u|."""
    e_g = eta.value_log(u_g)
    sgn = 1.0 if u_g > 0 else -1.0

    def num_den(u, dist):
        # eta^2(u_g) - eta^2(u), negated for u_g > 0: no cancellation as u -> u_g
        e = eta.value_log(u)
        gap = sgn * eta.diff_log(u, u_g, delta=-sgn * dist) * (e + e_g)
        root = np.sqrt(np.maximum(gap, 5e-324))
        return np.array([1.0 / (e * root), e / root])

    return num_den


def _endpoint_integrals(model: LsvModel, u_g: float):
    """The two integrals of the endpoint equation, on [min(u_g,0), max(u_g,0)].

    Returned positively oriented; their ratio num/den equals z/K at the
    solution.  u_g < 0 is the call geometry (eta^2(G) > eta^2(x) on the way),
    u_g > 0 the put geometry.  Both come from one kernel call.
    """
    lo, hi, singular = (u_g, 0.0, "a") if u_g < 0 else (0.0, u_g, "b")
    num_den = _endpoint_integrand(model.eta, u_g)
    num, den = integrate_sqrt_singular(num_den, lo, hi, singular, clamp_points(model.eta))
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


# Largest |u_G| an endpoint solve probes and largest alpha the Newton route
# steps to: past it eta or sigma is taken as saturated.
_LOG_CAP = 40.0
# Steps of at most these sizes end the roots in alpha and in u_G, on both routes.
_ALPHA_TOL, _U_TOL = 1e-12, 1e-13


def _solve_u_g(model: LsvModel, z: float, k: float, seen: dict | None = None):
    """Root u_G = log(G/S0) of the ratio equation num/den = z/K, with the
    den integral at the root, for z off the pivot K/eta(S0)^2.

    G lies below S0 when z/K < 1/eta(S0)^2 and above it otherwise.  The
    search for a sign change moves away from S0 and stops at the first
    point where eta turns flat: past it the integrals diverge, so a target
    not reached there is infeasible.  ``seen`` maps u_G to its endpoint
    integrals; solves for one model may share it, and its points then
    narrow the search.
    """
    eta0 = float(model.eta.value_log(0.0))
    target = z / k
    limit = 1.0 / eta0**2
    sign = -1.0 if target < limit else 1.0
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
        if abs(u) > _LOG_CAP:
            raise InfeasibleStrikeError(
                f"no endpoint level G reaches z/K = {target} (eta saturated)"
            )
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
    lo, hi = (u, u_prev) if u < u_prev else (u_prev, u)
    u_g = find_root(psi, Bracket(lo, hi), tol=_U_TOL)
    return u_g, seen[u_g][1]


def solve_g_endpoint(model: LsvModel, z: float, k: float) -> float:
    """Terminal asset level G of the zero-correlation asset-leg solution at
    budget z; its branch follows from z against K/eta(S0)^2 (``_g_leg_cost``)."""
    if z <= 0 or k <= 0:
        raise ValueError("z and K must be positive")
    if _eta_flat(model):
        raise DegenerateEtaError("constant eta: endpoint equation is degenerate, use J(V0, K/eta0^2)")
    return _g_leg_cost(model, z, k)[0]


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
    return _asset_leg(model, z, k, *_solve_u_g(model, z, k, seen))


def _asset_leg(model: LsvModel, z: float, k: float, u_g: float, den: float):
    """The tuple of ``_g_leg_cost`` from the endpoint u_G = log(G/S0) at
    budget z and the den integral there; u_G < 0 (z below the pivot) is the
    call geometry."""
    eta_g = float(model.eta.value_log(u_g))
    gap = eta_g**2 * z - k
    # gap >= 0 on the call branch (u_G < 0) and <= 0 on the put branch by construction.
    cost = den * den * abs(gap) / (2.0 * k * k)
    lam = -den * den / (2.0 * k * k) if u_g < 0.0 else den * den / (2.0 * k * k)
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
    f, g = _fg(model.sigma, alpha, above)
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


# The Newton route takes at most this many steps before it falls back to the
# bracketed route; its Jacobian starts from differences at this relative step.
_NEWTON_STEPS = 12
_FD_REL_STEP = 1e-6


class _NewtonFailure(Exception):
    """The Newton route cannot certify a root; the message says why."""


def _newton_root(model: LsvModel, k: float, x: float, z_pivot: float):
    """Stationary point of the rho = 0 objective as the root of two equations
    in the variance leg's terminal log excursion alpha and the asset leg's
    endpoint u_G = log(G/S0):

        E1:  z(alpha) / K = num(u_G) / den(u_G)
        E2:  log(F(alpha) / sqrt(V0)) = log(den(u_G) eta(u_G) / K)

    E1 is the endpoint equation at the budget z that alpha fixes
    (``_variance_leg``); E2 is the vanishing slope
    lam eta(G)^2 + F^2 / (2 V0) (minus below V0) of ``_budget_legs``, in logs.
    Each equation is an alpha part minus a u_G part, so one evaluation is one
    ``_fg`` call and one ``_endpoint_integrals`` call, and each Jacobian
    column is a secant in its own variable: Broyden's secant condition, kept
    column by column.  The seed is the second-order expansion of both
    endpoints at t = 1 (``atm.atm_expansion``), with u_G's first-order term
    alone where the second order puts it on the other side of S0; the first
    columns are differences at one point moved toward the money.  A step
    that would cross alpha = 0 or u_G = 0 is cut to half the way there.  The
    point that a step of at most 1e-12 in alpha and 1e-13 in u_G reaches is
    evaluated and, with the certificate of ``rate_zero_rho`` and a residual
    no larger than those tolerances times the first differences' slopes,
    returned as (z, Asian solution, ``_asset_leg`` tuple, evaluations);
    otherwise _NewtonFailure is raised.
    """
    above = z_pivot > model.v0
    exp = atm_expansion(model)
    alpha = abs(x * float(exp.h1(1.0)) + x * x * float(exp.h2(1.0)))
    sign = -1.0 if above else 1.0
    u = x * float(exp.g1(1.0)) + x * x * float(exp.g2(1.0))
    if sign * u <= 0.0:  # far from the money the x^2 term can outgrow the first
        u = x * float(exp.g1(1.0))
    sqrt_v0 = math.sqrt(model.v0)

    def variance_part(a):
        if not 0.0 < a <= _LOG_CAP:
            raise _NewtonFailure(f"alpha = {a!r} left (0, {_LOG_CAP}]")
        z, sol = _variance_leg(model, a, above)
        return np.array([z / k, math.log(sol.f_value / sqrt_v0)]), (z, sol)

    def asset_part(u_g):
        if not 0.0 < sign * u_g <= _LOG_CAP or model.eta.dvalue_log(u_g) == 0.0:
            raise _NewtonFailure(f"u_G = {u_g!r} left 0 < {sign:+.0f} u_G <= {_LOG_CAP} off eta's plateaus")
        num, den = _endpoint_integrals(model, u_g)
        return np.array([num / den, math.log(den * float(model.eta.value_log(u_g)) / k)]), den

    # E = a_val - u_val; the differences step toward the money, inside the domain
    a_val, h_leg = variance_part(alpha)
    u_val, den = asset_part(u)
    da, du = _FD_REL_STEP * alpha, _FD_REL_STEP * u
    col_a = (a_val - variance_part(alpha - da)[0]) / da
    col_u = (asset_part(u - du)[0] - u_val) / du
    # the residual the stopping tolerances allow, through the slopes that the
    # differences measure (the secant updates do not enter it)
    allowed = np.abs(col_a) * _ALPHA_TOL + np.abs(col_u) * _U_TOL
    evals = 2
    for _ in range(_NEWTON_STEPS):
        r = a_val - u_val
        det = float(col_a[0] * col_u[1] - col_u[0] * col_a[1])
        step_a = float(col_u[0] * r[1] - col_u[1] * r[0]) / det if det else math.nan
        step_u = float(col_a[1] * r[0] - col_a[0] * r[1]) / det if det else math.nan
        if not (math.isfinite(step_a) and math.isfinite(step_u)):
            raise _NewtonFailure(f"non-finite step at alpha = {alpha!r}, u_G = {u!r}")
        # a step past alpha = 0 or u_G = 0 is cut to go half the way there
        cut = 1.0
        for value, step in ((alpha, step_a), (u, step_u)):
            if value * step < 0.0 and abs(step) >= abs(value):
                cut = min(cut, 0.5 * abs(value / step))
        step_a, step_u = cut * step_a, cut * step_u
        alpha, u = alpha + step_a, u + step_u
        a_new, h_leg = variance_part(alpha)
        u_new, den = asset_part(u)
        evals += 1
        if abs(step_a) <= _ALPHA_TOL and abs(step_u) <= _U_TOL:
            # the certificate; asset_part has checked u_G's side, cap and plateau
            residual = np.abs(a_new - u_new)
            if np.any(residual > allowed):
                raise _NewtonFailure(f"residual {residual.tolist()} exceeds {allowed.tolist()} at the root")
            z, sol = h_leg
            leg = _asset_leg(model, z, k, u, den)
            if not min(model.v0, z_pivot) < z < max(model.v0, z_pivot):
                raise _NewtonFailure(f"z = {z!r} not strictly between V0 and the pivot {z_pivot!r}")
            if not all(map(math.isfinite, (z, sol.value, sol.f_value, sol.g_value, den, *leg))):
                raise _NewtonFailure("non-finite value at the root")
            return z, sol, leg, evals
        # a secant over a step shorter than the first difference's is mostly rounding
        if abs(step_a) > da:
            col_a = (a_new - a_val) / step_a
        if abs(step_u) > abs(du):
            col_u = (u_val - u_new) / step_u
        a_val, u_val = a_new, u_new
    raise _NewtonFailure(f"no convergence in {_NEWTON_STEPS} steps")


def _bracketed_root(model: LsvModel, k: float, z_pivot: float):
    """The same stationary point by nested bracketed roots: (z, Asian
    solution, ``_g_leg_cost`` tuple, slope evaluations).

    The root of the objective's slope (``_budget_legs``) is bracketed in
    alpha between 0 (z = V0, where dJ = 0) and the alpha of the pivot
    ``z_pivot`` = K/eta(S0)^2, where the asset cost and its multiplier
    vanish; one Asian solve gives that alpha.  Each slope evaluation solves
    u_G by ``_solve_u_g``, sharing its endpoint integrals with the earlier
    solves.
    When the endpoint solve is infeasible at V0 (eta turns flat first), that
    end moves toward the pivot until it is feasible; if no feasible budget
    brackets the root, InfeasibleStrikeError is raised.
    """
    pivot = asian_rate_j(model.sigma, model.v0, z_pivot)
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
    a_star = find_root(slope, Bracket(min(a_far, a_near), max(a_far, a_near)), tol=_ALPHA_TOL)
    _, z_star, sol, leg = legs[a_star]
    return z_star, sol, leg, evals[0]


def rate_zero_rho(model: LsvModel, k: float) -> RateResult:
    """Closed-form rate function at rho = 0: the infimum over the variance
    budget z of the asset-leg cost plus J(V0, z).

    By the envelope theorem the objective's derivative is
    lam eta(G)^2 + F^2 / (2 V0) above V0 (minus below), from quantities the
    two leg solves return (``_budget_legs``).  The minimizer is solved as one
    Newton system in the variance leg's terminal log excursion alpha and
    the asset endpoint u_G = log(G/S0) (``_newton_root``): E1 is the
    endpoint equation z(alpha) = K num(u_G)/den(u_G), E2 the vanishing
    derivative.  The seed is the expansion around the money at t = 1,
    alpha0 = |x h1(1) + x^2 h2(1)| and u0 = x g1(1) + x^2 g2(1), or x g1(1)
    where the x^2 term puts u0 on the wrong side of S0; the Jacobian starts
    from finite differences and is updated by secants, and a step that
    would cross alpha = 0 or u_G = 0 goes half the way there.  A root is
    accepted only with a certificate: z* strictly between V0 and the pivot
    K/eta(S0)^2, u_G < 0 above V0 and > 0 below, |u_G| <= 40, eta not flat
    at u_G, every value finite, and each equation's residual at most the
    stopping tolerances times the slopes of the first differences.
    Otherwise (no convergence in 12 steps, a step out of that domain, a
    non-finite step, or an InfeasibleStrikeError or AccuracyError on the
    way) the bracketed route runs (``_bracketed_root``): a root in alpha
    between 0 (z = V0) and the alpha of the pivot, which one seeded Asian
    solve gives, with each evaluation solving u_G by a bracketed root.  It
    raises InfeasibleStrikeError when no feasible budget brackets the root.
    z*, J, F, G, u_G, the cost and lam all come from the final evaluation,
    by the arithmetic of ``_variance_leg`` and ``_asset_leg``.

    The diagnostics are plain JSON: the variance leg's ``alpha``,
    ``branch``, ``f_value``, ``g_value``; ``route`` ("newton" or
    "bracketed") and ``fallback`` (None, or why the Newton route gave up);
    ``derivative_evals`` (evaluations of the (alpha, u_G) system on the
    Newton route, of the slope on the bracketed one); ``kernel_calls`` and
    ``kernel_passes`` (quadrature kernel calls made by this rate, a failed
    Newton attempt's included, and their passes).
    """
    if model.rho != 0.0:
        raise ValueError("rate_zero_rho requires a model with rho = 0")

    x = log_moneyness(model, k)
    side = "call" if x > 0 else "put"
    if x == 0.0:
        return RateResult(
            0.0,
            "closed_zero_rho",
            z_star=model.v0,
            g_endpoint=model.s0,
            lagrange=0.0,
            diagnostics={"x": 0.0, "side": "atm"},
        )

    z_pivot = k / float(model.eta.value_log(0.0)) ** 2

    with count_kernel_calls() as counts:
        if _eta_flat(model):
            pivot = asian_rate_j(model.sigma, model.v0, z_pivot)
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
                    "kernel_calls": counts[0],
                    "kernel_passes": counts[1],
                },
            )

        route, fallback = "newton", None
        try:
            z_star, sol, leg, evals = _newton_root(model, k, x, z_pivot)
        except (_NewtonFailure, InfeasibleStrikeError, AccuracyError) as exc:
            route, fallback = "bracketed", f"{type(exc).__name__}: {exc}"
            z_star, sol, leg, evals = _bracketed_root(model, k, z_pivot)
        g_end, g_cost, lam, _ = leg
        diagnostics = {
            "x": x,
            "side": side,
            **_asian_fields(sol),
            "route": route,
            "fallback": fallback,
            "derivative_evals": evals,
            "kernel_calls": counts[0],
            "kernel_passes": counts[1],
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


def _cumulative_map(integrand, upper: float, breaks, m: int = 160):
    """Cumulative integral of ``integrand`` on [0, upper] at m + 1 nodes
    clustered toward ``upper``, where the integrand may be singular.

    ``integrand(y, d)`` is vectorized, with d the exact distance upper - y.
    Each panel is mapped onto [0, 1] and becomes one row of a single kernel
    call, singular at 1 (harmless where the integrand is smooth).  Panels also end
    at the ``breaks`` (kinks), not returned as nodes: an interpolant through a
    kink node was measured no more accurate.  Returns (nodes, cumulative values).
    """
    j = np.arange(m + 1)
    grid = upper * (1.0 - (1.0 - j / m) ** 2)
    grid[0], grid[-1] = 0.0, upper
    nodes = np.union1d(grid, [p for p in breaks if 0.0 < p < upper])
    width = np.diff(nodes)[:, None]
    gap = (upper - nodes[1:])[:, None]

    def panels(_, e):
        d = gap + e * width
        return width * integrand(upper - d, d)

    cum = np.zeros(nodes.size)
    cum[1:] = np.cumsum(integrate_sqrt_singular(panels, 0.0, 1.0, "b"))
    return grid, cum[np.isin(nodes, grid)]


def _asian_h_path(sigma: SigmaSpec, v0: float, alpha: float, branch: str, t: np.ndarray):
    """Variance-leg path log V(t) of the Asian problem with terminal log
    excursion ``alpha`` on ``branch``, by inverting t(w) = P(w)/P(alpha)."""
    log_v0 = math.log(v0)
    if branch == "atm":
        return np.full(t.size, log_v0)
    fg, breaks = _fg_integrand(sigma, branch == "above")
    w_nodes, p_cum = _cumulative_map(lambda y, d: fg(y, d)[0], alpha, breaks)
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
        return PathPair.constant(log_s0, math.log(model.v0), n)

    diag = res.diagnostics
    h = _asian_h_path(model.sigma, model.v0, diag["alpha"], diag["branch"], t)
    u_g = math.log(res.g_endpoint / model.s0)
    if u_g == 0.0:  # the budget sits at the pivot: the asset leg stays at S0
        return PathPair(t, np.full(n, log_s0), h)

    # asset leg: Theta(gamma(t)) = (den / K) * int_0^t e^h ds, Theta the cumulative num integral
    _, den = _endpoint_integrals(model, u_g)
    m_t = CubicSpline(t, np.exp(h)).antiderivative()(t)

    sgn = 1.0 if u_g > 0 else -1.0
    num_den = _endpoint_integrand(model.eta, u_g)
    breaks = [sgn * p for p in clamp_points(model.eta)]
    s_nodes, theta_cum = _cumulative_map(lambda s, d: num_den(sgn * s, d)[0], abs(u_g), breaks)
    rhs = (den / k) * m_t
    gamma = PchipInterpolator(theta_cum, s_nodes)(np.clip(rhs, 0.0, theta_cum[-1]))
    g = log_s0 + sgn * gamma
    g[0] = log_s0

    return PathPair(t, g, h)
