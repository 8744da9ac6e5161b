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
iteration and secant updates carry it; a step that would cross alpha = 0,
u_G = 0 or the plateau edge u_c is cut short.  On a clamped eta the
budget can lie past what any free endpoint meets: the asset path then
arrives at u_c, where eta turns flat, and stays there at a closed cost
(the plateau branch), and a bracketed root in alpha alone ends it.  A root
is accepted only with a certificate, and ConvergenceError says why when
there is none.  Integrals over one interval (F and G; the two endpoint
integrals; all panels of a cumulative time map) share one call of the
vectorized kernel ``integrate_sqrt_singular``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .atm import atm_expansion
from .errors import BracketError, ConvergenceError, DegenerateEtaError, check_finite
from .model import ATM_REL_TOL, LsvModel, SigmaSpec, _horner, clamp_points, log_moneyness, real_roots
from .numerics import (
    REL_TOL,
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
    "rate_zero_rho",
    "optimal_paths_zero_rho",
]

CONST_ETA_REL_TOL = 1e-12


def _eta_flat(model: LsvModel, x: float) -> bool:
    """eta is flat at S0 (constant, or relative slope below CONST_ETA_REL_TOL):
    the endpoint equation degenerates (it divides by eta^2(G) - eta^2(x)).  The
    rate at log-moneyness x is then the Asian rate at K/eta(S0)^2 if eta is
    constant or eta(S0) is its clamp toward the strike (the upper one for
    calls), to that tolerance; elsewhere that is only an upper bound."""
    eta = model.eta
    eta0, eta1, _ = eta.log_coeffs()
    if not (eta.is_constant or abs(eta1) < CONST_ETA_REL_TOL * abs(eta0)):
        return False
    clamp = eta.clamp_hi if x > 0 else eta.clamp_lo
    if eta.is_constant or abs(clamp - eta0) <= CONST_ETA_REL_TOL * eta0:
        return True
    raise DegenerateEtaError(f"eta is flat at S0 (eta(S0) = {eta0!r}) but not on its clamp {clamp!r} toward the "
                             "strike: J(V0, K/eta(S0)^2) is only an upper bound on the rate")


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
    f, g = integrate_sqrt_singular(fg, alpha, breaks)
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


def _asian_seed(zr: float) -> float:
    """First probe of the Asian root in the terminal log excursion alpha at
    budget ratio zr: just past the constant vol-of-vol root, 1.1 times its
    distance from the lower bound |log zr|."""
    lo = abs(math.log(zr))
    return lo + 1.1 * (_const_sigma_root(zr)[1] - lo)


def asian_rate_j(sigma: SigmaSpec, v0: float, z: float) -> AsianRateSolution:
    """J(V0, z): the variance-leg rate, the least energy of h with
    (1/V0) int e^h dt = z/V0, by quadrature plus root finding.

    The root is the terminal log excursion alpha whose budget
    (``_variance_leg``) is z.  It is bracketed from |log(z/V0)| upward, with
    the first probe just past the constant vol-of-vol root, so it does not run
    far past the root (across a clamp kink, say) when sigma varies slowly.
    """
    check_finite(positive=True, v0=v0, z=z)
    zr = z / v0
    if abs(zr - 1.0) <= ATM_REL_TOL:
        return AsianRateSolution(0.0, "atm")

    above = zr > 1.0
    sign = 1.0 if above else -1.0

    @functools.cache  # find_root evaluates again the ends bracket_root returns
    def leg(alpha):
        return _variance_leg(sigma, v0, alpha, above)

    def phi(alpha):
        return sign * (leg(alpha)[0] - z) / v0

    lo = abs(math.log(zr))  # e^alpha >= zr (above) or e^-alpha <= zr (below) at the root
    alpha = find_root(phi, bracket_root(phi, lo, _asian_seed(zr)), tol=1e-13)
    return leg(alpha)[1]


def asian_rate_j_const(sigma0: float, v0: float, z: float) -> AsianRateSolution:
    """J(V0, z) for constant vol-of-vol, via the transcendental shortcuts.

    z above V0: beta solves sinh(beta)/beta = z/V0 and
    J = (beta^2/2 - beta tanh(beta/2)) / sigma0^2.  z below V0: xi in
    [0, pi/2] solves sin(2 xi)/(2 xi) = z/V0 and J = 2 xi (tan xi - xi) / sigma0^2.
    Quadrature-free, used as the independent check of the general route.
    """
    check_finite(positive=True, sigma0=sigma0, v0=v0, z=z)
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


def _endpoint_integrand(eta, u_g: float, gap_sign: float):
    """Integrand rows (num, den) of the endpoint equation in the distance
    s = |u| from S0 on u_G's side, given dist = |u_g| - s = |u_g - u|, and
    its breaks, eta's clamp points mirrored to that side.  The gap under the
    roots is gap_sign (eta^2(u) - eta^2(u_g)), positive on the path:
    gap_sign is -1 in the call geometry, where eta rises from eta(S0) toward
    eta(G), and +1 in the put geometry."""
    e_g = eta.value_log(u_g)
    side = 1.0 if u_g > 0 else -1.0

    def num_den(s, dist):
        u = side * s
        e = eta.value_log(u)
        # formed as a difference with the exact u - u_g: no cancellation as u -> u_g
        gap = gap_sign * eta.diff_log(u, u_g, delta=-side * dist) * (e + e_g)
        root = np.sqrt(np.maximum(gap, 5e-324))
        return np.array([1.0 / (e * root), e / root])

    return num_den, tuple(side * p for p in clamp_points(eta))


def _endpoint_integrals(model: LsvModel, u_g: float, gap_sign: float):
    """The two integrals of the endpoint equation between S0 and u_g.

    Returned positively oriented; their ratio num/den equals z/K at the
    solution.  Both come from one kernel call.
    """
    num_den, breaks = _endpoint_integrand(model.eta, u_g, gap_sign)
    num, den = integrate_sqrt_singular(num_den, abs(u_g), breaks)
    return float(num), float(den)


def _flat_edge(eta, u_c: float) -> Optional[float]:
    """The plateau edge before the clamp point u_c, the nearest one on its
    side of S0: the last point there before eta turns flat, if eta is
    monotone from S0 to it.  None past an interior extremum of eta, where the
    free endpoint reaches every feasible budget."""
    if any(0.0 < t / u_c < 1.0 for t in real_roots(eta.slope_coeffs)):
        return None
    # one Newton step lands near the edge; if eta is flat there, bisect [u_c, 0] to the first float off the flat
    u_c -= float(_horner(u_c, eta.coeffs) - eta.value_log(u_c)) / float(_horner(u_c, eta.slope_coeffs))
    lo, hi = u_c, (0.0 if eta.dvalue_log(u_c) == 0.0 else u_c)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if eta.dvalue_log(mid) == 0.0 else (lo, mid)
    return hi


def _asset_leg(model: LsvModel, z: float, k: float, u_g: float, gap_sign: float, speed: float, scale: float):
    """Asset-leg tuple (G, cost, lam, eta(G)) at budget z and endpoint u_G.

    The optimal path runs at the speed constant sqrt(2 |lam|) = speed /
    scale: den / K on the free branch, with den the endpoint integral at
    u_G, and |eta_c^2 num_c - den_c| / |eta_c^2 z - K| on the plateau branch
    (u_G = u_c).  The cost is |lam| |eta(G)^2 z - K| and lam has the sign of
    the gap, negative in the call geometry.
    """
    eta_g = float(model.eta.value_log(u_g))
    gap = eta_g**2 * z - k
    cost = speed * speed * abs(gap) / (2.0 * scale * scale)
    lam = gap_sign * speed * speed / (2.0 * scale * scale)
    return model.s0 * math.exp(u_g), cost, lam, eta_g


def _variance_leg(sigma: SigmaSpec, v0: float, alpha: float, above: bool):
    """Budget z and Asian solution of the variance leg whose terminal log
    excursion is ``alpha`` > 0 on the above (z > V0) or below branch.

    One endpoint-integral call gives F and G; the Asian root condition then
    fixes z = V0 (e^alpha - G/F) above and V0 (e^-alpha + G/F) below, with
    J = F G / 2.  No root is solved.
    """
    f, g = _fg(sigma, alpha, above)
    z = v0 * (math.exp(alpha) - g / f if above else math.exp(-alpha) + g / f)
    return z, AsianRateSolution(0.5 * f * g, "above" if above else "below", alpha=alpha, f_value=f, g_value=g)


# Largest alpha and |u_G| the iteration steps to: past it eta or sigma is
# taken as saturated.
_LOG_CAP = 40.0
# Steps of at most these sizes end the iteration in alpha and in u_G.
_ALPHA_TOL, _U_TOL = 1e-12, 1e-13
# The free iteration takes at most this many steps (the slowest strike of
# the measured sweeps, drawn model 7 of the tests at x = 3, takes 15); its
# Jacobian starts from differences at this relative step.
_NEWTON_STEPS = 24
_FD_REL_STEP = 1e-6
# The plateau numerator |eta_c^2 num_c - den_c| must exceed the kernel's
# accepted error of its terms, REL_TOL (eta_c^2 num_c + den_c), this many
# times, so that it keeps a correct digit; the plateau strikes of the
# measured sweeps exceed that error 1.9e8 times or more.
_PLATEAU_MARGIN = 10.0


def _newton_root(model: LsvModel, k: float, x: float, z_pivot: float):
    """Stationary point of the rho = 0 objective as the root of two equations
    in the variance leg's terminal log excursion alpha and the asset leg's
    endpoint u_G = log(G/S0):

        E1:  z(alpha) / K = num(u_G) / den(u_G)
        E2:  log(F(alpha) / sqrt(V0)) = log(den(u_G) eta(u_G) / K)

    E1 is the endpoint equation at the budget z that alpha fixes
    (``_variance_leg``); E2 is the vanishing slope lam eta(G)^2 + F^2 / (2 V0)
    (minus below V0) of the objective, in logs (envelope theorem).  Each
    equation is an alpha part minus a u_G part, so one evaluation is one
    ``_fg`` call and one ``_endpoint_integrals`` call, and each Jacobian
    column is a secant in its own variable: Broyden's secant condition, kept
    column by column.  Both parts and the plateau edge are cached for this
    solve (``functools.cache``): a point reached again costs no kernel call.
    u_G lies on the side of S0 where eta rises (call geometry, z below the
    pivot) or falls (put geometry): the sign of eta's slope at S0 fixes it
    once.  The seed is the second-order expansion of both endpoints at t = 1
    (``atm.atm_expansion``), with the first-order term alone where the second
    order puts u_G on the other side of S0, or is more than half alpha's first
    order (and can cancel it); the first columns are differences at one point
    moved toward the money.

    A step that would cross alpha = 0, u_G = 0 or the plateau edge u_c
    (``_flat_edge``) is cut to half the way there.  But when a step heads
    past u_c and the alpha column predicts z/K past num_c/den_c, the endpoint
    integrals at u_c, no free endpoint meets the budget: the asset path
    arrives at u_c before the end and stays there.  u_G is then fixed at u_c,
    and the one equation in alpha left is E2 with the plateau cost
    C(z) = (eta_c^2 num_c - den_c)^2 / (2 |eta_c^2 z - K|):

        E2':  F(alpha) / sqrt(V0) = eta_c |eta_c^2 num_c - den_c| / |eta_c^2 z - K|

    with |eta_c^2 z - K| taken to the left side, where E2' is smooth.  Its
    residual tends to -1 as alpha -> 0 (F -> 0) and rises through the root,
    which ``bracket_root`` brackets from the last free iterate and
    ``find_root`` roots to 1e-12.  The free iteration stops after a step of at
    most 1e-12 in alpha and 1e-13 in u_G, at a point whose residuals are within
    those tolerances times the first differences' slopes (from such a point a
    singular Jacobian takes a zero step).  Either root needs z between V0 and
    the pivot and every value finite, the plateau root z/K not past the
    junction num_c/den_c and, before it is sought, a numerator
    |eta_c^2 num_c - den_c| above _PLATEAU_MARGIN times the kernel's error of
    its terms.  Returns (z, Asian solution, ``_asset_leg`` tuple,
    u_G, evaluations, "free" or "plateau"), or raises ConvergenceError with
    the last (alpha, u_G) and both residuals.
    """
    above = z_pivot > model.v0
    gap_sign = -1.0 if above else 1.0
    side = gap_sign if model.eta.log_coeffs()[1] < 0.0 else -gap_sign
    nearest = min((p for p in clamp_points(model.eta) if p * side > 0.0), key=abs, default=None)

    @functools.cache  # (u_c, num_c, den_c) of the nearest clamp point; () if eta turns first
    def plateau_edge():
        u_c = _flat_edge(model.eta, nearest)
        return () if u_c is None else (u_c, *_endpoint_integrals(model, u_c, gap_sign))

    exp = atm_expansion(model)
    a1, a2 = x * float(exp.h1(1.0)), x * x * float(exp.h2(1.0))
    alpha = abs(a1 + a2) if abs(a2) <= 0.5 * abs(a1) else abs(a1)  # far out a2 can cancel a1
    u = x * float(exp.g1(1.0)) + x * x * float(exp.g2(1.0))
    if side * u <= 0.0:  # far from the money the x^2 term can outgrow the first
        u = x * float(exp.g1(1.0))
    if nearest is not None and side * (u - nearest) >= 0.0 and plateau_edge():
        u = 0.5 * plateau_edge()[0]  # a seed past the plateau edge goes half the way there
    sqrt_v0 = math.sqrt(model.v0)
    r = np.full(2, math.nan)

    def fail(reason):
        return ConvergenceError(
            f"rate_zero_rho at K = {k!r}: {reason}",
            best=(alpha, u),
            diagnostics={"alpha": alpha, "u_g": u, "residuals": r.tolist()},
        )

    @functools.cache
    def variance_part(a):
        if not 0.0 < a <= _LOG_CAP:
            raise fail(f"alpha = {a!r} left (0, {_LOG_CAP}]")
        z, sol = _variance_leg(model.sigma, model.v0, a, above)
        return np.array([z / k, math.log(sol.f_value / sqrt_v0)]), (z, sol)

    @functools.cache
    def asset_part(u_g):
        if not 0.0 < side * u_g <= _LOG_CAP or model.eta.dvalue_log(u_g) == 0.0:
            raise fail(f"u_G = {u_g!r} left 0 < {side:+.0f} u_G <= {_LOG_CAP} off eta's plateaus")
        num, den = _endpoint_integrals(model, u_g, gap_sign)
        return np.array([num / den, math.log(den * float(model.eta.value_log(u_g)) / k)]), den

    def certified(z, sol, den, leg):
        # next to the money z can round past the pivot by an ulp or so
        past_pivot = abs(z - model.v0) > abs(z_pivot - model.v0) + 4.0 * math.ulp(z_pivot)
        if not 0.0 < (z - model.v0) / (z_pivot - model.v0) or past_pivot:
            raise fail(f"z = {z!r} not between V0 (excluded) and the pivot {z_pivot!r}")
        if not all(map(math.isfinite, (z, sol.value, sol.f_value, sol.g_value, den, *leg))):
            raise fail("non-finite value at the root")
        return leg

    # E = a_val - u_val; the differences step toward the money, inside the
    # domain, and go half the way there where a relative step is lost in
    # rounding (next to the money)
    a_val, u_val = variance_part(alpha)[0], asset_part(u)[0]
    for rel in (_FD_REL_STEP, 0.5):
        da, du = rel * alpha, rel * u
        col_a = (a_val - variance_part(alpha - da)[0]) / da
        col_u = (asset_part(u - du)[0] - u_val) / du
        if np.all(col_a) and np.all(col_u):
            break
    # the residual the stopping tolerances allow, through the slopes that the
    # differences measure (the secant updates do not enter it)
    allowed = np.abs(col_a) * _ALPHA_TOL + np.abs(col_u) * _U_TOL
    evals = 2
    for _ in range(_NEWTON_STEPS):
        r = a_val - u_val
        det = float(col_a[0] * col_u[1] - col_u[0] * col_a[1])
        if det:
            step_a = float(col_u[0] * r[1] - col_u[1] * r[0]) / det
            step_u = float(col_a[1] * r[0] - col_a[0] * r[1]) / det
        else:  # next to the money the Jacobian can be all rounding: no step from a root to rounding
            step_a = step_u = 0.0 if np.all(np.abs(r) <= allowed) else math.nan
        if not (math.isfinite(step_a) and math.isfinite(step_u)):
            raise fail("non-finite step")
        barriers = [(-alpha, step_a), (-u, step_u)]
        if nearest is not None and side * (u + step_u - nearest) >= 0.0 and plateau_edge():
            u_c, num_c, den_c = plateau_edge()
            if gap_sign * (a_val[0] + col_a[0] * step_a - num_c / den_c) >= 0.0:
                break  # the step takes z/K past the edge's ratio: the plateau branch
            barriers.append((u_c - u, step_u))
        # a step past a barrier is cut to go half the way there
        cut = 1.0
        for gap, step in barriers:
            if gap * step > 0.0 and abs(step) >= abs(gap):
                cut = min(cut, 0.5 * abs(gap / step))
        step_a, step_u = cut * step_a, cut * step_u
        alpha, u = alpha + step_a, u + step_u
        a_new, u_new = variance_part(alpha)[0], asset_part(u)[0]
        evals += 1
        if abs(step_a) <= _ALPHA_TOL and abs(step_u) <= _U_TOL:
            # the certificate; asset_part has checked u_G's side, cap and plateau
            r = a_new - u_new
            if np.any(np.abs(r) > allowed):
                raise fail(f"residual {np.abs(r).tolist()} exceeds {allowed.tolist()} at the root")
            (z, sol), den = variance_part(alpha)[1], asset_part(u)[1]
            return z, sol, certified(z, sol, den, _asset_leg(model, z, k, u, gap_sign, den, k)), u, evals, "free"
        # a secant over a step shorter than the first difference's is mostly rounding
        if abs(step_a) > da:
            col_a = (a_new - a_val) / step_a
        if abs(step_u) > abs(du):
            col_u = (u_val - u_new) / step_u
        a_val, u_val = a_new, u_new
    else:
        raise fail(f"no convergence in {_NEWTON_STEPS} steps")

    # plateau branch: u_G = u_c, and E2' in alpha alone, in the form
    # (F / sqrt(V0)) w K / (eta_c |eta_c^2 num_c - den_c|) = 1 with
    # w = |eta_c^2 z/K - 1|, signed positive where a path meets K
    u = u_c
    eta_c = float(model.eta.value_log(u_c))
    flat = abs(eta_c**2 * num_c - den_c)
    bound = _PLATEAU_MARGIN * REL_TOL * (eta_c**2 * num_c + den_c)
    if flat <= bound:
        raise fail(f"plateau numerator |eta_c^2 num_c - den_c| = {flat!r} not above {bound!r}, "
                   f"{_PLATEAU_MARGIN:g} times the kernel's error of its terms")
    known = variance_part.cache_info().currsize

    def e2(a):
        z_k, log_f = variance_part(a)[0].tolist()
        return math.exp(log_f) * k / (eta_c * flat) * gap_sign * (1.0 - eta_c**2 * z_k) - 1.0

    try:
        alpha = find_root(e2, bracket_root(e2, _ALPHA_TOL, alpha), tol=_ALPHA_TOL)
    except BracketError as exc:
        r = np.array([0.0, e2(alpha)])
        raise fail(f"no plateau root: {exc}") from None
    r = np.array([0.0, e2(alpha)])
    (z_k, _), (z, sol) = variance_part(alpha)
    if gap_sign * (z_k - num_c / den_c) < 0.0:
        raise fail(f"plateau root z/K = {float(z_k)!r} past the junction num_c/den_c = {num_c / den_c!r}")
    gap = eta_c**2 * z - k
    if abs(gap) <= 4.0 * math.ulp(k):  # the plateau speed would divide by rounding, or by 0
        raise fail(f"plateau gap eta_c^2 z - K = {gap!r} is rounding against K = {k!r}")
    leg = _asset_leg(model, z, k, u_c, gap_sign, flat, abs(gap))
    return z, sol, certified(z, sol, flat, leg), u_c, evals + variance_part.cache_info().currsize - known, "plateau"


def rate_zero_rho(model: LsvModel, k: float) -> RateResult:
    """Closed-form rate function at rho = 0: the infimum over the variance
    budget z of the asset-leg cost plus J(V0, z).

    The minimizer is the stationary point that ``_newton_root`` solves, with
    the asset leg on its free or its plateau branch; z*, J, F, G, the cost
    and lam all come from its final evaluation.  A strike it cannot certify
    raises ConvergenceError, and an AccuracyError of the quadrature kernel
    passes through.  Where eta is flat at S0 (``_eta_flat``) the rate is
    J(V0, K/eta(S0)^2), or DegenerateEtaError where eta can leave S0's plateau.

    The diagnostics are plain JSON: the variance leg's ``alpha``,
    ``branch``, ``f_value``, ``g_value``; the asset leg's ``asset_branch``
    ("free" or "plateau") and its endpoint ``u_g`` = log(G/S0) as solved
    (the plateau edge u_c on that branch), or ``constant_eta``;
    ``derivative_evals`` (evaluations of the system); ``kernel_calls`` and
    ``kernel_passes`` (quadrature kernel calls made by this rate and their
    passes).
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
        if _eta_flat(model, x):
            z_star, sol = z_pivot, asian_rate_j(model.sigma, model.v0, z_pivot)
            g_end, g_cost, lam, evals, leg_fields = None, 0.0, None, 0, {"constant_eta": True}
        else:
            z_star, sol, (g_end, g_cost, lam, _), u_g, evals, asset_branch = _newton_root(model, k, x, z_pivot)
            leg_fields = {"asset_branch": asset_branch, "u_g": u_g}
        diagnostics = {
            "x": x,
            "side": side,
            "alpha": sol.alpha,
            "branch": sol.branch,
            "f_value": sol.f_value,
            "g_value": sol.g_value,
            **leg_fields,
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


_MAP_STEPS = 160


def _inverted_map(start: float, sign: float, upper: float, integrand, breaks, target):
    """A leg's path start + sign s(T) on the time grid: s in [0, upper]
    inverts the cumulative map Theta(s) of ``integrand``'s first row, at
    T = target(Theta(upper)) clipped to [0, Theta(upper)]; node 0 is start.

    ``integrand(y, d)`` is vectorized, with d the exact distance upper - y.
    Theta is tabulated at ``_MAP_STEPS + 1`` nodes clustered toward
    ``upper``, where the integrand may be singular, and inverted by PCHIP.
    Each panel is mapped onto [0, 1] and becomes one row of a single kernel
    call, singular at 1 (harmless where the integrand is smooth).  Panels
    also end at the ``breaks`` (kinks), not kept as nodes: an interpolant
    through a kink node was measured no more accurate.
    """
    j = np.arange(_MAP_STEPS + 1)
    grid = upper * (1.0 - (1.0 - j / _MAP_STEPS) ** 2)
    grid[0], grid[-1] = 0.0, upper
    nodes = np.union1d(grid, [p for p in breaks if 0.0 < p < upper])
    width = np.diff(nodes)[:, None]
    gap = (upper - nodes[1:])[:, None]

    def panels(_, e):
        d = gap + e * width
        return width * integrand(upper - d, d)[0]

    cum = np.zeros(nodes.size)
    cum[1:] = np.cumsum(integrate_sqrt_singular(panels, 1.0))
    cum = cum[np.isin(nodes, grid)]
    path = start + sign * PchipInterpolator(cum, grid)(np.clip(target(cum[-1]), 0.0, cum[-1]))
    path[0] = start
    return path


def optimal_paths_zero_rho(model: LsvModel, k: float, n: int = 401) -> PathPair:
    """Optimal (g, h) paths of the rho = 0 problem on a uniform n-point grid.

    h is recovered by inverting its implicit time map; g then follows from its
    own implicit equation driven by the running integral of e^h.  Endpoint
    slopes vanish by construction.
    """
    if model.rho != 0.0:
        raise ValueError("optimal_paths_zero_rho requires rho = 0")
    res = rate_zero_rho(model, k)
    if "constant_eta" in res.diagnostics:
        raise DegenerateEtaError("optimal paths need non-constant eta")
    return _paths_from_rate(model, res, n)


def _paths_from_rate(model: LsvModel, res: RateResult, n: int) -> PathPair:
    """The optimal paths of ``optimal_paths_zero_rho`` from its solved rate."""
    t = np.linspace(0.0, 1.0, n)
    log_s0 = math.log(model.s0)
    if res.value == 0.0:
        return PathPair.constant(log_s0, math.log(model.v0), n)

    diag = res.diagnostics
    # variance leg: t(w) = P(w) / P(alpha), P the cumulative F integral
    sign = 1.0 if diag["branch"] == "above" else -1.0
    h = _inverted_map(math.log(model.v0), sign, diag["alpha"], *_fg_integrand(model.sigma, sign > 0), lambda p: t * p)

    # asset leg: Theta(gamma(t)) = sqrt(2 |lam|) int_0^t e^h ds, Theta the
    # cumulative num integral; on the plateau branch Theta reaches num_c
    # before t = 1, and the clip holds the path at u_c from there
    rhs = math.sqrt(2.0 * abs(res.lagrange)) * CubicSpline(t, np.exp(h)).antiderivative()(t)
    u_g = diag["u_g"]
    g = _inverted_map(log_s0, 1.0 if u_g > 0 else -1.0, abs(u_g),
                      *_endpoint_integrand(model.eta, u_g, math.copysign(1.0, res.lagrange)), lambda _: rhs)
    return PathPair(g, h)
