import json
import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq, minimize_scalar

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    asian_rate_j,
    asian_rate_j_const,
    atm_expansion,
    forward_variance_limit,
    lambda_functional,
    optimal_paths_zero_rho,
    rate_bounds_rho,
    rate_numeric,
    rate_zero_rho,
)
from varsmile import rate_zero as rate_zero_module
from varsmile.errors import AccuracyError, ConvergenceError, DegenerateEtaError, NumericsError
from varsmile.model import clamp_points, eta_eval
from varsmile.rate_general import constraint_integral
from varsmile.rate_zero import AsianRateSolution, _endpoint_integrals, _flat_edge, _variance_leg

# eta 1 - 0.3u clamped to [0.85, 1.15] (flat beyond |u| = 0.5) and a clamped
# linear vol-of-vol: kinks in both legs
KINKED = LsvModel(
    s0=1.0,
    v0=0.1,
    rho=0.0,
    eta=LogPolyEta((1.0, -0.3), 0.85, 1.15),
    sigma=LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15),
)


def _fg_reference(sig, alpha, above, kinks):
    """F and G of the Asian root condition (see ``asian_rate_j``) by
    QUADPACK, split at the kinks.  The piece ending at the singular point
    y = alpha uses the QAWS rule with the weights (alpha - y)^(-1/2) for F
    and (alpha - y)^(1/2) for G."""
    s = (lambda y: float(sig.value_log(y))) if above else (lambda y: float(sig.value_log(-y)))
    half = 0.5 if above else 0.0  # F carries e^(-y/2) and G e^(y/2) above

    def ratio(y):  # expm1(d) / d at d = alpha - y, 1 at d = 0
        d = alpha - y
        return math.expm1(d) / d if d > 0.0 else 1.0

    cuts = [0.0, *kinks, alpha]
    f = g = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi == alpha:
            f += quad(lambda y: math.exp(-half * y) / (s(y) * math.sqrt(ratio(y))), lo, hi,
                      weight="alg", wvar=(0.0, -0.5), epsabs=0.0, epsrel=1e-13, limit=500)[0]
            g += quad(lambda y: math.exp(half * y) * math.sqrt(ratio(y)) / s(y), lo, hi,
                      weight="alg", wvar=(0.0, 0.5), epsabs=0.0, epsrel=1e-13, limit=500)[0]
        else:
            f += quad(lambda y: math.exp(-half * y) / (s(y) * math.sqrt(math.expm1(alpha - y))), lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=500)[0]
            g += quad(lambda y: math.exp(half * y) * math.sqrt(math.expm1(alpha - y)) / s(y), lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=500)[0]
    if not above:
        f, g = math.exp(0.5 * alpha) * f, math.exp(-0.5 * alpha) * g
    return f, g


def bisect(f, a, b, iters=80):
    fa = f(a)
    for _ in range(iters):
        c = 0.5 * (a + b)
        fc = f(c)
        if fa * fc <= 0:
            b = c
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def _geometry(model, k, z):
    """(gap_sign, side) of the asset leg at budget z: the sign of
    eta^2(u) - eta^2(u_G) along its path, -1 below the pivot K/eta(S0)^2,
    where the path raises eta, and u_G's side of S0."""
    eta0, eta1, _ = model.eta.log_coeffs()
    gap_sign = -1.0 if z * eta0**2 < k else 1.0
    return gap_sign, gap_sign if eta1 < 0.0 else -gap_sign


def _edge(model, side):
    """The nearest clamp point on ``side``, where eta turns flat, if eta is
    monotone up to it on a fine grid; None otherwise."""
    ahead = [p for p in clamp_points(model.eta) if p * side > 0.0]
    if not ahead:
        return None
    steps = np.diff(model.eta.value_log(np.linspace(0.0, min(ahead, key=abs), 2001)))
    return min(ahead, key=abs) if np.all(steps > 0.0) or np.all(steps < 0.0) else None


def _reference_asset_leg(model, k, z):
    """(u_G, cost, lam, eta(G)) of the asset leg at budget z.  u_G by brentq on
    the endpoint ratio num/den = z/K, up to the nearest clamp point u_c; past
    the ratio at u_c the path arrives at u_c and stays, at the cost
    (eta_c^2 num_c - den_c)^2 / (2 |eta_c^2 z - K|), infinite where
    eta_c^2 z falls short of K."""
    gap_sign, side = _geometry(model, k, z)

    def ratio(u):
        num, den = _endpoint_integrals(model, u, gap_sign)
        return num / den - z / k, num, den

    far = _edge(model, side)
    if far is not None:
        excess, num_c, den_c = ratio(far)
        if gap_sign * excess <= 0.0:
            eta_c = float(model.eta.value_log(far))
            gap = gap_sign * (k - eta_c**2 * z)
            if gap <= 0.0:
                return far, math.inf, math.nan, eta_c
            flat = eta_c**2 * num_c - den_c
            return far, flat**2 / (2.0 * gap), gap_sign * flat**2 / (2.0 * gap**2), eta_c
    else:
        far = side * 0.25
        while gap_sign * ratio(far)[0] < 0.0:
            far *= 2.0
            if abs(far) > 40.0:  # eta saturates first: no path meets K
                return far, math.inf, math.nan, math.nan
    u = brentq(lambda v: ratio(v)[0], side * 1e-300, far, xtol=1e-15, rtol=1e-15)
    den = ratio(u)[2]
    eta_g = float(model.eta.value_log(u))
    return u, den**2 * abs(eta_g**2 * z - k) / (2.0 * k * k), gap_sign * den**2 / (2.0 * k * k), eta_g


def _reference_rate(model, k):
    """The rho = 0 rate as a bounded minimum over the variance leg's alpha of
    the asset cost plus J, from the budget V0 (or K/eta_c^2, where the cost
    blows up, eta_c at u_c or saturated) to the pivot K/eta(S0)^2: (value, z
    at the minimum)."""
    z_pivot = k / float(model.eta.value_log(0.0)) ** 2
    above, side = z_pivot > model.v0, _geometry(model, k, model.v0)[1]
    a_hi = asian_rate_j(model.sigma, model.v0, z_pivot).alpha
    a_lo = 0.0
    edge = _edge(model, side)
    z_lo = k / float(model.eta.value_log(side * 40.0 if edge is None else edge)) ** 2
    if (z_lo - model.v0) * (z_lo - z_pivot) < 0.0:
        a_lo = brentq(lambda a: _variance_leg(model.sigma, model.v0, a, above)[0] - z_lo, 1e-300, a_hi, xtol=1e-15)

    def objective(a):
        z, sol = _variance_leg(model.sigma, model.v0, a, above)
        return _reference_asset_leg(model, k, z)[1] + sol.value

    best = minimize_scalar(objective, bounds=(a_lo, a_hi), method="bounded", options={"xatol": 1e-10})
    return best.fun, _variance_leg(model.sigma, model.v0, best.x, above)[0]


class TestAsianRate:
    def test_atm(self):
        sol = asian_rate_j(ConstantSigma(2.0), 0.1, 0.1)
        assert sol.value == 0.0 and sol.branch == "atm"

    def test_above_vs_beta_oracle(self):
        # beta solves sinh(beta)/beta = 1.2; J = (beta^2/2 - beta tanh(beta/2)) / sigma0^2
        beta = bisect(lambda b: math.sinh(b) / b - 1.2, 0.5, 2.0)
        expect = (0.5 * beta * beta - beta * math.tanh(0.5 * beta)) / 4.0
        assert abs(beta - 1.064868548091) < 1e-9
        assert abs(expect - 0.012031580049661) < 1e-12
        sol = asian_rate_j(ConstantSigma(2.0), 0.1, 0.12)
        assert abs(sol.value - expect) < 1e-12
        assert sol.branch == "above"

    def test_below_vs_xi_oracle(self):
        xi = bisect(lambda s: math.sin(2 * s) / (2 * s) - 0.8, 1e-9, math.pi / 2 - 1e-12)
        expect = 2.0 * xi * (math.tan(xi) - xi) / 4.0
        assert abs(expect - 0.019556381064981) < 1e-12
        sol = asian_rate_j(ConstantSigma(2.0), 0.1, 0.08)
        assert abs(sol.value - expect) < 1e-12
        assert sol.branch == "below"

    def test_const_solver_examples(self):
        assert asian_rate_j_const(2.0, 0.1, 0.1).value == 0.0
        sol = asian_rate_j_const(1.0, 0.1, 0.2)
        assert abs(sol.const_param - 2.177318984965) < 1e-9
        assert abs(sol.value - 0.636367494525240) < 1e-12

    def test_branch_equivalence_spot_values(self):
        for zr in (0.3, 0.5, 0.9, 1.1, 2.0, 3.0):
            a = asian_rate_j(ConstantSigma(2.0), 0.1, 0.1 * zr)
            b = asian_rate_j_const(2.0, 0.1, 0.1 * zr)
            assert abs(a.value - b.value) <= 1e-9
            assert abs(a.alpha - b.alpha) <= 1e-9

    @given(st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_branch_equivalence_property(self, zr):
        a = asian_rate_j(ConstantSigma(1.5), 0.2, 0.2 * zr)
        b = asian_rate_j_const(1.5, 0.2, 0.2 * zr)
        assert abs(a.value - b.value) <= 1e-9

    @pytest.mark.parametrize("zr", [1.6, 0.6], ids=["above", "below"])
    def test_general_solves_past_sigma_clamp(self, zr):
        # sigma = 2 + 0.5 w meets its clamps at w = +-0.3, inside the
        # excursion on either branch
        sol = asian_rate_j(KINKED.sigma, 1.0, zr)
        above = zr > 1.0
        assert sol.branch == ("above" if above else "below")
        assert sol.alpha > 0.3
        f, g = _fg_reference(KINKED.sigma, sol.alpha, above, [0.3])
        resid = (math.exp(sol.alpha) - zr if above else zr - math.exp(-sol.alpha)) - g / f
        assert abs(resid) <= 1e-10
        assert abs(sol.value - 0.5 * f * g) <= 1e-10 * sol.value

    @pytest.mark.parametrize("zr", [0.5, 0.9, 1.1, 3.0])
    def test_general_matches_const_shortcut(self, zr):
        sol = asian_rate_j(ConstantSigma(2.0), 1.0, zr)
        ref = asian_rate_j_const(2.0, 1.0, zr)
        assert sol.branch == ref.branch
        assert abs(sol.value - ref.value) <= 1e-12 * ref.value
        assert abs(sol.alpha - ref.alpha) <= 1e-12 * ref.alpha

    def test_nonconstant_sigma_runs(self):
        sig = LogPolySigma(2.0, 0.4, 0.0, clamp_lo=0.5, clamp_hi=5.0)
        sol = asian_rate_j(sig, 0.1, 0.15)
        assert sol.value > 0
        assert sol.branch == "above"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            asian_rate_j(ConstantSigma(2.0), -0.1, 0.1)
        with pytest.raises(ValueError):
            asian_rate_j_const(0.0, 0.1, 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["sigma0", "v0", "z"])
    def test_non_finite_input_named(self, arg, value):
        # z = inf overflowed the budget; nan passed the sign checks
        args = {"sigma0": 2.0, "v0": 0.1, "z": 0.12, arg: value}
        with pytest.raises(ValueError, match=f"^{arg} must be positive and finite"):
            asian_rate_j_const(**args)
        if arg != "sigma0":
            with pytest.raises(ValueError, match=f"^{arg} must be positive and finite"):
                asian_rate_j(ConstantSigma(args["sigma0"]), args["v0"], args["z"])


class TestGEndpoint:
    def test_limit_is_spot(self, tanh_model):
        # G tends to S0 at the money, along the first-order expansion u_G ~ x g1(1)
        g1 = float(atm_expansion(tanh_model).g1(1.0))
        for x in (1e-6, -1e-6):
            u_g = math.log(rate_zero_rho(tanh_model, 0.1 * math.exp(x)).g_endpoint / tanh_model.s0)
            assert abs(u_g - x * g1) <= 1e-3 * abs(x * g1)

    def test_grid_scan_oracle(self, tanh_model):
        # independent bisection on the raw ratio equation: a frozen value, and
        # at the budget of the minimizer the rate's own endpoint
        k = 0.12

        def endpoint(z):
            def psi(ug):
                num, den = _endpoint_integrals(tanh_model, ug, -1.0)
                return num / den - z / k

            return math.exp(bisect(psi, -1.0, -1e-9, iters=60))

        assert abs(endpoint(0.115) - 0.7189838915023) < 1e-9
        res = rate_zero_rho(tanh_model, k)
        assert abs(res.g_endpoint - endpoint(res.z_star)) < 1e-9

    def test_constant_eta_degenerate(self):
        # the endpoint equation divides by eta^2(G) - eta^2(u): with constant
        # eta there is no endpoint, and the rate reports none
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        res = rate_zero_rho(m, 0.12)
        assert res.g_endpoint is None and res.lagrange is None and res.g_cost == 0.0
        assert "asset_branch" not in res.diagnostics

    def test_search_stops_where_eta_turns_flat(self):
        # drawn model 20 at x = 1: no free endpoint meets the budget of the
        # minimizer, whose asset path stops at the clamp point where eta turns flat
        m = _drawn_models(60, 7)[20]
        res = rate_zero_rho(m, forward_variance_limit(m) * math.exp(1.0))
        assert res.diagnostics["asset_branch"] == "plateau"
        u_g = math.log(res.g_endpoint / m.s0)
        assert abs(u_g - _edge(m, -1.0)) <= 1e-15
        assert m.eta.dvalue_log(u_g - 1e-12) == 0.0 != m.eta.dvalue_log(u_g + 1e-12)

    def test_put_side(self, tanh_model):
        g = rate_zero_rho(tanh_model, 0.08).g_endpoint
        assert g > tanh_model.s0

    # |f1| from 0.01: a flatter eta takes the constant-eta shortcut, with no endpoint
    @given(st.floats(0.8, 1.5), st.floats(0.01, 0.5), st.sampled_from([1.0, -1.0]), st.floats(0.01, 3.0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_put_side_is_the_mirrored_call_side(self, f0, slope, gap_sign, a):
        # the endpoint integrals run over the distance from S0: at -a they are
        # those of the mirror image eta(-u) at a, bit for bit
        f1 = gap_sign * slope  # gap_sign (eta^2(u) - eta^2(u_G)) > 0 on the path, on both sides

        def model(eta):
            return LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=eta, sigma=ConstantSigma(2.0))

        put = _endpoint_integrals(model(TanhEta(f0, f1, 0.0)), -a, gap_sign)
        assert put == _endpoint_integrals(model(TanhEta(f0, -f1, 0.0)), a, gap_sign)

    def test_search_stays_inside_the_cap(self, tanh_model, monkeypatch):
        # at x = 3 no u_G the iteration probes may pass |u_G| = 40, where
        # cosh overflows in eta's slope (a RuntimeWarning) and tanh reads as
        # a plateau
        probes = []

        def recorded(model, u_g, gap_sign):
            probes.append(u_g)
            return _endpoint_integrals(model, u_g, gap_sign)

        monkeypatch.setattr("varsmile.rate_zero._endpoint_integrals", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = rate_zero_rho(tanh_model, forward_variance_limit(tanh_model) * math.exp(3.0))
        assert max(abs(u) for u in probes) <= 40.0
        assert abs(res.value - 2.2575826696791093) <= 1e-12 * res.value


class TestRateZeroRho:
    def test_atm_zero(self, tanh_model):
        res = rate_zero_rho(tanh_model, 0.1)
        assert res.value == 0.0
        # inside the ATM band |K / F_V(0) - 1| <= 1e-13, which the Asian
        # solve at the pivot budget shares
        res = rate_zero_rho(tanh_model, 0.1 * math.exp(5e-14))
        assert res.value == 0.0 and res.z_star == tanh_model.v0 and res.diagnostics["side"] == "atm"

    def test_requires_rho_zero(self, tanh_model):
        with pytest.raises(ValueError):
            rate_zero_rho(tanh_model.with_rho(0.5), 0.12)

    def test_stochastic_vol_quadratic_coefficient(self):
        # with eta == 1 the small-x rate behaves like 3/(2 sigma0^2) x^2
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        a_target = 3.0 / 8.0
        devs = []
        for x in (0.02, 0.01, 0.005):
            k = 0.1 * math.exp(x)
            devs.append(abs(rate_zero_rho(m, k).value / x**2 - a_target))
        assert devs[0] < 3e-3
        assert devs[2] < devs[0]  # shrinking toward the limit
        assert devs[2] < 8e-4

    def test_asian_reduction_eta_one(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        for kr in (0.7, 0.9, 1.1, 1.5):
            k = 0.1 * kr
            assert abs(rate_zero_rho(m, k).value - asian_rate_j_const(2.0, 0.1, k).value) <= 1e-9

    def test_upper_bound_by_asian(self, tanh_model):
        for x in (-0.15, -0.05, 0.05, 0.15):
            k = 0.1 * math.exp(x)
            res = rate_zero_rho(tanh_model, k)
            bound = asian_rate_j(tanh_model.sigma, tanh_model.v0, k).value
            assert res.value <= bound + 1e-10

    def test_nonnegative_and_monotone_in_strike(self, tanh_model):
        f0 = forward_variance_limit(tanh_model)
        calls = [rate_zero_rho(tanh_model, f0 * math.exp(x)).value for x in (0.05, 0.1, 0.15, 0.2)]
        puts = [rate_zero_rho(tanh_model, f0 * math.exp(-x)).value for x in (0.05, 0.1, 0.15, 0.2)]
        assert all(v >= 0 for v in calls + puts)
        assert all(b > a for a, b in zip(calls, calls[1:]))
        assert all(b > a for a, b in zip(puts, puts[1:]))

    def test_cost_split_sums(self, tanh_model):
        res = rate_zero_rho(tanh_model, 0.12)
        assert abs(res.g_cost + res.h_cost - res.value) <= 1e-8
        assert res.lagrange < 0  # call side multiplier sign
        put = rate_zero_rho(tanh_model, 0.08)
        assert put.lagrange > 0

    @pytest.mark.parametrize(
        "eta, sigma, x",
        [
            pytest.param(((1.0, -0.15, 0.02), 0.5, 1.6), ConstantSigma(2.0), 0.08, id="wide_clamp"),
            # clamped eta and sigma: the Hessian jumps where a path crosses a clamp
            pytest.param(((1.0, -0.3), 0.85, 1.15), LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15), 0.15,
                         id="kinked"),
            # the variance path runs into the sigma clamp at 2.15
            pytest.param(((1.0, -0.3), 0.85, 1.15), LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15), 0.3,
                         id="kinked_sigma_clamp_binds"),
        ],
    )
    def test_logpoly_leverage_consistent_with_numeric(self, eta, sigma, x):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=LogPolyEta(*eta), sigma=sigma)
        k = forward_variance_limit(m) * math.exp(x)
        closed = rate_zero_rho(m, k).value
        numeric = rate_numeric(m, k).value
        assert abs(numeric - closed) <= 1e-4 * closed

    # Rates from a golden-section minimization of the same objective.  At
    # x = 0.25, 0.3 and -0.3 no free asset endpoint meets the budget V0 (eta
    # turns flat first), but one meets the budget of the minimizer.
    @pytest.mark.parametrize(
        "x, expect",
        [
            (0.25, 0.02059790463005167),
            (0.3, 0.02908609136170523),
            (-0.2, 0.01647034415682011),
            (-0.3, 0.03884831060024585),
        ],
    )
    def test_kinked_wide_strikes_pinned(self, x, expect):
        k = forward_variance_limit(KINKED) * math.exp(x)
        assert abs(rate_zero_rho(KINKED, k).value - expect) <= 1e-9 * expect

    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("x", [0.15, -0.15])
    def test_objective_derivative(self, tanh_model, kinked, x):
        # d/dz = lam eta(G)^2 +- F^2 / (2 V0) at the budget an excursion alpha
        # fixes, against central differences in z of the objective built on
        # the test-side asset leg and the Asian root J(V0, z)
        m = KINKED if kinked else tanh_model
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_zero_rho(m, k)
        above = res.diagnostics["branch"] == "above"

        def objective(z):
            return _reference_asset_leg(m, k, z)[1] + asian_rate_j(m.sigma, m.v0, z).value

        slopes = {}
        for ar in (0.97, 1.0, 1.03):
            z, sol = _variance_leg(m.sigma, m.v0, res.diagnostics["alpha"] * ar, above)
            if ar == 1.0:
                assert z == res.z_star and sol.value == res.h_cost
            _, _, lam, eta_g = _reference_asset_leg(m, k, z)
            dj = sol.f_value**2 / (2.0 * m.v0)
            h = 1e-6 * z
            central = (objective(z + h) - objective(z - h)) / (2.0 * h)
            slopes[z] = (lam * eta_g**2 + (dj if above else -dj), central)
        z_lo, z_mid, z_hi = sorted(slopes)
        for slope, central in slopes.values():
            assert abs(slope - central) <= 1e-7 * max(abs(central), abs(slopes[z_lo][0]))
        assert slopes[z_lo][0] < 0.0 < slopes[z_hi][0]
        assert abs(slopes[z_mid][0]) <= 1e-6 * abs(slopes[z_lo][0])

    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("x", [0.15, -0.15, 0.3, -0.3])
    def test_kernel_call_budget(self, tanh_model, kinked, x):
        # two kernel calls per evaluation at a new point, the first
        # difference's included; no step of these strikes returns to a point
        # (the bound on their number is test_newton_kernel_calls)
        m = KINKED if kinked else tanh_model
        diag = rate_zero_rho(m, forward_variance_limit(m) * math.exp(x)).diagnostics
        assert diag["kernel_calls"] == 2 * diag["derivative_evals"]

    def test_diagnostics_json_serializable(self, tanh_model):
        const = LsvModel(s0=2.0, v0=0.1, rho=0.0, eta=ConstantEta(1.2), sigma=ConstantSigma(2.0))
        for m, k, branch in ((tanh_model, 0.12, "above"), (tanh_model, 0.08, "below"), (const, 0.19, "above")):
            diag = json.loads(json.dumps(rate_zero_rho(m, k).diagnostics))
            assert diag["branch"] == branch
            assert diag["alpha"] > 0 and diag["f_value"] > 0 and diag["g_value"] > 0
            assert diag["kernel_calls"] > 0
            assert diag["derivative_evals"] >= (0 if m is const else 2)
            assert diag.get("asset_branch") == (None if m is const else "free")

    def test_kernel_budget_surfaces(self, monkeypatch):
        # drawn model 25 at x = -2 makes kernel calls of more than one pass,
        # so a one-panel budget binds there, and its error must surface
        m = _drawn_models(60, 7)[25]
        k = forward_variance_limit(m) * math.exp(-2.0)
        diag = rate_zero_rho(m, k).diagnostics
        assert diag["kernel_passes"] > diag["kernel_calls"]
        monkeypatch.setattr("varsmile.numerics.MAX_PANELS", 1)
        with pytest.raises(AccuracyError):
            rate_zero_rho(m, k)

    @pytest.mark.parametrize("x", [0.15, -0.15, 0.6, -0.6, 1.5])
    def test_subnormal_leading_coefficient(self, x):
        # the u^2 coefficient 1e-310 meets each clamp a second time past the
        # float range: the model is KINKED, bit for bit
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=LogPolyEta((1.0, -0.3, 1e-310), 0.85, 1.15), sigma=KINKED.sigma)
        k = forward_variance_limit(KINKED) * math.exp(x)
        res, ref = rate_zero_rho(m, k), rate_zero_rho(KINKED, k)
        assert (res.value, res.z_star, res.g_endpoint) == (ref.value, ref.z_star, ref.g_endpoint)
        assert res.diagnostics == ref.diagnostics

    def test_constant_eta_shortcut(self):
        m = LsvModel(s0=2.0, v0=0.1, rho=0.0, eta=ConstantEta(1.2), sigma=ConstantSigma(2.0))
        k = 0.19
        res = rate_zero_rho(m, k)
        expect = asian_rate_j(m.sigma, 0.1, k / 1.2**2).value
        assert abs(res.value - expect) < 1e-12
        assert res.diagnostics.get("constant_eta")

    @pytest.mark.parametrize("eta, x, expect", [
        (LogPolyEta((0.19, 1.0), 0.2, 2.0), -0.5, 0.41794),
        (LogPolyEta((0.19, 1.0), 0.2, 2.0), 0.5, None),
        (LogPolyEta((0.5, -1.0), 0.2, 0.49), 0.5, 0.34189),
        (LogPolyEta((0.5, -1.0), 0.2, 0.49), -0.5, None),
    ], ids=["lower-clamp-put", "lower-clamp-call", "upper-clamp-call", "upper-clamp-put"])
    def test_eta_flat_on_a_clamp(self, eta, x, expect):
        # eta(S0) on a clamp: toward the strike on that clamp's side no path
        # moves eta, and the rate is the Asian rate at K/eta(S0)^2 (a
        # transcription seeded off S0 agrees to 5 digits); toward the other
        # side eta can leave its plateau, and that Asian rate is only an upper
        # bound (0.34189 against a transcription's 0.09044 for the call)
        m = LsvModel(s0=1.0, v0=1.0, rho=0.0, eta=eta, sigma=ConstantSigma(1.0))
        k = forward_variance_limit(m) * math.exp(x)
        if expect is None:
            with pytest.raises(DegenerateEtaError, match=r"only an upper bound on the rate$"):
                rate_zero_rho(m, k)
            return
        res = rate_zero_rho(m, k)
        assert res.diagnostics["constant_eta"] and round(res.value, 5) == expect
        assert res.value == asian_rate_j(m.sigma, m.v0, k / float(eta.value_log(0.0)) ** 2).value

    @pytest.mark.parametrize(
        "eta",
        [TanhEta(1.0, 0.3), LogPolyEta((1.0, 0.3, 0.05), 0.85, 1.15)],
        ids=["tanh", "logpoly"],
    )
    @pytest.mark.parametrize("x", [0.15, -0.15, 0.5, -0.5])
    def test_increasing_eta_mirrors(self, eta, x):
        # at rho = 0 the problem is symmetric under u -> -u: eta rising from
        # S0 gives the rate of its mirror image, with G mirrored about S0
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=eta, sigma=ConstantSigma(2.0))
        c = eta.coeffs if isinstance(eta, LogPolyEta) else None
        mirror = TanhEta(eta.f0, -eta.f1) if c is None else LogPolyEta(
            tuple(ci * (-1) ** i for i, ci in enumerate(c)), eta.clamp_lo, eta.clamp_hi)
        k = forward_variance_limit(m) * math.exp(x)
        res, ref = rate_zero_rho(m, k), rate_zero_rho(LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=mirror, sigma=m.sigma), k)
        assert abs(res.value - ref.value) <= 1e-12 * ref.value
        assert abs(res.g_endpoint * ref.g_endpoint - m.s0**2) <= 1e-12
        assert abs(rate_numeric(m, k).value - res.value) <= 1e-4 * res.value


def _drawn_models(n=20, seed=2024):
    """Fixed-seed models with rho = 0: tanh or clamped logpoly eta, constant
    or clamped logpoly sigma, decreasing eta at S0."""
    rng = random.Random(seed)
    models = []
    for _ in range(n):
        if rng.random() < 0.5:
            eta = TanhEta(f0=1.0, f1=-rng.uniform(0.05, 0.4), x0=rng.uniform(-0.2, 0.2))
        else:
            eta = LogPolyEta((1.0, -rng.uniform(0.1, 0.5), rng.uniform(-0.1, 0.1)),
                             rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.5))
        if rng.random() < 0.5:
            sigma = ConstantSigma(rng.uniform(0.5, 3.0))
        else:
            s0 = rng.uniform(0.8, 2.5)
            sigma = LogPolySigma(s0, rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1),
                                 s0 * rng.uniform(0.7, 0.95), s0 * rng.uniform(1.05, 1.4))
        models.append(LsvModel(s0=1.0, v0=rng.uniform(0.04, 0.2), rho=0.0, eta=eta, sigma=sigma))
    return models


class TestNewtonRoute:
    @pytest.mark.parametrize("name", ["tanh", "kinked", "drawn"])
    def test_matches_reference_minimum(self, tanh_model, name):
        # the stationary point is the minimum that a bounded search over alpha
        # finds on the test-side objective; its budget is known only to the
        # square root of the objective's rounding
        if name == "drawn":  # those whose eta is monotone up to its clamp points, as the reference needs
            monotone = [m for m in _drawn_models()
                        if None not in (_edge(m, s) for s in (-1.0, 1.0) if clamp_points(m.eta))]
            strikes = [(m, x) for m in monotone[:10] for x in (0.05, -0.05, 0.6, -0.6)]
        else:
            strikes = [(KINKED if name == "kinked" else tanh_model, x) for x in (0.05, -0.05, 0.3, -0.3, 1.0, -1.0)]
        for m, x in strikes:
            k = forward_variance_limit(m) * math.exp(x)
            res = rate_zero_rho(m, k)
            value, z = _reference_rate(m, k)
            assert abs(res.value - value) <= 1e-10 * value, (m, x)
            assert abs(res.z_star - z) <= 1e-5 * z, (m, x)

    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("x", [0.15, -0.15, 0.3, -0.3])
    def test_newton_kernel_calls(self, tanh_model, kinked, x):
        m = KINKED if kinked else tanh_model
        res = rate_zero_rho(m, forward_variance_limit(m) * math.exp(x))
        assert res.diagnostics["kernel_calls"] <= 16

    def test_mean_kernel_calls_on_a_smile(self, tanh_model):
        # 21 strikes across |x| < 0.3; three nested bracketed roots took about 36 each
        f0 = forward_variance_limit(tanh_model)
        xs = [-0.3 + 0.6 * (i + 0.3) / 21 for i in range(21)]
        calls = [rate_zero_rho(tanh_model, f0 * math.exp(x)).diagnostics["kernel_calls"] for x in xs]
        assert sum(calls) / len(calls) <= 14

    @pytest.mark.parametrize("x", [-1.5, -2.0, -3.0, 1.5, 3.0])
    def test_wide_strikes_take_the_newton_route(self, tanh_model, x):
        # on the put side the seed's x^2 term puts u_G on the call side from
        # about x = -1.5, and a full first step from u_G's first-order seed
        # crosses u_G = 0
        k = forward_variance_limit(tanh_model) * math.exp(x)
        res = rate_zero_rho(tanh_model, k)
        value, z = _reference_rate(tanh_model, k)
        assert abs(res.value - value) <= 1e-10 * value
        assert abs(res.z_star - z) <= 1e-5 * z

    @pytest.mark.parametrize(
        "seed, index, x, expect, calls, branch",
        [
            # alpha's seed would cancel to 0.33 here (first order 5.5, root 4.5)
            # at x = 4; from x = 3 the first order seeds it
            ((20, 2024), 7, 3.0, 16.8862404057449, 20, "free"),
            ((20, 2024), 7, 3.5, 22.504676220267772, 20, "free"),
            ((20, 2024), 7, 4.0, 28.922385997715025, 21, "free"),
            ((20, 2024), 7, 5.0, 44.11704362675941, 21, "free"),
            ((60, 7), 38, 5.0, 24.367572435378897, 22, "free"),
            ((60, 7), 39, 5.0, 24.5554331840219, 20, "free"),
            # a full step lands on the plateau past u_c = 0.42, while the root lies inside
            ((60, 7), 14, -3.0, 58.05239548198993, 19, "free"),
            # the plateau branch, against _reference_rate
            ((60, 7), 14, 5.0, 32.94725507293748, 14, "plateau"),
            ((60, 7), 20, 5.0, 23.20634502211056, 13, "plateau"),
            ((60, 7), 53, 4.0, 12.775899148278617, 14, "plateau"),
            ((60, 7), 53, 5.0, 19.736276149737435, 14, "plateau"),
        ],
        ids=["drawn7-3", "drawn7-3.5", "drawn7-4", "drawn7-5", "seed7-38-5", "seed7-39-5", "plateau-edge-cut",
             "seed7-14-5", "seed7-20-5", "seed7-53-4", "seed7-53-5"],
    )
    def test_slow_strikes_converge(self, seed, index, x, expect, calls, branch):
        # free: the values that three nested bracketed roots gave
        m = _drawn_models(*seed)[index]
        res = rate_zero_rho(m, forward_variance_limit(m) * math.exp(x))
        assert abs(res.value - expect) <= 1e-12 * expect
        assert res.diagnostics["kernel_calls"] == calls
        assert res.diagnostics["asset_branch"] == branch

    def test_failure_raises_convergence_error(self, tanh_model, monkeypatch):
        # a strike the step cap does not let converge raises with the last
        # iterate and both residuals
        monkeypatch.setattr("varsmile.rate_zero._NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match="no convergence in 1 steps") as info:
            rate_zero_rho(tanh_model, 0.12)
        alpha, u_g = info.value.best
        assert alpha > 0.0 > u_g
        assert info.value.diagnostics["u_g"] == u_g
        assert len(info.value.diagnostics["residuals"]) == 2

    def test_near_money_scan_solves(self, tanh_model):
        # next to the money the Jacobian can be all rounding (det = 0) at a
        # root to rounding: every strike of the scan solves, to a finite rate
        # that is positive off the ATM band
        for m in (tanh_model, KINKED, *_drawn_models(60, 7)):
            f0 = forward_variance_limit(m)
            for x in np.logspace(-13.0, -8.0, 16):
                for res in (rate_zero_rho(m, f0 * math.exp(x)), rate_zero_rho(m, f0 * math.exp(-x))):
                    assert math.isfinite(res.value) and (res.value > 0.0) == (res.diagnostics["x"] != 0.0)

    @pytest.mark.parametrize(
        "kinked, x",
        [
            # strikes of the seed-1 closed_smooth smile whose last step leaves alpha unmoved
            (False, -0.27563877951015714),
            (False, -0.10371405930164068),
            (False, 0.2509718875066049),
            *((True, x) for x in (0.15, -0.15, 0.3, -0.3)),
        ],
    )
    def test_each_point_evaluated_once(self, tanh_model, monkeypatch, kinked, x):
        # a solve evaluates each alpha and each u_G once, however often its
        # iteration, differences and roots return to it
        seen = []
        for name in ("_variance_leg", "_endpoint_integrals"):
            def spy(*args, _name=name, _fn=getattr(rate_zero_module, name)):
                seen.append((_name, *args[-2:]))  # (alpha, above) or (u_G, gap_sign)
                return _fn(*args)

            monkeypatch.setattr(rate_zero_module, name, spy)
        m = KINKED if kinked else tanh_model
        rate_zero_rho(m, forward_variance_limit(m) * math.exp(x))
        assert seen and len(set(seen)) == len(seen)

    def test_bits_do_not_depend_on_call_order(self, tanh_model):
        f0 = forward_variance_limit(tanh_model)
        strikes = [(m, f0 * math.exp(x)) for m in (tanh_model, KINKED) for x in (0.3, -0.05, 0.15, -0.3)]

        def run(order):
            return {i: (r.value, r.z_star, r.g_endpoint, r.lagrange, r.diagnostics)
                    for i in order for r in [rate_zero_rho(*strikes[i])]}

        forward = run(range(len(strikes)))
        assert run(reversed(range(len(strikes)))) == forward
        assert run(range(len(strikes))) == forward


class TestNewtonFailures:
    """Each way ``_newton_root`` gives up that an input or a tolerance
    reaches raises ConvergenceError with its reason, the last (alpha, u_G)
    as ``best`` and both as diagnostics, with the residuals."""

    @staticmethod
    def _raise(m, k, monkeypatch, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(f"varsmile.rate_zero.{name}", value)
        with pytest.raises(ConvergenceError) as info:
            rate_zero_rho(m, k)
        diag = info.value.diagnostics
        assert set(diag) == {"alpha", "u_g", "residuals"} and len(diag["residuals"]) == 2
        assert (diag["alpha"], diag["u_g"]) == info.value.best
        return str(info.value), diag["alpha"], diag["u_g"], diag["residuals"]

    def test_alpha_past_the_cap(self, tanh_model, monkeypatch):
        # the far-strike seed steps past the cap before any residual is formed
        msg, alpha, u_g, r = self._raise(tanh_model, 1e300, monkeypatch)
        assert re.search(r"alpha = 1038\.57\d* left \(0, 40\.0\]$", msg)
        assert alpha > 40.0 and u_g < -40.0 and all(map(math.isnan, r))

    def test_u_g_past_the_cap(self, tanh_model, monkeypatch):
        # steep eta and a low vol-of-vol move the asset leg further than the
        # variance leg: at the seed |u_G| is past a cap that alpha is not
        m = replace(tanh_model, eta=TanhEta(1.0, -0.4, 0.0), sigma=ConstantSigma(0.1))
        k = forward_variance_limit(m) * math.exp(0.3)
        msg, alpha, u_g, r = self._raise(m, k, monkeypatch, _LOG_CAP=0.3)
        assert re.search(r"u_G = -0\.52\d* left 0 < -1 u_G <= 0\.3 off eta's plateaus$", msg)
        assert alpha <= 0.3 < -u_g and all(map(math.isnan, r))

    def test_budget_past_the_pivot(self, monkeypatch):
        # stopped after a unit step, the budget is past the pivot K/eta(S0)^2
        m = _drawn_models(60, 7)[1]
        k = forward_variance_limit(m) * math.exp(-2.0)
        msg, _, _, r = self._raise(m, k, monkeypatch, _ALPHA_TOL=1.0, _U_TOL=1.0)
        found = re.search(r"z = (\S+) not between V0 \(excluded\) and the pivot (\S+)$", msg)
        z, pivot = map(float, found.groups())
        assert (z - pivot) * (pivot - m.v0) > 0.0  # past the pivot, away from V0
        assert all(map(math.isfinite, r))

    def test_residual_past_the_tolerance(self, tanh_model, monkeypatch):
        # steps under 2e-3 stop the iteration where E2 still misses by 0.117
        k = forward_variance_limit(tanh_model) * math.exp(-1.5)
        msg, _, _, r = self._raise(tanh_model, k, monkeypatch, _ALPHA_TOL=2e-3, _U_TOL=2e-3)
        found = re.search(r"residual (\[.*\]) exceeds (\[.*\]) at the root$", msg)
        got, allowed = map(json.loads, found.groups())
        assert got == [abs(v) for v in r] and got[1] > allowed[1]

    def test_non_finite_step_next_to_the_money(self, tanh_model, monkeypatch):
        # the Jacobian's differences are all rounding (det = 0) while z/K
        # misses by one ulp: with no residual allowed there is no step
        k = forward_variance_limit(tanh_model) * math.exp(-2.49e-10)
        msg, alpha, _, r = self._raise(tanh_model, k, monkeypatch, _ALPHA_TOL=0.0, _U_TOL=0.0)
        assert msg.endswith("non-finite step") and 0.0 < alpha < 1e-9
        assert 0.0 < max(map(abs, r)) <= 2.3e-16

    @pytest.mark.parametrize("x, constants, pattern", [
        (1.0, {"varsmile.numerics._MAX_EXPANSIONS": 0},
         r"no plateau root: no sign change after 0 expansions \(last \[1e-12, \S+\]\)$"),
        (1.5, {"varsmile.rate_zero._ALPHA_TOL": 1.0},
         r"plateau root z/K = \S+ past the junction num_c/den_c = \S+$"),
    ], ids=["no-sign-change", "outside"])
    def test_plateau_branch(self, monkeypatch, x, constants, pattern):
        # drawn model 20 takes the plateau branch from x = 1 on: u_G is held
        # at the plateau edge, and only E2' leaves a residual.  At x = 1 the
        # bracket needs one doubling from the last free iterate; at x = 1.5 a
        # root to within 1 in alpha lands on the free side of the junction
        m = _drawn_models(60, 7)[20]
        f0 = forward_variance_limit(m)
        edge = rate_zero_rho(m, f0 * math.exp(1.0)).diagnostics["u_g"]
        for name, value in constants.items():
            monkeypatch.setattr(name, value)
        msg, alpha, u_g, r = self._raise(m, f0 * math.exp(x), monkeypatch)
        assert re.search(pattern, msg)
        assert type(alpha) is float and u_g == edge and r[0] == 0.0 and r[1] != 0.0


class TestPlateauBranch:
    # drawn models (seed 7) whose clamped eta turns flat before any free asset
    # endpoint meets the budget of the minimizer
    STRIKES = [(20, 1.0), (14, 1.5), (25, 3.0), (59, 3.0), (3, 3.0)]

    @pytest.mark.parametrize("index, x", STRIKES)
    def test_matches_reference_minimum(self, index, x):
        m = _drawn_models(60, 7)[index]
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_zero_rho(m, k)
        assert res.diagnostics["asset_branch"] == "plateau"
        value, z = _reference_rate(m, k)
        assert abs(res.value - value) <= 1e-10 * value
        assert abs(res.z_star - z) <= 1e-5 * z
        # below the rate of the asset frozen at S0
        assert res.value < asian_rate_j(m.sigma, m.v0, k / float(m.eta.value_log(0.0)) ** 2).value

    @pytest.mark.parametrize("index, x", STRIKES[:2])
    def test_paths_arrive_and_stay(self, index, x):
        # the action of the paths converges at second order to the closed
        # value, and they meet the constraint, holding G from before t = 1
        m = _drawn_models(60, 7)[index]
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_zero_rho(m, k)
        errors, misses = [], []
        for n in (201, 401, 801):
            paths = optimal_paths_zero_rho(m, k, n)
            errors.append(lambda_functional(m, paths).total - res.value)
            misses.append(constraint_integral(m, paths) / k - 1.0)
            assert abs(paths.g[-1] - math.log(res.g_endpoint / m.s0)) <= 1e-15
            assert 0.01 < np.mean(paths.g == paths.g[-1]) < 0.5
        for seq in (errors, misses):
            assert 3.5 < seq[0] / seq[1] < 4.5 and 3.5 < seq[1] / seq[2] < 4.5
        assert abs(errors[-1]) <= 1e-6 * res.value and abs(misses[-1]) <= 1e-6

    @pytest.mark.parametrize(
        "clamp_hi, x",
        [
            (1.0 + 1e-8, 0.1),
            (1.0 + 1e-12, 1e-6),
            (1.0 + 1e-13, 1e-10),
            (1.0 + 1e-12, 0.01),
            (1.0 + 1e-13, 0.001),
            (1.0 + 1e-13, 0.01),
        ],
    )
    def test_edge_next_to_the_money(self, clamp_hi, x):
        # the clamp point u_c = -(clamp_hi - 1) / 0.3 lies so near S0 that 1e8 to
        # 1e13 floats of u round to one eta, and the Newton step lands far inside
        # the flat: the edge is bisected, and the strike ends in bounded time.
        # All but the first end on the plateau numerator's certificate: there
        # |eta_c^2 num_c - den_c| is rounding against the kernel's error of its terms
        eta = LogPolyEta((1.0, -0.3), 0.85, clamp_hi)
        edge = _flat_edge(eta, -(clamp_hi - 1.0) / 0.3)
        assert eta.dvalue_log(edge) != 0.0 == eta.dvalue_log(np.nextafter(edge, -1.0))
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=eta, sigma=ConstantSigma(2.0))
        k = forward_variance_limit(m) * math.exp(x)
        try:
            res = rate_zero_rho(m, k)
        except NumericsError as exc:
            assert re.match(r"rate_zero_rho at K = \S+: \S", str(exc))  # names its reason
            return
        # eta runs from 1 at S0 up to clamp_hi: the rate lies between those of the frozen asset
        frozen = [rate_zero_rho(replace(m, eta=ConstantEta(e)), k).value for e in (clamp_hi, 1.0)]
        assert frozen[0] <= res.value <= frozen[1]

    def test_no_edge_past_an_interior_extremum(self):
        # eta = 1 - 0.3 u - 0.5 u^2 peaks at u = -0.3 and meets its lower clamp 0.5
        # at u_c = -0.3 -+ sqrt(1.09): eta is not monotone from S0 to the negative
        # u_c, so that side has no plateau edge; the positive side's edge is an
        # ulp inside its u_c
        eta = LogPolyEta((1.0, -0.3, -0.5), 0.5, 1.2)
        below, above = clamp_points(eta)
        assert below < -0.3 < 0.0 < above
        assert _flat_edge(eta, below) is None
        edge = _flat_edge(eta, above)
        assert edge == 0.7440306508910549
        assert eta.dvalue_log(edge) != 0.0 == eta.dvalue_log(np.nextafter(edge, 1.0))

    @pytest.mark.parametrize("clamp_hi", [1.0 + 1e-11, 1.0 + 1e-12, 1.0 + 1e-13])
    def test_rounding_numerator_refused(self, clamp_hi):
        # |eta_c^2 num_c - den_c| is 6.7e-12 to 6.6e-14 of den_c here, below the
        # kernel's 1e-10 relative error on either term, and the rates it gave
        # fell outside those of the asset frozen at either end of eta's range
        eta = LogPolyEta((1.0, -0.3), 0.85, clamp_hi)
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=eta, sigma=ConstantSigma(2.0))
        with pytest.raises(ConvergenceError, match=r"plateau numerator \|eta_c\^2 num_c - den_c\| = \S+ not above"):
            rate_zero_rho(m, forward_variance_limit(m) * math.exp(0.3))

    def test_reports_solved_u_g(self):
        # u_g is the endpoint as solved, plain JSON: the plateau edge next to
        # the nearest clamp point, or a free endpoint with G = S0 e^u_g exactly
        plateau = 0
        for m in _drawn_models(60, 7):
            f0 = forward_variance_limit(m)
            for x in (0.05, 0.3, 0.6, 1.0, 1.5, 2.0, 3.0):
                for res in (rate_zero_rho(m, f0 * math.exp(x)), rate_zero_rho(m, f0 * math.exp(-x))):
                    u_g = res.diagnostics["u_g"]
                    assert json.loads(json.dumps(res.diagnostics))["u_g"] == u_g
                    if res.diagnostics["asset_branch"] == "plateau":
                        plateau += 1
                        u_c = _edge(m, math.copysign(1.0, u_g))
                        assert u_g == _flat_edge(m.eta, u_c)
                        assert abs(u_g - u_c) <= 1e-14 * abs(u_c) and m.eta.dvalue_log(u_g) != 0.0
                    else:
                        assert m.s0 * math.exp(u_g) == res.g_endpoint
        assert plateau == 22

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_bounds_stay_ordered(self, rho):
        for index, x in self.STRIKES[:2]:
            m = _drawn_models(60, 7)[index]
            b = rate_bounds_rho(m.with_rho(rho), forward_variance_limit(m) * math.exp(x))
            assert 0.0 < b.lower <= b.best_upper


class TestOptimalPaths:
    def test_atm_constant(self, tanh_model):
        paths = optimal_paths_zero_rho(tanh_model, 0.1)
        assert np.all(paths.g == math.log(tanh_model.s0))
        assert np.all(paths.h == math.log(tanh_model.v0))

    @pytest.mark.parametrize("k", [0.12, 0.08])
    def test_action_matches_rate(self, tanh_model, k):
        res = rate_zero_rho(tanh_model, k)
        paths = optimal_paths_zero_rho(tanh_model, k)
        assert paths.n == 401
        total = lambda_functional(tanh_model, paths).total
        assert abs(total - res.value) <= 1e-5

    @pytest.mark.parametrize("k", [0.12, 0.08])
    def test_constraint_residual(self, tanh_model, k):
        paths = optimal_paths_zero_rho(tanh_model, k)
        integrand = np.exp(paths.h) * np.asarray(eta_eval(tanh_model, np.exp(paths.g))) ** 2
        resid = simpson(integrand, x=paths.t) - k
        assert abs(resid) <= 1e-6 * k

    def test_call_g_decreasing(self, tanh_model):
        paths = optimal_paths_zero_rho(tanh_model, 0.12)
        assert np.all(np.diff(paths.g) <= 1e-12)
        assert np.all(np.diff(paths.h) >= -1e-12)

    def test_endpoint_slopes_vanish(self, tanh_model):
        paths = optimal_paths_zero_rho(tanh_model, 0.12)
        dg = np.diff(paths.g) / paths.dt
        dh = np.diff(paths.h) / paths.dt
        # last-interval slope is an O(dt) fraction of the peak slope
        assert abs(dg[-1]) <= 0.02 * np.max(np.abs(dg))
        assert abs(dh[-1]) <= 0.02 * np.max(np.abs(dh))

    def test_boundary_values_exact(self, tanh_model):
        paths = optimal_paths_zero_rho(tanh_model, 0.08)
        assert paths.g[0] == math.log(tanh_model.s0)
        assert paths.h[0] == math.log(tanh_model.v0)

    def test_constant_eta_rejected(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        with pytest.raises(DegenerateEtaError):
            optimal_paths_zero_rho(m, 0.12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AsianRateSolution(-1.0, "above"), "asian rate must be nonnegative"),
        (lambda: optimal_paths_zero_rho(KINKED.with_rho(0.5), 0.12), "optimal_paths_zero_rho requires rho = 0"),
    ],
    ids=["negative-asian-rate", "paths-off-rho-zero"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
