import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    asian_rate_j,
    asian_rate_j_const,
    forward_variance_limit,
    lambda_functional,
    optimal_paths_zero_rho,
    rate_zero_rho,
    solve_g_endpoint,
)
from varsmile.errors import AccuracyError, DegenerateEtaError, InfeasibleStrikeError
from varsmile.model import eta_eval
from varsmile.numerics import integrate_sqrt_singular
from varsmile.rate_zero import (
    _budget_legs,
    _endpoint_integrals,
    _g_leg_cost,
    _variance_leg,
    asian_rate_general,
)

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
    """F and G of the Asian root condition (see ``asian_rate_general``) by
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
        sol = asian_rate_general(KINKED.sigma.value_log, zr)
        above = zr > 1.0
        assert sol.branch == ("above" if above else "below")
        assert sol.alpha > 0.3
        f, g = _fg_reference(KINKED.sigma, sol.alpha, above, [0.3])
        resid = (math.exp(sol.alpha) - zr if above else zr - math.exp(-sol.alpha)) - g / f
        assert abs(resid) <= 1e-10
        assert abs(sol.value - 0.5 * f * g) <= 1e-10 * sol.value

    @pytest.mark.parametrize("zr", [0.5, 0.9, 1.1, 3.0])
    def test_general_matches_const_shortcut(self, zr):
        sol = asian_rate_general(ConstantSigma(2.0).value_log, zr)
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


class TestGEndpoint:
    def test_limit_is_spot(self, tanh_model):
        k = 0.12
        g = solve_g_endpoint(tanh_model, k / 1.0**2, k, "call")
        assert abs(g - tanh_model.s0) < 1e-9

    def test_grid_scan_oracle(self, tanh_model):
        # independent bisection on the raw ratio equation, frozen value
        k, z = 0.12, 0.115
        def psi(ug):
            num, den = _endpoint_integrals(tanh_model, ug)
            return num / den - z / k

        ug = bisect(psi, -1.0, -1e-9, iters=60)
        assert abs(math.exp(ug) - 0.7189838915023) < 1e-9
        g = solve_g_endpoint(tanh_model, z, k, "call")
        assert abs(g - math.exp(ug)) < 1e-9

    def test_constant_eta_degenerate(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        with pytest.raises(DegenerateEtaError):
            solve_g_endpoint(m, 0.11, 0.12, "call")

    def test_search_stops_where_eta_turns_flat(self):
        # past u = -0.5 eta sits on its clamp and the endpoint integrals diverge
        k = forward_variance_limit(KINKED) * math.exp(0.25)
        with pytest.raises(InfeasibleStrikeError, match="turns flat"):
            solve_g_endpoint(KINKED, KINKED.v0, k, "call")
        g = solve_g_endpoint(KINKED, 0.95 * k, k, "call")  # eta(S0) = 1: the pivot is z = K
        assert math.exp(-0.5) < g < KINKED.s0

    def test_put_side(self, tanh_model):
        g = solve_g_endpoint(tanh_model, 0.085, 0.08, "put")
        assert g > tanh_model.s0


class TestRateZeroRho:
    def test_atm_zero(self, tanh_model):
        res = rate_zero_rho(tanh_model, 0.1)
        assert res.value == 0.0
        # past the ATM cut-off, but the pivot budget is V0 to the Asian
        # solve's precision: the bracket in alpha is the single point 0
        res = rate_zero_rho(tanh_model, 0.1 * math.exp(5e-14))
        assert res.value == 0.0 and res.z_star == 0.1 * math.exp(5e-14)

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
        from varsmile import LogPolyEta, rate_numeric

        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=LogPolyEta(*eta), sigma=sigma)
        k = forward_variance_limit(m) * math.exp(x)
        closed = rate_zero_rho(m, k).value
        numeric = rate_numeric(m, k).value
        assert abs(numeric - closed) <= 1e-4 * closed

    # Rates from a golden-section minimization of the same objective.  At
    # x = 0.25, 0.3 and -0.3 the endpoint solve is infeasible at V0 (eta turns
    # flat first), so the bracket end moves toward the pivot.
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
        # d/dz at the budget an excursion alpha fixes, against central
        # differences in z of the objective built on the Asian root J(V0, z)
        m = KINKED if kinked else tanh_model
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_zero_rho(m, k)
        above = res.diagnostics["branch"] == "above"

        def objective(z):
            return _g_leg_cost(m, z, k)[1] + asian_rate_j(m.sigma, m.v0, z).value

        slopes = {}
        for ar in (0.97, 1.0, 1.03):
            z, sol = _variance_leg(m, res.diagnostics["alpha"] * ar, above)
            if ar == 1.0:
                assert z == res.z_star and sol.value == res.h_cost
            h = 1e-6 * z
            central = (objective(z + h) - objective(z - h)) / (2.0 * h)
            slopes[z] = (_budget_legs(m, k, z, sol)[0], central)
        z_lo, z_mid, z_hi = sorted(slopes)
        for slope, central in slopes.values():
            assert abs(slope - central) <= 1e-7 * max(abs(central), abs(slopes[z_lo][0]))
        assert slopes[z_lo][0] < 0.0 < slopes[z_hi][0]
        assert abs(slopes[z_mid][0]) <= 1e-6 * abs(slopes[z_lo][0])

    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("x", [0.15, -0.15, 0.3, -0.3])
    def test_kernel_call_budget(self, tanh_model, kinked, x):
        # no leg solve starts cold: about 30-45 kernel calls per strike here
        m = KINKED if kinked else tanh_model
        res = rate_zero_rho(m, forward_variance_limit(m) * math.exp(x))
        assert res.diagnostics["kernel_calls"] <= 65

    def test_diagnostics_json_serializable(self, tanh_model):
        const = LsvModel(s0=2.0, v0=0.1, rho=0.0, eta=ConstantEta(1.2), sigma=ConstantSigma(2.0))
        for m, k, branch in ((tanh_model, 0.12, "above"), (tanh_model, 0.08, "below"), (const, 0.19, "above")):
            diag = json.loads(json.dumps(rate_zero_rho(m, k).diagnostics))
            assert diag["branch"] == branch
            assert diag["alpha"] > 0 and diag["f_value"] > 0 and diag["g_value"] > 0
            assert diag["kernel_calls"] > 0
            assert diag["derivative_evals"] >= (0 if m is const else 2)

    def test_kernel_budget_surfaces(self, tanh_model, monkeypatch):
        monkeypatch.setattr("varsmile.rate_zero.integrate_sqrt_singular",
                            functools.partial(integrate_sqrt_singular, max_panels=1))
        with pytest.raises(AccuracyError):
            rate_zero_rho(tanh_model, 0.12)

    def test_constant_eta_shortcut(self):
        m = LsvModel(s0=2.0, v0=0.1, rho=0.0, eta=ConstantEta(1.2), sigma=ConstantSigma(2.0))
        k = 0.19
        res = rate_zero_rho(m, k)
        expect = asian_rate_j(m.sigma, 0.1, k / 1.2**2).value
        assert abs(res.value - expect) < 1e-12
        assert res.diagnostics.get("constant_eta")


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
