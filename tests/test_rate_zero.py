import json
import math
import random
import warnings

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
from varsmile.rate_zero import (
    _bracketed_root,
    _budget_legs,
    _endpoint_integrals,
    _g_leg_cost,
    _variance_leg,
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


class TestGEndpoint:
    def test_limit_is_spot(self, tanh_model):
        k = 0.12
        g = solve_g_endpoint(tanh_model, k / 1.0**2, k)
        assert abs(g - tanh_model.s0) < 1e-9

    def test_grid_scan_oracle(self, tanh_model):
        # independent bisection on the raw ratio equation, frozen value
        k, z = 0.12, 0.115
        def psi(ug):
            num, den = _endpoint_integrals(tanh_model, ug)
            return num / den - z / k

        ug = bisect(psi, -1.0, -1e-9, iters=60)
        assert abs(math.exp(ug) - 0.7189838915023) < 1e-9
        g = solve_g_endpoint(tanh_model, z, k)
        assert abs(g - math.exp(ug)) < 1e-9

    def test_constant_eta_degenerate(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        with pytest.raises(DegenerateEtaError):
            solve_g_endpoint(m, 0.11, 0.12)

    def test_search_stops_where_eta_turns_flat(self):
        # past u = -0.5 eta sits on its clamp and the endpoint integrals diverge
        k = forward_variance_limit(KINKED) * math.exp(0.25)
        with pytest.raises(InfeasibleStrikeError, match="turns flat"):
            solve_g_endpoint(KINKED, KINKED.v0, k)
        g = solve_g_endpoint(KINKED, 0.95 * k, k)  # eta(S0) = 1: the pivot is z = K
        assert math.exp(-0.5) < g < KINKED.s0

    def test_put_side(self, tanh_model):
        g = solve_g_endpoint(tanh_model, 0.085, 0.08)
        assert g > tanh_model.s0

    @pytest.mark.parametrize("route", ["newton", "bracketed"])
    def test_search_stays_inside_the_cap(self, tanh_model, route, monkeypatch):
        # at x = 3 the bracketed route's later u_G searches start from the
        # points of earlier ones; their first probe doubles the farthest
        # known point and must not pass |u_G| = 40, where cosh overflows in
        # eta's slope (a RuntimeWarning) and tanh reads as a plateau
        if route == "bracketed":
            monkeypatch.setattr("varsmile.rate_zero._NEWTON_STEPS", 0)
        probes = []

        def recorded(model, u_g):
            probes.append(u_g)
            return _endpoint_integrals(model, u_g)

        monkeypatch.setattr("varsmile.rate_zero._endpoint_integrals", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = rate_zero_rho(tanh_model, forward_variance_limit(tanh_model) * math.exp(3.0))
        assert res.diagnostics["route"] == route
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
        # no leg solve starts cold: the bracketed route takes about 30-45
        # kernel calls per strike here, the Newton route 10-16
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
            assert diag.get("route") == (None if m is const else "newton")

    def test_kernel_budget_surfaces(self, tanh_model, monkeypatch):
        # every kernel call of the Newton route is single-pass here, so a
        # one-panel budget binds only on the bracketed route, where the
        # error must surface and not be caught as a fallback
        monkeypatch.setattr("varsmile.rate_zero._NEWTON_STEPS", 0)
        monkeypatch.setattr("varsmile.numerics.MAX_PANELS", 1)
        with pytest.raises(AccuracyError):
            rate_zero_rho(tanh_model, 0.12)

    def test_constant_eta_shortcut(self):
        m = LsvModel(s0=2.0, v0=0.1, rho=0.0, eta=ConstantEta(1.2), sigma=ConstantSigma(2.0))
        k = 0.19
        res = rate_zero_rho(m, k)
        expect = asian_rate_j(m.sigma, 0.1, k / 1.2**2).value
        assert abs(res.value - expect) < 1e-12
        assert res.diagnostics.get("constant_eta")


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


def _bracketed(model, k):
    """The bracketed route's (z*, Asian solution, asset-leg tuple) at strike k."""
    return _bracketed_root(model, k, k / float(model.eta.value_log(0.0)) ** 2)[:3]


class TestNewtonRoute:
    SWEEP_X = [s * v for v in (1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.45, 0.6) for s in (1.0, -1.0)]

    def test_routes_agree(self, tanh_model, monkeypatch):
        # The bracketed route stops at absolute tolerances (1e-12 in alpha,
        # 1e-13 in u_G), which near the money leave an error of order
        # 1e-13 / |x| relative in its rate (up to 4e-10 at |x| = 1e-4); the
        # Newton route evaluates one more step, past those tolerances.
        models = {"tanh": tanh_model, "kinked": KINKED}
        models.update((f"drawn{i}", m) for i, m in enumerate(_drawn_models()))
        newton = {}
        for name, m in models.items():
            f0 = forward_variance_limit(m)
            for x in self.SWEEP_X:
                try:
                    newton[name, x] = rate_zero_rho(m, f0 * math.exp(x))
                except InfeasibleStrikeError:
                    newton[name, x] = None
        monkeypatch.setattr("varsmile.rate_zero._NEWTON_STEPS", 0)
        for (name, x), res in newton.items():
            m = models[name]
            k = forward_variance_limit(m) * math.exp(x)
            if res is None:
                with pytest.raises(InfeasibleStrikeError):
                    rate_zero_rho(m, k)
                continue
            diag = res.diagnostics
            if diag["route"] == "bracketed":
                assert diag["fallback"]
                assert not (name in ("tanh", "kinked") and abs(x) <= 0.3), (name, x, diag["fallback"])
            else:
                assert diag["route"] == "newton" and diag["fallback"] is None
            ref = rate_zero_rho(m, k)
            assert ref.diagnostics["route"] == "bracketed"
            assert abs(res.value - ref.value) <= (1e-12 + 1e-13 / abs(x)) * ref.value, (name, x)
            assert abs(res.z_star - ref.z_star) <= 1e-10, (name, x)
            assert abs(res.g_endpoint - ref.g_endpoint) <= 1e-10, (name, x)

    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("x", [0.15, -0.15, 0.3, -0.3])
    def test_newton_kernel_calls(self, tanh_model, kinked, x):
        m = KINKED if kinked else tanh_model
        res = rate_zero_rho(m, forward_variance_limit(m) * math.exp(x))
        assert res.diagnostics["route"] == "newton"
        assert res.diagnostics["kernel_calls"] <= 16

    def test_mean_kernel_calls_on_a_smile(self, tanh_model):
        # 21 strikes across |x| < 0.3: about 36 kernel calls each on the bracketed route
        f0 = forward_variance_limit(tanh_model)
        xs = [-0.3 + 0.6 * (i + 0.3) / 21 for i in range(21)]
        calls = [rate_zero_rho(tanh_model, f0 * math.exp(x)).diagnostics["kernel_calls"] for x in xs]
        assert sum(calls) / len(calls) <= 14

    @pytest.mark.parametrize("x", [-1.5, -2.0, -3.0, 1.5, 3.0])
    def test_wide_strikes_take_the_newton_route(self, tanh_model, x):
        # on the put side the seed's x^2 term puts u_G on the call side from
        # about x = -1.5, and a full first step from u_G's first-order seed
        # crosses u_G = 0; both fell back before
        k = forward_variance_limit(tanh_model) * math.exp(x)
        res = rate_zero_rho(tanh_model, k)
        assert res.diagnostics["route"] == "newton"
        z, sol, (g_end, g_cost, lam, _) = _bracketed(tanh_model, k)
        assert abs(res.value - (g_cost + sol.value)) <= 1e-12 * res.value
        assert abs(res.z_star - z) <= 1e-10 and abs(res.g_endpoint - g_end) <= 1e-10

    @pytest.mark.parametrize(
        "name, x, cap0",
        [("drawn7", 3.0, False), ("tanh", 0.15, True), ("kinked", 0.15, True)],
        ids=["drawn7-3", "tanh0.15-cap0", "kinked0.15-cap0"],
    )
    def test_fallback_is_the_bracketed_result(self, tanh_model, name, x, cap0, monkeypatch):
        # drawn model 7 at x = 3: no convergence in 12 steps; otherwise a
        # step cap of 0 leaves the Newton route no step to converge in
        m = {"tanh": tanh_model, "kinked": KINKED}.get(name) or _drawn_models()[7]
        if cap0:
            monkeypatch.setattr("varsmile.rate_zero._NEWTON_STEPS", 0)
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_zero_rho(m, k)
        assert res.diagnostics["route"] == "bracketed"
        assert res.diagnostics["fallback"].startswith("_NewtonFailure")
        z, sol, (g_end, g_cost, lam, _) = _bracketed(m, k)
        assert (res.value, res.z_star, res.g_endpoint, res.lagrange) == (g_cost + sol.value, z, g_end, lam)
        assert (res.g_cost, res.h_cost, res.diagnostics["alpha"]) == (g_cost, sol.value, sol.alpha)

    def test_kernel_error_inside_newton_falls_back(self, tanh_model, monkeypatch):
        # an AccuracyError on the Newton route's first endpoint call
        calls = []

        def failing_once(model, u_g):
            calls.append(u_g)
            if len(calls) == 1:
                raise AccuracyError("forced", estimate=0.0, error_bound=1.0)
            return _endpoint_integrals(model, u_g)

        monkeypatch.setattr("varsmile.rate_zero._endpoint_integrals", failing_once)
        k = forward_variance_limit(tanh_model) * math.exp(0.15)
        res = rate_zero_rho(tanh_model, k)
        assert res.diagnostics["route"] == "bracketed"
        assert res.diagnostics["fallback"].startswith("AccuracyError")
        z, sol, (g_end, g_cost, lam, _) = _bracketed(tanh_model, k)
        assert (res.value, res.z_star, res.g_endpoint) == (g_cost + sol.value, z, g_end)

    def test_bits_do_not_depend_on_call_order(self, tanh_model):
        f0 = forward_variance_limit(tanh_model)
        strikes = [(m, f0 * math.exp(x)) for m in (tanh_model, KINKED) for x in (0.3, -0.05, 0.15, -0.3)]

        def run(order):
            return {i: (r.value, r.z_star, r.g_endpoint, r.lagrange, r.diagnostics)
                    for i in order for r in [rate_zero_rho(*strikes[i])]}

        forward = run(range(len(strikes)))
        assert run(reversed(range(len(strikes)))) == forward
        assert run(range(len(strikes))) == forward


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
