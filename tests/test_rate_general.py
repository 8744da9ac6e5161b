import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LsvModel,
    NumericOptions,
    PathPair,
    TanhEta,
    asian_rate_j,
    asian_rate_j_const,
    atm_expansion,
    expansion_paths,
    forward_variance_limit,
    lambda_functional,
    optimal_paths_zero_rho,
    rate_bounds_rho,
    rate_numeric,
    rate_perfect_corr,
    rate_upper_corr_path,
    rate_zero_rho,
)
from varsmile import rate_general, rate_zero
from varsmile.errors import ConvergenceError
from varsmile.rate_general import _CoupledMap, _lagrangian_grad, constraint_integral


def const_model(rho=0.0, eta0=1.0, sigma0=2.0, v0=0.1):
    return LsvModel(s0=1.0, v0=v0, rho=rho, eta=ConstantEta(eta0), sigma=ConstantSigma(sigma0))


class TestLambdaFunctional:
    def test_constant_paths_zero(self, tanh_model):
        paths = PathPair.constant(0.0, math.log(0.1), n=101)
        assert lambda_functional(tanh_model, paths).total == 0.0

    def test_rho_zero_split(self, tanh_model):
        t = np.linspace(0, 1, 401)
        paths = PathPair(t, 0.0 - 0.05 * (2 * t - t * t), math.log(0.1) + 0.2 * (2 * t - t * t))
        val = lambda_functional(tanh_model, paths)
        # manual midpoint evaluation of the two energies
        dt = t[1] - t[0]
        gm = 0.5 * (paths.g[1:] + paths.g[:-1])
        hm = 0.5 * (paths.h[1:] + paths.h[:-1])
        dg = np.diff(paths.g) / dt
        dh = np.diff(paths.h) / dt
        eta_m = tanh_model.eta.value_log(gm)
        a = dg / (eta_m * np.exp(hm / 2))
        b = dh / 2.0
        g_cost = 0.5 * np.sum(a * a) * dt
        h_cost = 0.5 * np.sum(b * b) * dt
        assert abs(val.g_cost - g_cost) < 1e-15
        assert abs(val.h_cost - h_cost) < 1e-15
        assert val.total == val.g_cost + val.h_cost

    def test_first_order_paths_quadratic(self, tanh_model):
        for rho in (0.0, 0.5, -0.5):
            m = tanh_model.with_rho(rho)
            exp = atm_expansion(m)
            r1 = []
            for x in (0.01, 0.005):
                paths = expansion_paths(m, x, n=801, order=1)
                lam = lambda_functional(m, paths).total
                r1.append(abs(lam - exp.A * x * x))
            # residual is cubic: quarters-at-halving would be quadratic, this is ~8x
            assert r1[0] / r1[1] > 6.0
            assert r1[0] <= 0.05 * exp.A * 0.01**2

    def test_perfect_correlation_rejected(self, tanh_model):
        paths = PathPair.constant(0.0, math.log(0.1))
        with pytest.raises(ValueError):
            lambda_functional(tanh_model.with_rho(1.0), paths)


class TestBounds:
    def test_rho_zero_collapse(self, tanh_model):
        k = 0.12
        i0 = rate_zero_rho(tanh_model, k).value
        b = rate_bounds_rho(tanh_model, k)
        assert abs(b.lower - i0) < 1e-12
        assert abs(dict(b.upper_candidates)["scaled_zero_corr"] - i0) < 1e-12

    def test_atm_all_zero(self, tanh_model):
        b = rate_bounds_rho(tanh_model.with_rho(0.4), 0.1)
        assert b.lower == 0.0
        assert b.best_upper <= 1e-12

    def test_sandwich_spot(self, tanh_model):
        m = tanh_model.with_rho(0.7)
        k = 0.1 * math.exp(0.1)
        b = rate_bounds_rho(m, k)
        i0 = rate_zero_rho(tanh_model, k).value
        assert abs(b.lower - i0 / 1.7) < 1e-12
        assert abs(dict(b.upper_candidates)["scaled_zero_corr"] - i0 / 0.3) < 1e-12
        rn = rate_numeric(m, k)
        assert b.lower <= rn.value <= b.best_upper + 1e-6

    def test_constant_eta_bounds(self):
        m = const_model(rho=0.5)
        k = 0.12
        b = rate_bounds_rho(m, k)
        j = asian_rate_j_const(2.0, 0.1, 0.12).value
        assert abs(dict(b.upper_candidates)["scaled_asian"] - j / 0.75) < 1e-9
        assert b.lower <= b.best_upper

    def test_flat_logpoly_matches_constant_twin(self, tanh_model):
        # equal clamps make a logpoly eta constant whatever its slope
        rates = []
        for eta in (LogPolyEta((1.15, -0.3), 1.15, 1.15), ConstantEta(1.15)):
            m = LsvModel(s0=1.0, v0=0.1, rho=0.3, eta=eta, sigma=tanh_model.sigma)
            b = rate_bounds_rho(m, forward_variance_limit(m) * math.exp(0.05))
            rates.append([b.lower, b.best_upper, *(v for _, v in b.upper_candidates)])
        for got, want in zip(*rates):
            assert abs(got - want) <= 1e-12 * want

    def test_one_rate_solve_per_call(self, tanh_model, monkeypatch):
        m = tanh_model.with_rho(0.7)
        k = 0.1 * math.exp(0.2)
        paths_bound = lambda_functional(m, optimal_paths_zero_rho(tanh_model, k)).total
        solve = rate_zero.rate_zero_rho
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(rate_zero, "rate_zero_rho", counted)
        monkeypatch.setattr(rate_general, "rate_zero_rho", counted)
        b = rate_bounds_rho(m, k)
        assert len(calls) == 1
        assert dict(b.upper_candidates)["zero_corr_paths"] == paths_bound

    def test_monotone_degradation(self, tanh_model):
        k = 0.12
        i0 = rate_zero_rho(tanh_model, k).value
        lowers = [i0 / (1 + r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        uppers = [i0 / (1 - r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert all(b > a for a, b in zip(uppers, uppers[1:]))


class TestFMap:
    def test_identity_points(self):
        m = const_model(rho=1.0)
        assert _CoupledMap(m, 0.7).f_of_x([m.v0])[0] == m.s0
        assert _CoupledMap(m, 0.0).f_of_x([0.4])[0] == m.s0

    def test_constant_closed_form(self):
        m = const_model(rho=1.0)
        for rho_eff, v in ((1.0, 0.4), (-0.6, 0.05), (0.3, 0.2)):
            got = _CoupledMap(m, rho_eff).f_of_x([v])[0]
            expect = m.s0 * math.exp(2.0 * 1.0 * rho_eff * (math.sqrt(v) - math.sqrt(0.1)) / 2.0)
            assert abs(got - expect) < 1e-9 * expect


def h_only_oracle(model, k, rho_eff, n=201):
    """Independent 1-D transcription of the coupled-path problem: an SQP
    solve with an explicit equality constraint, a different algorithm from
    the production Asian-reduction and augmented-Lagrangian routes.
    n = 201 keeps the O(n^3) SQP iterations affordable; its discretization
    bias is well inside the comparison tolerances."""
    mapper = _CoupledMap(model, rho_eff)
    t = np.linspace(0.0, 1.0, n)
    dt = t[1] - t[0]
    x_eff = math.log(k / forward_variance_limit(model))

    def pieces(h_int):
        h = np.concatenate(([0.0], h_int))
        return h, 0.5 * (h[1:] + h[:-1]), np.diff(h) / dt

    def scatter(d_dh, d_hm, m):
        g = np.zeros(m + 1)
        np.add.at(g, np.arange(m), -d_dh / dt + 0.5 * d_hm)
        np.add.at(g, np.arange(1, m + 1), d_dh / dt + 0.5 * d_hm)
        return g[1:]

    def energy(h_int):
        _, hm, dh = pieces(h_int)
        q = 1.0 / model.sigma.value_log(hm)
        return 0.5 * float(np.sum((dh * q) ** 2)) * dt

    def energy_jac(h_int):
        _, hm, dh = pieces(h_int)
        sig = model.sigma.value_log(hm)
        q = 1.0 / sig
        dsig = np.asarray(model.sigma.dvalue_log(hm))
        return scatter(dh * q * q * dt, -dh * dh * q * q * (dsig / sig) * dt, len(h_int))

    def con(h_int):
        _, hm, _ = pieces(h_int)
        return float(np.sum(mapper.payoff_factor(model.v0 * np.exp(hm))) * dt) - k

    def con_jac(h_int):
        _, hm, _ = pieces(h_int)
        v = model.v0 * np.exp(hm)
        gd = np.asarray(mapper.payoff_factor_deriv(v)) * v * dt
        return scatter(np.zeros_like(gd), gd, len(h_int))

    best = None
    for scale in (x_eff, -x_eff):
        h0 = (scale * 1.5 * (2 * t - t * t))[1:]
        res = minimize(
            energy,
            h0,
            jac=energy_jac,
            method="SLSQP",
            bounds=[(-9.5, 9.5)] * (n - 1),
            constraints=[{"type": "eq", "fun": con, "jac": con_jac}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if abs(con(res.x)) < 1e-7 * k:
            val = energy(res.x)
            if best is None or val < best:
                best = val
    return best


class TestPerfectCorr:
    def test_constant_eta_reduces_to_asian(self):
        for sign in (1, -1):
            m = const_model(rho=float(sign))
            res = rate_perfect_corr(m, 0.12, sign)
            assert abs(res.value - asian_rate_j_const(2.0, 0.1, 0.12).value) < 1e-12
            assert res.method == "perfect_corr"

    def test_atm_zero(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=1.0, eta=TanhEta(1.0, -0.1, 0.0), sigma=ConstantSigma(2.0))
        assert rate_perfect_corr(m, 0.1, 1).value == 0.0

    def test_sign_validation(self):
        m = const_model(rho=1.0)
        with pytest.raises(ValueError):
            rate_perfect_corr(m, 0.12, -1)
        with pytest.raises(ValueError):
            rate_perfect_corr(const_model(rho=0.5), 0.12, 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tanh_vs_direct_oracle(self, sign):
        m = LsvModel(s0=1.0, v0=0.1, rho=float(sign), eta=TanhEta(1.0, -0.1, 0.0),
                     sigma=ConstantSigma(2.0))
        k = forward_variance_limit(m) * math.exp(0.1)
        res = rate_perfect_corr(m, k, sign)
        oracle = h_only_oracle(m, k, float(sign))
        assert oracle is not None
        assert abs(res.value - oracle) <= 2e-4 * max(oracle, 1e-12) + 1e-8

    def test_nonmonotone_payoff_falls_back(self):
        m = LsvModel(s0=1.0, v0=0.25, rho=1.0, eta=TanhEta(1.0, -0.4, 0.0),
                     sigma=ConstantSigma(0.25))
        assert _CoupledMap(m, 1.0).monotone_window() is None
        k = forward_variance_limit(m) * math.exp(-0.1)
        res = rate_perfect_corr(m, k, 1)
        assert res.method == "perfect_corr_direct"
        assert res.diagnostics.get("fallback")
        assert res.diagnostics["kkt_residual"] < 1e-11
        json.dumps(res.diagnostics)
        oracle = h_only_oracle(m, k, 1.0)
        assert oracle is not None
        assert abs(res.value - oracle) <= 1e-3 * oracle


class TestCorrPathBound:
    def test_rho_zero_equals_asian(self, tanh_model):
        ub = rate_upper_corr_path(tanh_model, 0.12)
        j = asian_rate_j(tanh_model.sigma, 0.1, 0.12).value
        assert abs(ub - j) < 1e-10

    def test_atm_zero(self, tanh_model):
        assert rate_upper_corr_path(tanh_model.with_rho(0.7), 0.1) == 0.0

    def test_dominates_numeric(self, tanh_model):
        m = tanh_model.with_rho(0.7)
        k = 0.1 * math.exp(0.1)
        ub = rate_upper_corr_path(m, k)
        rn = rate_numeric(m, k)
        assert math.isfinite(ub)
        assert ub + 1e-6 >= rn.value


class TestRateNumeric:
    def test_atm_constant_paths(self, tanh_model):
        res = rate_numeric(tanh_model.with_rho(0.3), 0.1)
        assert res.value == 0.0
        assert np.all(res.paths.g == res.paths.g[0])

    def test_gradient_matches_finite_differences(self, tanh_model):
        """The Newton-KKT gradient against central differences of the public
        action and constraint, L = Lambda + lam (C - K)."""
        m = tanh_model.with_rho(0.4)
        n, k, lam = 21, 0.12, 0.3
        t = np.linspace(0, 1, n)
        lagrangian_grad = _lagrangian_grad(m, k, n)
        rng = np.random.default_rng(5)
        z = np.column_stack((
            -0.02 * (2 * t - t * t)[1:] + 0.002 * rng.standard_normal(n - 1),
            math.log(m.v0) + 0.3 * (2 * t - t * t)[1:] + 0.002 * rng.standard_normal(n - 1),
        )).ravel()

        def paths(z_):
            return PathPair(t, np.concatenate(([0.0], z_[0::2])), np.concatenate(([math.log(m.v0)], z_[1::2])))

        def lagrangian(z_):
            return lambda_functional(m, paths(z_)).total + lam * (constraint_integral(m, paths(z_)) - k)

        grad, c, grad_c = lagrangian_grad(z, lam)
        assert c == constraint_integral(m, paths(z)) - k
        eps = 1e-7
        for idx in rng.choice(z.size, size=12, replace=False):
            e = np.zeros_like(z)
            e[idx] = eps
            fd = (lagrangian(z + e) - lagrangian(z - e)) / (2 * eps)
            assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(fd))
            fd_c = (constraint_integral(m, paths(z + e)) - constraint_integral(m, paths(z - e))) / (2 * eps)
            assert abs(fd_c - grad_c[idx]) <= 1e-6 * max(1.0, abs(fd_c))

    def test_matches_closed_form_spot(self, tanh_model):
        k = 0.1 * math.exp(0.08)
        rz = rate_zero_rho(tanh_model, k).value
        rn = rate_numeric(tanh_model, k)
        assert abs(rn.value - rz) <= 1e-4 * rz

    def test_reported_value_is_action_of_paths(self, tanh_model):
        m = tanh_model.with_rho(0.5)
        res = rate_numeric(m, 0.11)
        assert res.value == lambda_functional(m, res.paths).total
        assert abs(constraint_integral(m, res.paths) - 0.11) <= 1e-9 * 0.11

    def test_deterministic(self, tanh_model):
        m = tanh_model.with_rho(-0.4)
        a = rate_numeric(m, 0.112)
        b = rate_numeric(m, 0.112)
        assert a.value == b.value
        assert np.array_equal(a.paths.g, b.paths.g)

    def test_grid_refinement_second_order(self, tanh_model):
        k = 0.1 * math.exp(0.1)
        vals = {n: rate_numeric(tanh_model, k, NumericOptions(n=n)).value for n in (101, 201, 401)}
        d1 = abs(vals[201] - vals[101])
        d2 = abs(vals[401] - vals[201])
        assert d2 <= 0.25 * d1 + 1e-12

    def test_el_residual_small(self, tanh_model):
        res = rate_numeric(tanh_model.with_rho(0.6), 0.115)
        assert res.diagnostics["el_residual"] < 1e-3

    @pytest.mark.parametrize("rho", [0.9, -0.9])
    def test_high_correlation_inside_bounds(self, tanh_model, rho):
        # max|grad L| bottoms out above 1e-12 here, at the gradient's rounding floor
        m = tanh_model.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(-0.3)
        res = rate_numeric(m, k)
        b = rate_bounds_rho(m, k)
        assert b.lower <= res.value <= b.best_upper + 1e-6
        assert res.diagnostics["kkt_residual"] > 1e-12

    def test_diagnostics_json_serializable(self, tanh_model):
        res = rate_numeric(tanh_model.with_rho(-0.5), 0.09)
        record = json.loads(json.dumps(res.diagnostics))
        assert set(record) == {"x", "newton_iters", "grad_evals", "kkt_residual", "constraint_residual", "el_residual"}
        assert record["newton_iters"] >= 1
        assert abs(record["constraint_residual"]) < 1e-12 * 0.09

    def test_iteration_cap_raises_with_residuals(self, tanh_model, monkeypatch):
        monkeypatch.setattr(rate_general, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            rate_numeric(tanh_model.with_rho(0.3), 0.1 * math.exp(0.1))
        diag = info.value.diagnostics
        assert diag["newton_iters"] == 1
        assert diag["kkt_residual"] >= 1e-12 or abs(diag["constraint_residual"]) >= 1e-12 * 0.1
        assert "max|grad L|" in str(info.value) and "|C - K|" in str(info.value)
        assert info.value.best is not None

    def test_rejects_perfect_corr(self, tanh_model):
        with pytest.raises(ValueError):
            rate_numeric(tanh_model.with_rho(1.0), 0.12)
