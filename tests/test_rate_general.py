import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
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
from varsmile.errors import ConvergenceError, NumericsError, TableRangeError
from varsmile.rate_general import _CoupledMap, _coupled_endpoint, _h_only_rate, _lagrangian_grad, constraint_integral

# perfbench/models/kinked.json: eta 1 - 0.3u clamped to [0.85, 1.15] (kinks
# at u = +-0.5), sigma 2 + 0.5w clamped to [1.85, 2.15] (kinks at w = +-0.3)
KINKED = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=LogPolyEta((1.0, -0.3), 0.85, 1.15),
                  sigma=LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15))
TANH = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=TanhEta(1.0, -0.1, 0.0), sigma=ConstantSigma(2.0))


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

    def test_corr_path_past_the_table_is_dropped(self, monkeypatch):
        # with the table held to |log(v/V0)| <= 4, this put's excursion (about 4.3) leaves it
        m = KINKED.with_rho(0.7)
        k = forward_variance_limit(m) * math.exp(-2.5)
        monkeypatch.setattr(_CoupledMap, "MAX_SPAN", _CoupledMap.W_SPAN)
        with pytest.raises(TableRangeError):
            rate_upper_corr_path(m, k)
        b = rate_bounds_rho(m, k)
        assert [name for name, _ in b.upper_candidates] == ["scaled_zero_corr", "zero_corr_paths", "scaled_asian"]

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
            assert abs(got - expect) < 1e-12 * expect

    @pytest.mark.parametrize("model, w_kinks, u_kinks", [(TANH, (), ()), (KINKED, (-0.3, 0.3), (-0.5, 0.5))],
                             ids=["tanh", "kinked"])
    def test_matches_quadpack_map(self, model, w_kinks, u_kinks):
        """F(v) against QUADPACK primitives, split at the clamp kinks, and a
        brentq solve of Phi_S(u) = rho Phi_V(w)."""

        def primitive(fn, b, kinks):
            pts = [p for p in kinks if min(0.0, b) < p < max(0.0, b)]
            return quad(fn, 0.0, b, points=pts or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        for rho_eff in (1.0, -1.0, 0.7):
            mapper = _CoupledMap(model, rho_eff)
            for w in (-3.5, -1.0, -0.31, 0.05, 0.2, 0.4, 1.5, 3.5):
                phi_v = primitive(lambda y: math.sqrt(model.v0) * math.exp(0.5 * y) / model.sigma.value_log(y),
                                  w, w_kinks)
                u = brentq(lambda u: primitive(lambda y: 1.0 / model.eta.value_log(y), u, u_kinks) - rho_eff * phi_v,
                           -10.0, 10.0, xtol=1e-15, rtol=1e-15)
                expect = model.s0 * math.exp(u)
                assert abs(mapper.f_of_x([model.v0 * math.exp(w)])[0] - expect) <= 1e-12 * expect


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

    box = _CoupledMap.W_SPAN - 0.5  # keep midpoints inside the map's table
    best = None
    for scale in (x_eff, -x_eff):
        h0 = (scale * 1.5 * (2 * t - t * t))[1:]
        res = minimize(
            energy,
            h0,
            jac=energy_jac,
            method="SLSQP",
            bounds=[(-box, box)] * (n - 1),
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

    @pytest.mark.parametrize("x", [1e-3, -1e-3, 1e-2])
    def test_constant_eta_small_excursions(self, x):
        # the payoff gap near the terminal excursion cancels unless taken from v G'(v)
        m = const_model(rho=1.0)
        k = 0.1 * math.exp(x)
        expect = asian_rate_j_const(2.0, 0.1, k).value
        assert abs(rate_perfect_corr(m, k, 1).value - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("delta", [1e-6, 2e-5, 5e-4])
    def test_endpoint_integrals_past_a_clamp_kink(self, monkeypatch, delta):
        """Terminal excursions just past the eta clamp (u = 0.5), where G'
        jumps: the endpoint integrals stay accurate, because the Gauss rule
        for the payoff gap is not used across the kink."""
        m = KINKED.with_rho(1.0)
        a0 = forward_variance_limit(m)
        mapper = _CoupledMap(m, 1.0)
        w_kink = brentq(lambda w: math.log(mapper.f_of_x([m.v0 * math.exp(w)])[0]) - 0.5, 1.0, 3.0, xtol=1e-15)
        got = _coupled_endpoint(mapper, a0, w_kink + delta)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        ref = _coupled_endpoint(_CoupledMap(m, 1.0), a0, w_kink + delta)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-10 * b

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-4, 5e-4])
    def test_endpoint_integrals_past_an_off_node_sigma_clamp(self, monkeypatch, rho, delta):
        """A sigma clamp between table nodes (w = 0.34) bends the tabulated G
        inside one table segment; the Gauss rule for the payoff gap follows the
        tables' own slope there, so the kernel converges.  The tables are only
        about 1e-7 accurate across such a segment."""
        m = LsvModel(s0=1.0, v0=0.1, rho=rho, eta=TanhEta(1.0, -0.1, 0.0),
                     sigma=LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.17))
        a0 = forward_variance_limit(m)
        got = _coupled_endpoint(_CoupledMap(m, rho), a0, 0.34 + delta)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        ref = _coupled_endpoint(_CoupledMap(m, rho), a0, 0.34 + delta)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-6 * b

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

    @pytest.mark.parametrize("sign, x", [(1, 0.15), (-1, -0.15), (1, -0.15), (-1, 0.15)])
    def test_kinked_kernel_calls_single_pass(self, monkeypatch, sign, x):
        """Each kernel call of the w-route takes one pass (10 + 20 Gauss
        nodes and 2 edge probes) at the closed_kinked strikes."""
        kernel = rate_general.integrate_sqrt_singular
        points = []

        def counted(f, *args, **kw):
            seen = [0]

            def wrapped(y, *rest):
                seen[0] += np.size(y)
                return f(y, *rest)

            out = kernel(wrapped, *args, **kw)
            points.append(seen[0])
            return out

        monkeypatch.setattr(rate_general, "integrate_sqrt_singular", counted)
        m = KINKED.with_rho(float(sign))
        res = rate_perfect_corr(m, forward_variance_limit(m) * math.exp(x), sign)
        assert points == [32] * len(points)
        assert len(points) == res.diagnostics["kernel_calls"] <= 7

    def test_diagnostics_json_serializable(self):
        for m, rho_eff, x in ((TANH.with_rho(1.0), 1.0, 0.15), (KINKED.with_rho(-1.0), -1.0, -0.15),
                              (KINKED.with_rho(0.7), 0.7, 0.2)):
            a0 = forward_variance_limit(m)
            res = _h_only_rate(m, a0 * math.exp(x), rho_eff)
            if abs(rho_eff) == 1.0:
                assert rate_perfect_corr(m, a0 * math.exp(x), int(rho_eff)).diagnostics == res.diagnostics
            diag = json.loads(json.dumps(res.diagnostics))
            assert set(diag) == {"alpha", "branch", "rho_eff", "w_a", "kernel_calls"}
            assert diag["branch"] == ("above" if x > 0 else "below") and diag["rho_eff"] == rho_eff
            assert 0 < diag["kernel_calls"] <= 7
            # alpha is the log excursion of the payoff level at the terminal log variance w_a
            g_a = _CoupledMap(m, rho_eff).payoff_factor(m.v0 * math.exp(diag["w_a"]))
            assert abs(abs(math.log(g_a / a0)) - diag["alpha"]) <= 1e-12

    @pytest.mark.parametrize("model", [TANH, KINKED], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("rho, x", [(1.0, 0.15), (-1.0, -0.15), (0.7, 0.2), (-0.7, -0.1)])
    def test_tables_converged(self, monkeypatch, model, rho, x):
        """Perfect-correlation rates and corr-path bounds at the benchmark's
        design points do not move when the map's grids are refined."""
        m = model.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(x)
        rate = (lambda: rate_perfect_corr(m, k, int(rho)).value) if abs(rho) == 1.0 else (
            lambda: rate_upper_corr_path(m, k))
        coarse = rate()
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        fine = rate()
        assert abs(coarse - fine) <= 1e-11 * fine

    @pytest.mark.parametrize("rho, x", [(1.0, 3.0), (1.0, -2.5), (-1.0, -3.0)])
    def test_far_strikes_widen_the_table(self, monkeypatch, rho, x):
        """Strikes whose excursion leaves |log(v/V0)| <= W_SPAN get a table
        sized from the strike, and their rates do not move when it is refined."""
        m = KINKED.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(x)
        coarse = rate_perfect_corr(m, k, int(rho))
        assert coarse.method == "perfect_corr" and abs(coarse.diagnostics["w_a"]) > _CoupledMap.W_SPAN
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        fine = rate_perfect_corr(m, k, int(rho)).value
        assert abs(coarse.value - fine) <= 1e-11 * fine

    def test_excursion_past_table_raises(self, monkeypatch):
        # the terminal excursion is about 1.9 |x| here: x = -6 needs |log(v/V0)| near 11
        m = KINKED.with_rho(1.0)
        monkeypatch.setattr(rate_general, "_h_only_direct", lambda *a: pytest.fail("transcribed past the table"))
        with pytest.raises(TableRangeError, match="coupled-map table"):
            rate_perfect_corr(m, forward_variance_limit(m) * math.exp(-6.0), 1)

    def test_fold_past_a_clamp_kink_takes_least_rate(self):
        """Past the eta clamp (u = 0.5) the root condition dips back below zero,
        so this strike has three roots in |w_a|; the rate is the least of the three."""
        m = KINKED.with_rho(1.0)
        a0 = forward_variance_limit(m)
        zr = math.exp(1.2656570832710217)
        mapper = _CoupledMap(m, 1.0)
        (w_kink,) = mapper.kinks(1.0, 3.0)

        def phi(t):
            e_a, f, g = _coupled_endpoint(mapper, a0, t)
            return e_a - zr - g / f

        roots = [brentq(phi, a, b, xtol=1e-15) for a, b in ((2.0, w_kink), (w_kink + 1e-6, 2.09), (2.09, 2.2))]
        rates = [0.5 * math.prod(_coupled_endpoint(mapper, a0, t)[1:]) for t in roots]
        assert rates[2] < rates[0] - 1e-6 and rates[2] < rates[1]
        res = rate_perfect_corr(m, a0 * zr, 1)
        assert abs(res.diagnostics["w_a"] - roots[2]) <= 1e-12
        assert abs(res.value - rates[2]) <= 1e-12 * rates[2]

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [1e-4, 5e-4])
    def test_endpoint_integrals_past_a_clamp_kink_match_quadpack(self, rho, delta):
        """Nodes before the eta clamp point see a payoff gap that spans the
        jump of G'.  QUADPACK on the pieces either side of the kink, with the
        plain gap before it and an 8-point rule on v G' after it, agrees."""
        m = KINKED.with_rho(rho)
        a0 = forward_variance_limit(m)
        mapper = _CoupledMap(m, rho)
        (kink,) = mapper.kinks(1.0, 3.0)
        t_a = kink + delta
        level = lambda w: float(mapper.payoff_factor(m.v0 * math.exp(w))) / a0
        slope = lambda w: m.v0 * math.exp(w) * float(mapper.payoff_factor_deriv(m.v0 * math.exp(w))) / a0
        sig = lambda w: float(m.sigma.value_log(w))
        e_a = level(t_a)
        x8, w8 = np.polynomial.legendre.leggauss(8)

        def gap_over_u2(u):  # (G(v_a) - G(v)) / (A0 u^2) at w = t_a - u^2, past the kink
            return sum(wi * slope(t_a - 0.5 * u * u * (1.0 + xi)) for xi, wi in zip(x8, w8)) / 2.0

        def integral(fn, top):
            return quad(fn, 0.0, math.sqrt(top), epsabs=0.0, epsrel=1e-12, limit=200)[0]

        f = integral(lambda u: 2.0 * u / (sig(kink - u * u) * math.sqrt(e_a - level(kink - u * u))), kink)
        f += integral(lambda u: 2.0 / (sig(t_a - u * u) * math.sqrt(gap_over_u2(u))), delta)
        g = integral(lambda u: 2.0 * u * math.sqrt(e_a - level(kink - u * u)) / sig(kink - u * u), kink)
        g += integral(lambda u: 2.0 * u * u * math.sqrt(gap_over_u2(u)) / sig(t_a - u * u), delta)
        _, f_got, g_got = _coupled_endpoint(mapper, a0, t_a)
        assert abs(f_got - f) <= 1e-10 * f
        assert abs(g_got - g) <= 1e-10 * g

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [1e-13, 1e-11, 1e-9, 1e-7])
    def test_endpoint_integrals_just_past_a_clamp_kink(self, monkeypatch, rho, delta):
        """Terminal excursions within 1e-7 of the eta clamp point, measured
        from each table's own kink: the rule for the payoff gap is split
        there, so the kernel converges and the refined tables agree."""
        m = KINKED.with_rho(rho)
        a0 = forward_variance_limit(m)
        mapper = _CoupledMap(m, rho)
        got = _coupled_endpoint(mapper, a0, mapper.kinks(1.0, 3.0)[0] + delta)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        mapper = _CoupledMap(m, rho)
        ref = _coupled_endpoint(mapper, a0, mapper.kinks(1.0, 3.0)[0] + delta)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-11 * b


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
        vals = {n: rate_numeric(tanh_model, k, n=n).value for n in (101, 201, 401)}
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
