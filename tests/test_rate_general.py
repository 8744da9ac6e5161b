import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

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
    forward_variance_limit,
    lambda_functional,
    optimal_paths_zero_rho,
    rate_bounds_rho,
    rate_numeric,
    rate_perfect_corr,
    rate_upper_corr_path,
    rate_zero_rho,
)
from varsmile import numerics, rate_general, rate_zero
from varsmile.errors import ConvergenceError, NumericsError, TableRangeError
from varsmile.model import clamp_points
from varsmile.rate_general import (
    BoundsResult,
    _CoupledMap,
    _coupled_endpoint,
    _coupled_map,
    _h_only_rate,
    _lagrangian_grad,
    _memo_map,
    constraint_integral,
    rate_by_method,
)

# perfbench/models/kinked.json: eta 1 - 0.3u clamped to [0.85, 1.15] (kinks
# at u = +-0.5), sigma 2 + 0.5w clamped to [1.85, 2.15] (kinks at w = +-0.3)
KINKED = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=LogPolyEta((1.0, -0.3), 0.85, 1.15),
                  sigma=LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15))
TANH = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=TanhEta(1.0, -0.1, 0.0), sigma=ConstantSigma(2.0))


@pytest.fixture
def finer_maps(monkeypatch):
    """Call to halve the coupled map's STEP.  The memo is cleared with the
    change, so the next h-only rate builds a finer map, and after the test,
    so no finer map outlives it."""

    def refine():
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        _memo_map.cache_clear()

    yield refine
    _memo_map.cache_clear()


def const_model(rho=0.0, eta0=1.0, sigma0=2.0, v0=0.1):
    return LsvModel(s0=1.0, v0=v0, rho=rho, eta=ConstantEta(eta0), sigma=ConstantSigma(sigma0))


class TestLambdaFunctional:
    def test_constant_paths_zero(self, tanh_model):
        paths = PathPair.constant(0.0, math.log(0.1), n=101)
        assert lambda_functional(tanh_model, paths).total == 0.0

    def test_rho_zero_split(self, tanh_model):
        t = np.linspace(0, 1, 401)
        paths = PathPair(0.0 - 0.05 * (2 * t - t * t), math.log(0.1) + 0.2 * (2 * t - t * t))
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
            t = np.linspace(0.0, 1.0, 801)
            for x in (0.01, 0.005):
                paths = PathPair(math.log(m.s0) + x * exp.g1(t), math.log(m.v0) + x * exp.h1(t))
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
        rho = 0.7
        m = tanh_model.with_rho(rho)
        k = 0.1 * math.exp(0.2)
        # the action on the rho = 0 paths with their exact leg costs: the cross
        # term C = int a b dt read off the midpoint actions at rho and at 0
        paths = optimal_paths_zero_rho(tanh_model, k)
        res0 = rate_zero_rho(tanh_model, k)
        lv, lv0 = lambda_functional(m, paths), lambda_functional(tanh_model, paths)
        cross = (lv0.g_cost + rho * rho * lv0.h_cost - (1.0 - rho * rho) * lv.g_cost) / rho
        paths_bound = (res0.g_cost - rho * cross + rho * rho * res0.h_cost) / (1.0 - rho * rho) + res0.h_cost
        solve = rate_zero.rate_zero_rho
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(rate_zero, "rate_zero_rho", counted)
        monkeypatch.setattr(rate_general, "rate_zero_rho", counted)
        b = rate_bounds_rho(m, k)
        assert len(calls) == 1
        # the cross term rounds differently there: a few ulps apart
        assert abs(dict(b.upper_candidates)["zero_corr_paths"] - paths_bound) <= 4.0 * math.ulp(paths_bound)

    @pytest.mark.parametrize("x", [0.01, -0.01, 0.1, -0.1, 1.0, -1.0, 2.0])
    @pytest.mark.parametrize("model", ["tanh", "kinked"])
    def test_ordered_at_rho_zero(self, tanh_model, model, x):
        # at rho = 0 the action on the rho = 0 paths is I0 itself, not a
        # discretized action below it
        m = tanh_model if model == "tanh" else KINKED
        k = forward_variance_limit(m) * math.exp(x)
        b = rate_bounds_rho(m, k)
        i0 = rate_zero_rho(m, k).value
        assert dict(b.upper_candidates)["zero_corr_paths"] == i0
        assert b.lower <= b.best_upper

    @pytest.mark.parametrize("x", [1e-12, -1e-12])
    def test_just_outside_the_atm_band(self, tanh_model, x):
        # the rho = 0 budget sits at the pivot, so its asset leg stays at S0
        b = rate_bounds_rho(tanh_model.with_rho(0.7), 0.1 * math.exp(x))
        assert 0.0 < b.lower <= b.best_upper

    def test_corr_path_past_the_table_is_dropped(self, monkeypatch):
        # with the table held to |log(v/V0)| <= 4, this put's excursion (about 4.3) leaves it
        m = KINKED.with_rho(0.7)
        k = forward_variance_limit(m) * math.exp(-2.5)
        monkeypatch.setattr(_CoupledMap, "MAX_SPAN", _CoupledMap.W_SPAN)
        with pytest.raises(TableRangeError):
            rate_upper_corr_path(m, k)
        b = rate_bounds_rho(m, k)
        assert [name for name, _ in b.upper_candidates] == ["scaled_zero_corr", "zero_corr_paths", "scaled_asian"]
        assert [name for name, _ in b.dropped] == ["corr_path"] and b.dropped[0][1].startswith("TableRangeError: ")

    @pytest.mark.parametrize("x", [5.0, -5.0])
    def test_corr_path_numerics_error_is_dropped(self, x):
        # eta's loose upper clamp: the h-only route's asset table passes its node budget
        m = TestAssetTable.model(1e4, rho=-0.9)
        b = rate_bounds_rho(m, forward_variance_limit(m) * math.exp(x))
        assert [name for name, _ in b.upper_candidates] == ["scaled_zero_corr", "zero_corr_paths", "scaled_asian"]
        assert b.dropped == (("corr_path", "NumericsError: coupled-map primitive out of range (clamp saturation) "
                                           f"past {_CoupledMap.U_NODES} u nodes"),)
        assert 0.0 < b.lower <= b.best_upper

    def test_nothing_dropped(self):
        m = TestAssetTable.model(1e4, rho=-0.9)
        b = rate_bounds_rho(m, forward_variance_limit(m) * math.exp(0.1))
        assert b.dropped == ()
        assert [name for name, _ in b.upper_candidates][-1] == "corr_path"

    def test_monotone_degradation(self, tanh_model):
        k = 0.12
        i0 = rate_zero_rho(tanh_model, k).value
        lowers = [i0 / (1 + r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        uppers = [i0 / (1 - r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert all(b > a for a, b in zip(uppers, uppers[1:]))


class TestAssetTable:
    """The coupled map's u table covers what rho_eff Phi_V reaches over its w
    table, whatever eta's upper clamp: eta = 1 - 0.3u clamped to
    [0.85, clamp_hi], sigma 2, V0 = 0.1."""

    @staticmethod
    def model(clamp_hi, rho=1.0):
        return LsvModel(s0=1.0, v0=0.1, rho=rho, eta=LogPolyEta((1.0, -0.3), 0.85, clamp_hi), sigma=ConstantSigma(2.0))

    def test_loose_upper_clamp_keeps_rate_and_table(self):
        rates, nodes = [], []
        for clamp_hi in (1.15, 100.0):
            m = self.model(clamp_hi)
            k = forward_variance_limit(m) * math.exp(0.1)
            rates.append(rate_perfect_corr(m, k, 1).value)
            nodes.append(_coupled_map(m, 1.0, 1.2)._phi_s_inv.x.size)
        assert abs(rates[1] - rates[0]) <= 1e-12
        assert nodes[1] <= 2 * nodes[0]

    def test_table_past_the_node_budget_raises(self):
        # at rho = -1 on the widest w table, Phi_S must reach -46.6 where eta
        # climbs toward 1e4: about 3e7 nodes, past U_NODES
        m = self.model(1e4, rho=-1.0)
        with pytest.raises(NumericsError, match="clamp saturation"):
            rate_perfect_corr(m, forward_variance_limit(m) * math.exp(5.0), -1)


class TestCoords:
    """_CoupledMap._coords checks its range with one NaN-skipping reduction per bound."""

    @staticmethod
    def mapper():
        return _coupled_map(KINKED.with_rho(1.0), 1.0, _CoupledMap.W_SPAN)

    def test_nan_beside_an_out_of_range_entry_raises(self):
        mapper = self.mapper()
        for w in ([np.nan, mapper.w[-1] + 0.5], [mapper.w[0] - 0.5, np.nan]):
            with pytest.raises(TableRangeError, match="coupled-map table"):
                mapper.level(np.array(w))

    def test_nan_alone_passes_through(self):
        mapper = self.mapper()
        levels = mapper.level(np.array([np.nan, 0.1]))
        assert math.isnan(levels[0]) and levels[1] == mapper.level(0.1)

    def test_scalar_and_empty(self):
        mapper = self.mapper()
        assert mapper.level(np.float64(0.1)).shape == ()
        assert mapper.level(np.array([])).shape == (0,)
        with pytest.raises(TableRangeError):
            mapper.log_f(mapper.w[-1] + 0.5)


class TestFMap:
    @pytest.mark.parametrize("sigma", [LogPolySigma(-0.95, 200.0, 0.0, 1.85, 2.15),
                                       LogPolySigma(2.0, 0.5, 0.0, 1.9995, 2.001),
                                       LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.17)],
                             ids=["two_in_one_cell", "next_to_zero", "off_node"])
    def test_table_nodes_on_clamp_points(self, sigma):
        """Each sigma clamp point is a node of the w table: 0.014 and 0.0155
        share the cell (2, 3) STEP, -0.001 and 0.002 lie within STEP/2 of 0.
        Node 0 stays, the nodes increase, and no other node lies within STEP/4
        of a clamp point."""
        m = LsvModel(s0=1.0, v0=0.1, rho=1.0, eta=TanhEta(1.0, -0.1, 0.0), sigma=sigma)
        w, clamps = _CoupledMap(m, 1.0).w, clamp_points(sigma)
        assert set(clamps) <= set(w) and 0.0 in w and np.all(np.diff(w) > 0.0)
        others = w[~np.isin(w, (0.0, *clamps))]
        assert np.min(np.abs(others[:, None] - np.array(clamps))) >= 0.25 * _CoupledMap.STEP

    @pytest.mark.parametrize("rho_eff", [1.0, -1.0, 0.7])
    def test_smooth_model_has_no_kinks(self, rho_eff):
        # tanh eta has no clamp point, though far out on the widest table tanh(u) rounds to +-1
        mapper = _CoupledMap(TANH, rho_eff, _CoupledMap.MAX_SPAN)
        assert mapper.kinks(1.0, math.inf) == mapper.kinks(-1.0, math.inf) == []

    def test_identity_points(self):
        m = const_model(rho=1.0)
        assert math.exp(_CoupledMap(m, 0.7).log_f([0.0])[0]) == m.s0
        assert math.exp(_CoupledMap(m, 0.0).log_f([math.log(4.0)])[0]) == m.s0

    def test_constant_closed_form(self):
        m = const_model(rho=1.0)
        for rho_eff, v in ((1.0, 0.4), (-0.6, 0.05), (0.3, 0.2)):
            got = math.exp(_CoupledMap(m, rho_eff).log_f([math.log(v / m.v0)])[0])
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
                assert abs(math.exp(mapper.log_f([w])[0]) - expect) <= 1e-12 * expect


def h_only_oracle(model, k, rho_eff, w_a):
    """Richardson value (4 I_801 - I_401) / 3 of a direct transcription of the
    h-only problem: min sum (dh / sigma)^2 dt / 2 over midpoints subject to
    sum G(hm) dt = K, a different formulation from the production Asian
    reduction, solved by ``_newton_kkt`` on a test-side Lagrangian.  Each I_n
    is the least converged action from h = +-1.5 x (2t - t^2), or from
    w_a (2t - t^2) where neither start converges."""
    x = math.log(k / forward_variance_limit(model))
    mapper = _coupled_map(model, rho_eff, 2.0 * abs(x) + 1.0)

    def action(n, end):
        t = np.linspace(0.0, 1.0, n)
        dt = t[1] - t[0]

        def pieces(h_int):  # nodes on the last axis, as _newton_kkt batches its difference columns
            h = np.concatenate((np.zeros(h_int.shape[:-1] + (1,)), h_int), axis=-1)
            hm = 0.5 * (h[..., 1:] + h[..., :-1])
            return hm, model.sigma.value_log(hm), np.diff(h) / dt

        def lagrangian_grad(h_int, lam):
            hm, sig, dh = pieces(h_int)
            slope = dh / sig**2  # an interval energy's derivative in its right node, via the slope
            mid = -dt * dh * dh * model.sigma.dvalue_log(hm) / sig**3
            c_mid = 0.5 * dt * mapper.dlevel(hm)  # each end's share of d(sum G(hm) dt)/d(hm)
            grad_c, grad_f = np.zeros(h_int.shape[:-1] + (n,)), np.zeros(h_int.shape[:-1] + (n,))
            grad_c[..., :-1] += c_mid
            grad_c[..., 1:] += c_mid
            grad_f[..., :-1] += 0.5 * mid - slope
            grad_f[..., 1:] += 0.5 * mid + slope
            c = np.sum(mapper.level(hm), axis=-1) * dt - k
            return grad_f[..., 1:] + lam * grad_c[..., 1:], c, grad_c[..., 1:]

        h_int = rate_general._newton_kkt(lagrangian_grad, (end * (2.0 * t - t * t))[1:], k)[0]
        _, sig, dh = pieces(h_int)
        return 0.5 * float(np.sum((dh / sig) ** 2)) * dt

    def least(n):
        for ends in ((1.5 * x, -1.5 * x), (w_a,)):
            values = []
            for end in ends:
                try:
                    values.append(action(n, end))
                except NumericsError:  # no convergence, or the path left the map's table
                    pass
            if values:
                return min(values)
        raise AssertionError(f"no start of the h-only transcription converges at n = {n}")

    return (4.0 * least(801) - least(401)) / 3.0


# model 40 of test_rate_zero._drawn_models(60, 7): clamped logpoly eta, so G
# kinks where F crosses a clamp point
DRAWN40 = LsvModel(s0=1.0, v0=0.19013595344642606, rho=0.0,
                   eta=LogPolyEta((1.0, -0.3801669786186471, -0.08210755843063847), 0.6172579537322839,
                                  1.3752822285394193),
                   sigma=ConstantSigma(0.6810352368079762))
NONMONOTONE = LsvModel(s0=1.0, v0=0.25, rho=1.0, eta=TanhEta(1.0, -0.4, 0.0), sigma=ConstantSigma(0.25))


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
        w_kink = brentq(lambda w: mapper.log_f(w) - 0.5, 1.0, 3.0, xtol=1e-15)
        got = _coupled_endpoint(mapper, a0, w_kink + delta, 1.0)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        ref = _coupled_endpoint(_CoupledMap(m, 1.0), a0, w_kink + delta, 1.0)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-10 * b

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-4, 5e-4])
    def test_endpoint_integrals_past_an_off_node_sigma_clamp(self, monkeypatch, rho, delta):
        """A sigma clamp off the uniform nodes (w = 0.34) is a table node of
        its own, so no table segment holds the kink and the endpoint integrals
        just past it agree with half-spacing tables to 1e-11."""
        m = LsvModel(s0=1.0, v0=0.1, rho=rho, eta=TanhEta(1.0, -0.1, 0.0),
                     sigma=LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.17))
        a0 = forward_variance_limit(m)
        got = _coupled_endpoint(_CoupledMap(m, rho), a0, 0.34 + delta, 1.0)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        ref = _coupled_endpoint(_CoupledMap(m, rho), a0, 0.34 + delta, 1.0)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-11 * b

    def test_smooth_far_strike_kernel_calls(self):
        m = TANH.with_rho(-1.0)
        res = rate_perfect_corr(m, forward_variance_limit(m) * math.exp(6.5), -1)
        assert res.method == "perfect_corr" and res.diagnostics["kernel_calls"] <= 10

    def test_atm_zero(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=1.0, eta=TanhEta(1.0, -0.1, 0.0), sigma=ConstantSigma(2.0))
        res = rate_perfect_corr(m, 0.1, 1)
        assert res.value == 0.0
        assert res.diagnostics == {"rho_eff": 1.0, "kernel_calls": 0, "kernel_passes": 0}

    def test_sign_validation(self):
        m = const_model(rho=1.0)
        with pytest.raises(ValueError):
            rate_perfect_corr(m, 0.12, -1)
        with pytest.raises(ValueError):
            rate_perfect_corr(const_model(rho=0.5), 0.12, 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tanh_vs_direct_oracle(self, sign):
        m = TANH.with_rho(float(sign))
        k = forward_variance_limit(m) * math.exp(0.1)
        res = rate_perfect_corr(m, k, sign)
        oracle = h_only_oracle(m, k, float(sign), res.diagnostics["w_a"])
        assert abs(res.value - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("x, w_a_sign", [(0.05, -1), (-0.05, 1), (0.1, 1), (-0.1, 1), (0.3, 1), (-0.3, -1)])
    def test_nonmonotone_payoff(self, x, w_a_sign):
        """G falls from the money (G' < 0 at V0), so the calls' paths either
        run down in w to the left extremum of G, at 1.10387 A0, or pass it by
        and run up the far right branch past the record start where G
        regains A0: the rate jumps in K between x = 0.05 and 0.1."""
        m = NONMONOTONE
        mapper = _CoupledMap(m, 1.0)
        assert mapper.dlevel(0.0) < 0.0
        k = forward_variance_limit(m) * math.exp(x)
        res = rate_perfect_corr(m, k, 1)
        assert res.method == "perfect_corr" and math.copysign(1.0, res.diagnostics["w_a"]) == w_a_sign
        json.dumps(res.diagnostics)
        oracle = h_only_oracle(m, k, 1.0, res.diagnostics["w_a"])
        assert abs(res.value - oracle) <= 1e-9 * oracle

    def test_root_next_to_an_extremum(self):
        """Calls just below the left extremum of G (1.10388 A0 at w = -0.28475)
        have their root past the last table node before it (w = -0.28125),
        found by halving toward the extremum.  The root nears it like
        exp(-c / (1.10388 - K / A0)); once it lies within _GUARD of it,
        NumericsError names the extremum."""
        a0 = forward_variance_limit(NONMONOTONE)
        res = rate_perfect_corr(NONMONOTONE, a0 * math.exp(0.0935), 1)
        assert -0.28476 < res.diagnostics["w_a"] < -0.28125
        with pytest.raises(NumericsError, match="extremum of G"):
            rate_perfect_corr(NONMONOTONE, a0 * math.exp(0.095), 1)

    @pytest.mark.parametrize("rho, x", [(rho, x) for rho in (1.0, 0.7) for x in (0.3, 0.6, 1.0, 2.0)])
    def test_kinked_payoff_vs_direct_oracle(self, rho, x):
        """On drawn model 40 the transcription used to take these strikes (the
        route's first probe left the window where G rises), and at rho = 0.7,
        x = 1 it left the map's table.  Where the path crosses the kink of G
        (w = 1.205 at rho = 1, 1.560 at rho = 0.7) the transcription's midpoint
        rule is not smooth in dt, and its Richardson value scatters by up to
        1.4e-6 around the rate (measured; at n = 1601/3201 by 7e-8); off the
        kink it agrees to 1e-12."""
        m = DRAWN40.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(x)
        res = _h_only_rate(m, k, rho)
        crosses = abs(res.diagnostics["w_a"]) > _CoupledMap(m, rho).kinks(1.0, math.inf)[0]
        oracle = h_only_oracle(m, k, rho, res.diagnostics["w_a"])
        assert abs(res.value - oracle) <= (2e-6 if crosses else 1e-9) * oracle

    @pytest.mark.parametrize("rho, x", [(1, 0.15), (-1, -0.15), (1, -0.15), (-1, 0.15)]
                             + [(rho, x) for rho in (0, 1, -1, 0.7) for x in (0.3, -0.3, 0.5, -0.5)])
    def test_kinked_kernel_calls_single_pass(self, monkeypatch, rho, x):
        """Each kernel call of rate_zero_rho (rho 0), rate_perfect_corr (+-1) and rate_bounds_rho
        takes one pass: the w-route's have one panel (10 + 20 Gauss nodes and 2 edge probes) at the
        closed_kinked strikes, and past them the clamp points are panel breaks."""
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
        m = KINKED.with_rho(float(rho))
        k = forward_variance_limit(m) * math.exp(x)
        with numerics.count_kernel_calls() as counts:
            res = rate_bounds_rho(m, k) if rho == 0.7 else rate_zero_rho(m, k) if rho == 0 else rate_perfect_corr(m, k, rho)
        diag = getattr(res, "diagnostics", {"kernel_calls": counts[0], "kernel_passes": counts[1]})
        assert diag["kernel_passes"] == diag["kernel_calls"] == counts[1] == counts[0]
        if abs(x) == 0.15:
            assert points == [32] * len(points)
            assert len(points) == diag["kernel_calls"] <= 7

    def test_diagnostics_json_serializable(self):
        for m, rho_eff, x in ((TANH.with_rho(1.0), 1.0, 0.15), (KINKED.with_rho(-1.0), -1.0, -0.15),
                              (KINKED.with_rho(0.7), 0.7, 0.2)):
            a0 = forward_variance_limit(m)
            res = _h_only_rate(m, a0 * math.exp(x), rho_eff)
            if abs(rho_eff) == 1.0:
                assert rate_perfect_corr(m, a0 * math.exp(x), int(rho_eff)).diagnostics == res.diagnostics
            diag = json.loads(json.dumps(res.diagnostics))
            assert set(diag) == {"alpha", "branch", "rho_eff", "w_a", "kernel_calls", "kernel_passes"}
            assert diag["branch"] == ("above" if x > 0 else "below") and diag["rho_eff"] == rho_eff
            assert 0 < diag["kernel_calls"] <= 7
            # alpha is the log excursion of the payoff level at the terminal log variance w_a
            g_a = _CoupledMap(m, rho_eff).level(diag["w_a"])
            assert abs(abs(math.log(g_a / a0)) - diag["alpha"]) <= 1e-12

    @pytest.mark.parametrize("model", [TANH, KINKED], ids=["tanh", "kinked"])
    @pytest.mark.parametrize("rho, x", [(1.0, 0.15), (-1.0, -0.15), (0.7, 0.2), (-0.7, -0.1)])
    def test_tables_converged(self, finer_maps, model, rho, x):
        """Perfect-correlation rates and corr-path bounds at the benchmark's
        design points do not move when the map's grids are refined."""
        m = model.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(x)
        rate = (lambda: rate_perfect_corr(m, k, int(rho)).value) if abs(rho) == 1.0 else (
            lambda: rate_upper_corr_path(m, k))
        nodes = lambda: _coupled_map(m, rho, 2.0 * abs(x) + 1.0).w.size  # of the map the last rate used
        coarse, coarse_nodes = rate(), nodes()
        finer_maps()
        fine = rate()
        assert 1.9 * coarse_nodes < nodes() < 2.1 * coarse_nodes
        assert abs(coarse - fine) <= 1e-11 * fine

    @pytest.mark.parametrize("rho, x", [(1.0, 3.0), (1.0, -2.5), (-1.0, -3.0)])
    def test_far_strikes_widen_the_table(self, finer_maps, rho, x):
        """Strikes whose excursion leaves |log(v/V0)| <= W_SPAN get a table
        sized from the strike, and their rates do not move when it is refined."""
        m = KINKED.with_rho(rho)
        k = forward_variance_limit(m) * math.exp(x)
        nodes = lambda: _coupled_map(m, rho, 2.0 * abs(x) + 1.0).w.size  # of the map the last rate used
        coarse = rate_perfect_corr(m, k, int(rho))
        coarse_nodes = nodes()
        assert coarse.method == "perfect_corr" and abs(coarse.diagnostics["w_a"]) > _CoupledMap.W_SPAN
        assert coarse_nodes > 2.0 * _CoupledMap.W_SPAN / _CoupledMap.STEP + 1.0
        finer_maps()
        fine = rate_perfect_corr(m, k, int(rho)).value
        assert 1.9 * coarse_nodes < nodes() < 2.1 * coarse_nodes
        assert abs(coarse.value - fine) <= 1e-11 * fine

    def test_excursion_past_table_raises(self):
        # the terminal excursion is about 1.9 |x| here: x = -6 needs |log(v/V0)| near 11
        m = KINKED.with_rho(1.0)
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
            e_a, f, g = _coupled_endpoint(mapper, a0, t, 1.0)
            return e_a - zr - g / f

        roots = [brentq(phi, a, b, xtol=1e-15) for a, b in ((2.0, w_kink), (w_kink + 1e-6, 2.09), (2.09, 2.2))]
        rates = [0.5 * math.prod(_coupled_endpoint(mapper, a0, t, 1.0)[1:]) for t in roots]
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
        level = lambda w: float(mapper.level(w)) / a0
        slope = lambda w: float(mapper.dlevel(w)) / a0
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
        _, f_got, g_got = _coupled_endpoint(mapper, a0, t_a, 1.0)
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
        got = _coupled_endpoint(mapper, a0, mapper.kinks(1.0, 3.0)[0] + delta, 1.0)
        monkeypatch.setattr(_CoupledMap, "STEP", _CoupledMap.STEP / 2)
        mapper = _CoupledMap(m, rho)
        ref = _coupled_endpoint(mapper, a0, mapper.kinks(1.0, 3.0)[0] + delta, 1.0)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-11 * b


class TestMapMemo:
    def test_equal_models_share_one_map(self):
        a, b = KINKED.with_rho(1.0), replace(KINKED, rho=1.0)
        assert a is not b
        # spans below W_SPAN clip to it before the lookup
        assert _coupled_map(a, 1.0, 1.3) is _coupled_map(b, 1.0, _CoupledMap.W_SPAN)
        assert _coupled_map(a, 1.0, 5.0) is not _coupled_map(a, 1.0, 4.0)
        assert _coupled_map(a, -1.0, 4.0) is not _coupled_map(a, 1.0, 4.0)

    @pytest.mark.parametrize("model", [TANH, KINKED], ids=["tanh", "kinked"])
    def test_warm_and_cold_memo_agree(self, model):
        """Each rate is the same, value and diagnostics, whether its map is
        built for it or found in the memo."""
        f0 = forward_variance_limit(model)

        def rates(cold):
            out = []
            for x in (0.15, -0.15, 2.5):
                for rho in (1.0, -1.0, 0.7, -0.7):
                    if cold:
                        _memo_map.cache_clear()
                    m, k = model.with_rho(rho), f0 * math.exp(x)
                    if abs(rho) == 1.0:
                        res = rate_perfect_corr(m, k, int(rho))
                        out.append((res.value, res.diagnostics))
                    else:
                        out.append(rate_upper_corr_path(m, k))
            return out

        cold = rates(True)
        rates(False)
        hits = _memo_map.cache_info().hits
        warm = rates(False)
        assert _memo_map.cache_info().hits == hits + 12  # 8 maps, spans 4 and 6
        assert warm == cold

    def test_tables_are_read_only(self):
        mapper = _coupled_map(KINKED.with_rho(1.0), 1.0, 4.0)
        assert np.array_equal(mapper.levels, mapper.level(mapper.w[1:-1]))
        for table in (mapper.w, mapper.levels, mapper._phi_v.x, mapper._phi_v.c, mapper._phi_s_inv.x,
                      mapper._phi_s_inv.c):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1.0


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

    @pytest.mark.parametrize("rel", [0.0, 5e-14, -5e-14])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
    @pytest.mark.parametrize("kinked", [False, True], ids=["tanh", "kinked"])
    def test_atm_newton_record(self, tanh_model, kinked, rho, rel):
        # inside the ATM band the expansion seed is the constant pair, which
        # Newton accepts at iteration 0 with the record of any other strike
        m = (KINKED if kinked else tanh_model).with_rho(rho)
        res = rate_numeric(m, forward_variance_limit(m) * (1.0 + rel))
        assert res.value == 0.0 and res.lagrange == 0.0 and res.g_endpoint == m.s0
        assert type(res.lagrange) is float
        assert np.all(res.paths.g == math.log(m.s0)) and np.all(res.paths.h == math.log(m.v0))
        d = res.diagnostics
        assert d["x"] == 0.0 and d["newton_iters"] == 0 and d["grad_evals"] == 1
        assert d["kkt_residual"] == 0.0 and abs(d["constraint_residual"]) <= 1e-12 * forward_variance_limit(m)

    @staticmethod
    def _perturbed(m, n, rng):
        """Interleaved interior nodes z of a perturbed path pair from (0, log V0)."""
        t = np.linspace(0, 1, n)
        return np.column_stack((
            -0.02 * (2 * t - t * t)[1:] + 0.002 * rng.standard_normal(n - 1),
            math.log(m.v0) + 0.3 * (2 * t - t * t)[1:] + 0.002 * rng.standard_normal(n - 1),
        )).ravel()

    def test_gradient_matches_finite_differences(self, tanh_model):
        """The Newton-KKT gradient against central differences of the public
        action and constraint, L = Lambda + lam (C - K)."""
        m = tanh_model.with_rho(0.4)
        n, k, lam = 21, 0.12, 0.3
        lagrangian_grad = _lagrangian_grad(m, k, PathPair.constant(0.0, math.log(m.v0), n))
        rng = np.random.default_rng(5)
        z = self._perturbed(m, n, rng)

        def paths(z_):
            return PathPair(np.concatenate(([0.0], z_[0::2])), np.concatenate(([math.log(m.v0)], z_[1::2])))

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

    @pytest.mark.parametrize("model", [TANH, KINKED], ids=["tanh", "kinked"])
    def test_batched_gradient_is_row_by_row(self, model):
        # _newton_kkt takes its 14 difference gradients from one batched call:
        # each row is bit for bit the single call on it, in grad, C - K and grad C
        m = model.with_rho(0.4)
        n, k, lam = 21, 0.12, 0.3
        lagrangian_grad = _lagrangian_grad(m, k, PathPair.constant(0.0, math.log(m.v0), n))
        z = self._perturbed(m, n, np.random.default_rng(5))
        width = 2 * rate_general._BW + 1
        steps = np.where(np.arange(z.size) % width == np.arange(width)[:, None], rate_general._FD_STEP, 0.0)
        batch = np.concatenate((z + steps, z - steps))
        assert batch.shape == (2 * width, z.size) == (14, 40)
        for got, rows in zip(lagrangian_grad(batch, lam), zip(*(lagrangian_grad(row, lam) for row in batch))):
            assert np.array_equal(got, np.stack(rows))

    def test_band_is_the_hessian_column_by_column(self, monkeypatch):
        # unknown j's own central difference of grad L moves only rows within
        # _BW of j, so its entries there are, bit for bit, those of the colour
        # difference that _newton_kkt places in column j of its band
        m = KINKED.with_rho(0.4)
        n, k, bw = 21, 0.12, rate_general._BW
        lagrangian_grad = _lagrangian_grad(m, k, PathPair.constant(0.0, math.log(m.v0), n))
        z = self._perturbed(m, n, np.random.default_rng(5))
        bands, solve = [], rate_general.solve_banded

        def capture(l_and_u, band, rhs):
            bands.append(band.copy())
            return solve(l_and_u, band, rhs)

        monkeypatch.setattr(rate_general, "solve_banded", capture)
        monkeypatch.setattr(rate_general, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            rate_general._newton_kkt(lagrangian_grad, z, k)
        fd = rate_general._FD_STEP
        hess = np.column_stack([(lagrangian_grad(z + e, 0.0)[0] - lagrangian_grad(z - e, 0.0)[0]) / (2.0 * fd)
                                for e in fd * np.eye(z.size)])
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(z.size), np.arange(z.size))) <= bw)
        assert np.array_equal(bands[0][bw + i - j, j], hess[i, j])

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_kinked_cycling_strike_raises(self, rho):
        # ROADMAP item 1's open case: at x = 0.5 the kinked paths cross clamps,
        # and Newton cycles there until the cap with max|grad L| near 1.5e-4
        m = KINKED.with_rho(rho)
        with pytest.raises(ConvergenceError) as info:
            rate_numeric(m, forward_variance_limit(m) * math.exp(0.5))
        diag = info.value.diagnostics
        assert diag["newton_iters"] == rate_general._NEWTON_MAX_ITER == 20
        assert 1.2e-4 <= diag["kkt_residual"] <= 1.9e-4  # 1.30e-4 at rho = -0.5, 1.80e-4 at 0.5
        assert f"max|grad L| {diag['kkt_residual']:.3e}" in str(info.value)
        assert f"|C - K| {abs(diag['constraint_residual']):.3e}" in str(info.value)

    def test_matches_closed_form_spot(self, tanh_model):
        k = 0.1 * math.exp(0.08)
        rz = rate_zero_rho(tanh_model, k).value
        rn = rate_numeric(tanh_model, k)
        assert abs(rn.value - rz) <= 1e-4 * rz

    def test_reported_value_is_action_of_paths(self, tanh_model):
        m = tanh_model.with_rho(0.5)
        res = rate_numeric(m, 0.11)
        assert res.value == lambda_functional(m, res.paths).total
        assert type(res.lagrange) is float  # as every other field, not a numpy scalar
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
        assert set(record) == {"x", "newton_iters", "grad_evals", "kkt_residual", "constraint_residual"}
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


def test_rate_off_the_money_must_be_positive():
    # A x^2 + B x^3 changes sign at x = -A/B = 4.985 on tanh; at the money every rate is 0
    with pytest.raises(ValueError, match=r"^expansion rate -0\.664791 not positive at x=5\.3"):
        rate_by_method(TANH, forward_variance_limit(TANH) * math.exp(5.3), "expansion")
    for method in ("expansion", "closed"):
        assert rate_by_method(TANH, forward_variance_limit(TANH), method).value == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BoundsResult(1.0, (("a", 0.5),), 0.5), "lower bound exceeds best upper bound"),
        (lambda: rate_bounds_rho(TANH.with_rho(1.0), 0.12), "bounds require |rho| < 1"),
        (lambda: rate_perfect_corr(TANH.with_rho(1.0), 0.12, 0), "sign must be +1 or -1"),
        (lambda: rate_upper_corr_path(TANH.with_rho(1.0), 0.12), "requires |rho| < 1"),
        (lambda: rate_by_method(TANH, 0.12, "shooting"),
         "rate method must be one of closed|bounds|numeric|expansion, got 'shooting'"),
    ],
    ids=["bounds-ordered", "bounds-perfect-corr", "perfect-corr-sign", "corr-path-perfect-corr", "unknown-method"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
