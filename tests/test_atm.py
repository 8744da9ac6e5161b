import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    atm_expansion,
    atm_price_limit,
    expansion_paths,
    forward_variance_limit,
    lambda_functional,
    linear_smile_coeffs,
)
from varsmile.errors import DegenerateModelError

GL_X, GL_W = np.polynomial.legendre.leggauss(10)
T_NODES = 0.5 * (GL_X + 1.0)
T_WEIGHTS = 0.5 * GL_W


def integral01(f):
    """Gauss-Legendre on [0,1]; exact for the polynomial profiles here."""
    return float(np.sum(T_WEIGHTS * f(T_NODES)))


def sv_model(sigma0=2.0, sigma1=0.0):
    sig = ConstantSigma(sigma0) if sigma1 == 0.0 else LogPolySigma(sigma0, sigma1, 0.0, 1e-3, 1e3)
    return LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=sig)


class TestExpansionCoefficients:
    def test_stochastic_vol_specialization_exact(self):
        # eta == 1 collapses the coefficients to the pure vol-of-vol forms
        for sigma0, sigma1 in ((2.0, 0.0), (1.3, 0.4), (0.7, -0.2)):
            exp = atm_expansion(sv_model(sigma0, sigma1))
            assert exp.A == 3.0 / (2.0 * sigma0**2)
            assert abs(exp.B - (-3.0 * (sigma0 + 6.0 * sigma1) / (10.0 * sigma0**3))) < 1e-15

    def test_table_model_denominator(self, tanh_model):
        assert abs(atm_expansion(tanh_model).D - 4.004) < 1e-14
        m7 = tanh_model.with_rho(-0.7)
        expect = 4.004 + 4.0 * 0.7 * 2.0 * math.sqrt(0.1) * 0.1
        assert abs(atm_expansion(m7).D - expect) < 1e-14
        assert abs(atm_expansion(tanh_model).A - 3.0 / (2.0 * 4.004)) < 1e-15

    def test_degenerate_rejected(self):
        m = LsvModel(
            s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0),
            sigma=LogPolySigma(1e-8, 0.0, 0.0, clamp_lo=1e-9, clamp_hi=1.0),
        )
        with pytest.raises(DegenerateModelError):
            atm_expansion(m)

    def test_positive_quadratic_coefficient(self, tanh_model):
        for rho in np.linspace(-1, 1, 9):
            assert atm_expansion(tanh_model.with_rho(rho)).A > 0


class TestRateExpansion:
    def test_zero_at_atm(self, tanh_model):
        assert atm_expansion(tanh_model).rate(0.0) == 0.0

    def test_stochastic_vol_spot_value(self):
        # A x^2 + B x^3 = 3/8 * 0.01 - (3 * 2 / 80) * 0.001 with sigma0 = 2
        got = atm_expansion(sv_model(2.0)).rate(0.1)
        assert abs(got - (0.00375 - 0.000075)) < 1e-15

    def test_against_closed_form(self, tanh_model):
        from varsmile import rate_zero_rho

        x = 0.05
        k = 0.1 * math.exp(x)
        exact = rate_zero_rho(tanh_model, k).value
        approx = atm_expansion(tanh_model).rate(x)
        assert abs(approx - exact) <= 20.0 * abs(x) ** 4  # O(x^4) remainder


class TestExpansionPaths:
    def test_boundary_and_transversality(self, tanh_model):
        exp = atm_expansion(tanh_model.with_rho(0.4))
        assert exp.g1(0.0) == 0.0 and exp.h1(0.0) == 0.0
        assert exp.g2(0.0) == 0.0 and exp.h2(0.0) == 0.0
        # profile slope at t=1: d/dt of (2t - t^2) is 0; g2', h2' vanish too
        eps = 1e-7
        for f in (exp.g1, exp.h1, exp.g2, exp.h2):
            slope = (f(1.0) - f(1.0 - eps)) / eps
            assert abs(slope) < 1e-5

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7, 0.3])
    def test_first_order_normalization(self, tanh_model, rho):
        m = tanh_model.with_rho(rho)
        exp = atm_expansion(m)
        eta0, eta1, _ = (1.0, -0.1, 0.0)
        val = integral01(lambda t: exp.h1(t) + 2.0 * (eta1 / eta0) * exp.g1(t))
        assert abs(val - 1.0) < 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7])
    def test_second_order_normalization(self, tanh_model, rho):
        m = tanh_model.with_rho(rho)
        exp = atm_expansion(m)
        et1, et2 = -0.1, 0.0
        val = integral01(
            lambda t: exp.h2(t)
            + 2.0 * et1 * exp.g2(t)
            + 0.5 * exp.h1(t) ** 2
            + (et1**2 + 2.0 * et2) * exp.g1(t) ** 2
            + 2.0 * et1 * exp.g1(t) * exp.h1(t)
        )
        assert abs(val - 0.5) < 1e-10

    def test_second_order_normalization_with_curvature(self):
        # exercise the eta2 and sigma1 terms too
        m = LsvModel(
            s0=2.0, v0=0.15, rho=-0.4,
            eta=TanhEta(1.1, -0.25, 0.3),
            sigma=LogPolySigma(1.4, 0.3, 0.0, 1e-3, 1e3),
        )
        exp = atm_expansion(m)
        eta0, eta1, eta2 = m.eta.log_coeffs()
        et1, et2 = eta1 / eta0, eta2 / eta0
        v1 = integral01(lambda t: exp.h1(t) + 2.0 * et1 * exp.g1(t))
        assert abs(v1 - 1.0) < 1e-12
        v2 = integral01(
            lambda t: exp.h2(t)
            + 2.0 * et1 * exp.g2(t)
            + 0.5 * exp.h1(t) ** 2
            + (et1**2 + 2.0 * et2) * exp.g1(t) ** 2
            + 2.0 * et1 * exp.g1(t) * exp.h1(t)
        )
        assert abs(v2 - 0.5) < 1e-10

    def test_paths_object(self, tanh_model):
        exp = atm_expansion(tanh_model)
        p2 = expansion_paths(tanh_model, 0.05, n=101)
        assert p2.n == 101
        assert p2.g[0] == math.log(tanh_model.s0)
        g1 = math.log(tanh_model.s0) + 0.05 * exp.g1(p2.t)  # the first-order path
        assert not np.array_equal(g1, p2.g)

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7])
    def test_action_consistency_slope(self, tanh_model, rho):
        m = tanh_model.with_rho(rho)
        exp = atm_expansion(m)
        xs = (0.02, 0.01, 0.005)
        resid = []
        for x in xs:
            paths = expansion_paths(m, x, n=801)
            resid.append(abs(lambda_functional(m, paths).total - exp.rate(x)))
        slope = np.polyfit(np.log(xs), np.log(resid), 1)[0]
        assert slope >= 3.7


class TestAtmPriceLimit:
    def test_table_model_values(self, tanh_model):
        assert abs(atm_price_limit(tanh_model) - 0.046088913784117655) < 1e-15
        assert abs(atm_price_limit(tanh_model.with_rho(0.7)) - 0.045058185840142165) < 1e-15

    def test_flat_leverage(self):
        m = sv_model(2.0)
        expect = 0.1 / math.sqrt(6.0 * math.pi) * 2.0
        assert abs(atm_price_limit(m) - expect) < 1e-16

    def test_radicand_is_d(self, tanh_model):
        for rho in (-1.0, -0.3, 0.0, 0.5, 1.0):
            m = tanh_model.with_rho(rho)
            exp = atm_expansion(m)
            expect = 0.1 / math.sqrt(6.0 * math.pi) * math.sqrt(exp.D)
            assert abs(atm_price_limit(m) - expect) < 1e-15


@pytest.mark.parametrize(
    "clamped, twin",
    [
        (LogPolyEta((1.5, -0.3), 0.85, 1.15), ConstantEta(1.15)),
        (LogPolySigma(2.5, 0.5, 0.0, 1.85, 2.15), ConstantSigma(2.15)),
    ],
)
def test_clamped_spot_expands_as_constant(tanh_model, clamped, twin):
    # u = 0 (w = 0) sits on the upper clamp, so the expansion is that of the flat piece
    kind = "eta" if isinstance(twin, ConstantEta) else "sigma"
    a, b = (replace(tanh_model, rho=0.3, **{kind: spec}) for spec in (clamped, twin))
    assert atm_expansion(a) == atm_expansion(b)
    assert linear_smile_coeffs(a) == linear_smile_coeffs(b)
    assert atm_price_limit(a) == atm_price_limit(b)


def test_sigma_atm_consistency(tanh_model):
    for rho in (0.0, 0.7, -0.7):
        m = tanh_model.with_rho(rho)
        exp = atm_expansion(m)
        sig_atm, _ = linear_smile_coeffs(m)
        assert abs(sig_atm - math.sqrt(1.0 / (2.0 * exp.A))) < 1e-15


def paper_linear_smile(model):
    """The paper's explicit ATM level sqrt(D/3) and skew, a sigma0-polynomial
    over 10 sqrt(3) D^(3/2); the oracle for ``linear_smile_coeffs``."""
    eta0, eta1, eta2 = model.eta.log_coeffs()
    sig0, sig1, _ = model.sigma.log_coeffs()
    rho, v0 = model.rho, model.v0
    sv = math.sqrt(v0)
    d = sig0**2 + 4.0 * rho * sig0 * sv * eta1 + 4.0 * eta1**2 * v0
    beta0 = 16.0 * eta1**2 * v0**2 * (eta1**2 + 6.0 * eta0 * eta2)
    beta1 = 8.0 * eta1 * rho * v0 * (3.0 * eta1 * rho * sig1 + 7.0 * eta1**2 * sv + 12.0 * eta0 * eta2 * sv)
    beta2 = 4.0 * (6.0 * eta1 * rho * sig1 * sv + 6.0 * eta0 * eta2 * rho**2 * v0 + eta1**2 * (5.0 + 7.0 * rho**2) * v0)
    numerator = (
        sig0**4 + 2.0 * sig0**3 * (3.0 * sig1 + 7.0 * eta1 * rho * sv) + beta2 * sig0**2 + beta1 * sig0 + beta0
    )
    return math.sqrt(d / 3.0), numerator / (10.0 * math.sqrt(3.0) * d**1.5), d


_ETAS = st.one_of(
    st.builds(TanhEta, st.floats(0.5, 2.0), st.floats(-0.6, 0.6), st.floats(-1.0, 1.0)),
    st.builds(
        lambda c0, c1, c2: LogPolyEta((c0, c1, c2), 0.1 * c0, 10.0 * c0),
        st.floats(0.5, 2.0), st.floats(-0.6, 0.6), st.floats(-0.3, 0.3),
    ),
)
_SIGMAS = st.one_of(
    st.builds(ConstantSigma, st.floats(0.1, 3.0)),
    st.builds(lambda s0, s1: LogPolySigma(s0, s1, 0.0, 0.05 * s0, 20.0 * s0), st.floats(0.1, 3.0), st.floats(-1.0, 1.0)),
)
_MODELS = st.builds(
    lambda eta, sigma, rho, v0: LsvModel(s0=1.0, v0=v0, rho=rho, eta=eta, sigma=sigma),
    _ETAS, _SIGMAS, st.floats(-1.0, 1.0), st.floats(0.01, 1.0),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_MODELS)
def test_atm_constants_against_paper_formulas(model):
    sig_ref, skew_ref, d = paper_linear_smile(model)
    assume(d > 1e-10)
    sig_atm, s_v = linear_smile_coeffs(model)
    assert abs(sig_atm - sig_ref) <= 1e-13 * sig_ref
    assert abs(s_v - skew_ref) <= 1e-13 * sig_ref
    limit = forward_variance_limit(model) * math.sqrt(d / (6.0 * math.pi))
    assert abs(atm_price_limit(model) - limit) <= 1e-15 * limit
