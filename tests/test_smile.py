import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LsvModel,
    asymptotic_smile,
    black_price,
    implied_vol,
    linear_smile,
    linear_smile_coeffs,
    rate_by_method,
    rate_perfect_corr,
)
from varsmile.errors import ArbitrageError, PrecisionWarning


class TestBlackPrice:
    def test_intrinsic_limit(self):
        almost = black_price(0.12, 0.1, 1e-9, 0.1, 0.0, "call")
        assert abs(almost - 0.02) < 1e-12
        assert black_price(0.08, 0.1, 1e-9, 0.1, 0.0, "call") < 1e-12

    def test_atm_symmetry(self):
        from scipy.special import ndtr

        f, sig, t = 0.1, 1.2, 0.25
        expect = f * (2.0 * ndtr(0.5 * sig * math.sqrt(t)) - 1.0)
        assert abs(black_price(f, f, sig, t, 0.0, "call") - expect) < 1e-15
        assert abs(black_price(f, f, sig, t, 0.0, "put") - expect) < 1e-15

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.3, 3.0),
        st.floats(0.05, 3.0),
        st.floats(0.01, 2.0),
        st.floats(0.0, 0.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_put_call_parity(self, f, krel, sig, t, r):
        k = f * krel
        call = black_price(f, k, sig, t, r, "call")
        put = black_price(f, k, sig, t, r, "put")
        assert abs(call - put - math.exp(-r * t) * (f - k)) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            black_price(-0.1, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            black_price(0.1, 0.1, 1.0, 1.0, flag="straddle")


class TestImpliedVol:
    def test_round_trip_spot(self):
        price = black_price(0.1, 0.12, 1.15, 1.0 / 12.0, 0.0, "call")
        assert abs(implied_vol(price, 0.1, 0.12, 1.0 / 12.0, 0.0, "call") - 1.15) < 1e-10

    def test_round_trip_grid(self):
        # strikes stay within 3.5 sigma sqrt(T) of the forward: outside,
        # vanishing vega makes the vol unrecoverable from a float64 price
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            f = rng.uniform(0.01, 1.0)
            sig = rng.uniform(0.05, 2.0)
            t = rng.uniform(0.01, 2.0)
            k = f * math.exp(rng.uniform(-3.0, 3.0) * sig * math.sqrt(t))
            r = rng.uniform(0.0, 0.05)
            flag = "call" if rng.uniform() < 0.5 else "put"
            price = black_price(f, k, sig, t, r, flag)
            got = implied_vol(price, f, k, t, r, flag)
            worst = max(worst, abs(got - sig))
        assert worst <= 1e-10

    def test_intrinsic_flagged(self):
        # price exactly at intrinsic pins the bracket floor
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vol = implied_vol(0.02, 0.12, 0.1, 1.0 / 12.0, 0.0, "call")
        assert any(issubclass(w.category, PrecisionWarning) for w in caught)
        assert vol <= 1e-6

    def test_band_edges(self):
        with pytest.raises(ArbitrageError):
            implied_vol(0.1, 0.1, 0.12, 1.0, 0.0, "call")  # price = e^{-rT} F
        with pytest.raises(ArbitrageError):
            implied_vol(0.019, 0.12, 0.1, 1.0, 0.0, "call")  # below intrinsic


class TestAsymptoticSmile:
    def test_atm_limit_value(self, tanh_model):
        pt = asymptotic_smile(tanh_model, 0.1, rate_method="closed")
        assert abs(pt.sigma_v - 1.1552777443829976) < 1e-12
        assert pt.x == 0.0

    def test_sv_limit(self):
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        pt = asymptotic_smile(m, 0.1 * math.exp(1e-4), rate_method="closed")
        assert abs(pt.sigma_v - 2.0 / math.sqrt(3.0)) < 1e-3

    def test_closed_matches_linear(self, tanh_model):
        k = 0.1 * math.exp(0.1)
        pt = asymptotic_smile(tanh_model, k, rate_method="closed")
        assert abs(pt.sigma_v - linear_smile(tanh_model, 0.1)) <= 2e-2

    def test_bounds_interval(self, tanh_model):
        m = tanh_model.with_rho(0.5)
        pt = asymptotic_smile(m, 0.11, rate_method="bounds")
        assert pt.sigma_v is None
        assert pt.lo <= pt.hi
        exp_pt = asymptotic_smile(m, 0.11, rate_method="expansion")
        assert pt.lo - 1e-9 <= exp_pt.sigma_v <= pt.hi + 1e-9

    def test_expansion_and_numeric_consistent(self, tanh_model):
        m = tanh_model.with_rho(0.3)
        k = 0.1 * math.exp(0.05)
        a = asymptotic_smile(m, k, rate_method="expansion").sigma_v
        b = asymptotic_smile(m, k, rate_method="numeric").sigma_v
        assert abs(a - b) < 5e-3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_numeric_at_perfect_correlation(self, tanh_model, sign):
        # the transcription needs |rho| < 1; at rho = +-1 the CLI's rate and
        # the smile both take the exact reduction
        m = tanh_model.with_rho(float(sign))
        k = 0.1 * math.exp(0.1)
        pt = asymptotic_smile(m, k, rate_method="numeric")
        res = rate_by_method(m, k, "numeric")
        assert res.method.startswith("perfect_corr")
        assert res.value == rate_perfect_corr(m, k, sign).value
        assert pt.method == "numeric"
        assert abs(pt.sigma_v - 0.1 / math.sqrt(2.0 * res.value)) <= 1e-12

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_strike_rejected(self, tanh_model, k):
        with pytest.raises(ValueError, match="finite"):
            asymptotic_smile(tanh_model, k)
        with pytest.raises(ValueError, match="finite"):
            rate_by_method(tanh_model, k, "closed")
        with pytest.raises(ValueError, match="finite"):
            rate_by_method(tanh_model.with_rho(0.5), k, "numeric")
        with pytest.raises(ValueError, match="finite"):
            rate_perfect_corr(tanh_model.with_rho(1.0), k, 1)

    def test_bad_method(self, tanh_model):
        with pytest.raises(ValueError):
            asymptotic_smile(tanh_model, 0.11, rate_method="magic")


def test_smile_curve_container(tanh_model):
    from varsmile import SmileCurve

    pts = tuple(
        asymptotic_smile(tanh_model, k, rate_method="expansion") for k in (0.095, 0.1, 0.105)
    )
    curve = SmileCurve(points=pts)
    assert [p.strike for p in curve] == [0.095, 0.1, 0.105]


class TestLinearSmile:
    def test_reference_levels(self, tanh_model):
        sig, skew = linear_smile_coeffs(tanh_model.with_rho(-0.7))
        assert abs(sig - 1.1806) < 1e-4
        assert abs(skew - 0.1257) < 1e-4
        sig, skew = linear_smile_coeffs(tanh_model.with_rho(0.7))
        assert abs(sig - 1.1294) < 1e-4
        assert abs(skew - 0.1053) < 1e-4
        sig, skew = linear_smile_coeffs(tanh_model)
        assert abs(sig - 1.1553) < 1e-4
        assert abs(skew - 0.11587366563333339) < 1e-12

    def test_line(self, tanh_model):
        sig, skew = linear_smile_coeffs(tanh_model)
        assert linear_smile(tanh_model, 0.07) == sig + 0.07 * skew

    def test_skew_straddles_rho_zero(self, tanh_model):
        s0 = linear_smile_coeffs(tanh_model)[1]
        for rho in (0.3, 0.7):
            s_plus = linear_smile_coeffs(tanh_model.with_rho(rho))[1]
            s_minus = linear_smile_coeffs(tanh_model.with_rho(-rho))[1]
            assert min(s_plus, s_minus) < s0 < max(s_plus, s_minus)

    def test_expansion_smile_deviation_quadratic(self, tanh_model):
        devs = {}
        for x in (0.04, 0.02):
            pt = asymptotic_smile(tanh_model, 0.1 * math.exp(x), rate_method="expansion")
            devs[x] = abs(pt.sigma_v - linear_smile(tanh_model, x))
        c1 = devs[0.04] / 0.04**2
        c2 = devs[0.02] / 0.02**2
        assert 0.5 <= c1 / c2 <= 2.0
