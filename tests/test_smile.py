import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    McConfig,
    asymptotic_smile,
    black_price,
    forward_variance_limit,
    implied_vol,
    linear_smile,
    linear_smile_coeffs,
    log_moneyness,
    rate_by_method,
    rate_perfect_corr,
    rate_zero_rho,
)
from varsmile import mc
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["f", "k", "sigma", "t", "r"])
    def test_non_finite_input_named(self, arg, value):
        # an infinite t or a nan f priced as nan
        args = {"f": 0.1, "k": 0.12, "sigma": 1.15, "t": 1.0 / 12.0, "r": 0.0, arg: value}
        with pytest.raises(ValueError, match=f"^{arg} must be (positive and )?finite"):
            black_price(**args)


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

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValueError, match="finite"):
            implied_vol(price, 0.1, 0.1, 1.0 / 12.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["f", "k", "t", "r"])
    def test_non_finite_input_named(self, arg, value):
        # an infinite t reached the root finder as a nan price
        args = {"price": 0.01, "f": 0.1, "k": 0.12, "t": 1.0 / 12.0, "r": 0.0, arg: value}
        with pytest.raises(ValueError, match=f"^{arg} must be (positive and )?finite"):
            implied_vol(**args)

    def test_unknown_flag(self):
        with pytest.raises(ValueError, match="^flag must be 'call' or 'put'$"):
            implied_vol(0.01, 0.1, 0.1, 1.0 / 12.0, flag="straddle")

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
        # at the money too, on perfbench/models/kinked.json
        kinked = LsvModel(1.0, 0.1, 0.0, LogPolyEta((1.0, -0.3), 0.85, 1.15), LogPolySigma(2.0, 0.5, 0.0, 1.85, 2.15))
        with pytest.raises(ValueError, match="magic"):
            asymptotic_smile(kinked, forward_variance_limit(kinked), rate_method="magic")


class TestAtmBand:
    @pytest.mark.parametrize("x", [0.0, 5e-14, -5e-14])
    def test_every_method_returns_the_atm_level(self, tanh_model, x):
        k = forward_variance_limit(tanh_model) * math.exp(x)
        assert log_moneyness(tanh_model, k) == 0.0
        sig = linear_smile_coeffs(tanh_model)[0]
        for method in ("closed", "expansion", "numeric"):
            pt = asymptotic_smile(tanh_model, k, rate_method=method)
            assert (pt.x, pt.sigma_v, pt.lo, pt.hi) == (0.0, sig, None, None)
        pt = asymptotic_smile(tanh_model, k, rate_method="bounds")
        assert (pt.x, pt.sigma_v, pt.lo, pt.hi) == (0.0, None, sig, sig)

    @pytest.mark.parametrize("x", [2e-13, -2e-13])
    def test_just_outside_the_band(self, tanh_model, x):
        # the strike decision and the Asian solve at the pivot agree: no zero rate off the money
        k = forward_variance_limit(tanh_model) * math.exp(x)
        xk = log_moneyness(tanh_model, k)
        assert xk != 0.0 and (xk > 0.0) == (x > 0)
        pt = asymptotic_smile(tanh_model, k, rate_method="closed")
        assert math.isfinite(pt.sigma_v) and pt.sigma_v > 0.0

    @pytest.mark.parametrize("k", [0.0, -0.1, math.inf, math.nan])
    def test_log_moneyness_rejects_bad_strikes(self, tanh_model, k):
        with pytest.raises(ValueError, match="finite"):
            log_moneyness(tanh_model, k)

    # eta(S0) = 0 divides by zero, eta(S0) = -1 squares to a plausible F_V(0),
    # and eta(S0) = 1e-200 and 1e200 are positive but F_V(0) = eta(S0)^2 V0
    # rounds to 0 or overflows
    @pytest.mark.parametrize("eta", [LogPolyEta((0.0, -0.5), 0.0, 1.0), LogPolyEta((-1.0, -0.5), -2.0, 1.0),
                                     ConstantEta(1e-200), ConstantEta(1e200)])
    def test_eta_at_spot_not_positive_rejected(self, tanh_model, eta, monkeypatch):
        m = replace(tanh_model, eta=eta)
        named = r"eta\(S0\) = \S+ and F_V\(0\) = eta\(S0\)\^2 V0 must be positive"
        with pytest.raises(ValueError, match=named):
            log_moneyness(m, 0.1)
        with pytest.raises(ValueError, match=named):
            rate_zero_rho(m, 0.1)
        with pytest.raises(ValueError, match=named):
            asymptotic_smile(m, 0.1, rate_method="bounds")
        monkeypatch.setattr(mc, "_simulate_core", None)  # refused before any simulation
        with pytest.raises(ValueError, match=named):
            mc.mc_smile(m, [0.1], 1.0 / 12.0, McConfig(n_paths=100, n_steps=10, seed=1, maturity=1.0 / 12.0))


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
