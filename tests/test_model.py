import json
import math
from dataclasses import replace

import numpy as np
import pytest

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    eta_eval,
    forward_variance_limit,
    model_from_dict,
    model_to_dict,
    validate,
)
from varsmile.model import load_model, save_model, sigma_eval


def make(eta, sigma=None, rho=0.0, v0=0.1):
    return LsvModel(s0=1.0, v0=v0, rho=rho, eta=eta, sigma=sigma or ConstantSigma(2.0))


class TestEtaEval:
    def test_tanh_at_spot(self, tanh_model):
        assert eta_eval(tanh_model, 1.0) == 1.0

    def test_constant(self):
        m = make(ConstantEta(1.0))
        assert eta_eval(m, 0.37) == 1.0
        assert eta_eval(m, 42.0) == 1.0

    def test_tanh_at_e(self, tanh_model):
        expect = 1.0 - 0.1 * math.tanh(1.0)
        assert abs(eta_eval(tanh_model, math.e) - expect) < 1e-15

    def test_rejects_nonpositive(self, tanh_model):
        with pytest.raises(ValueError):
            eta_eval(tanh_model, 0.0)
        with pytest.raises(ValueError):
            eta_eval(tanh_model, -1.0)

    def test_continuous_and_decreasing(self, tanh_model):
        s = np.exp(np.linspace(-4, 4, 1000))
        vals = eta_eval(tanh_model, s)
        assert np.all(np.diff(vals) < 0)
        assert np.max(np.abs(np.diff(vals))) < 0.01  # no jumps on a fine grid

    def test_logpoly_clamps(self):
        eta = LogPolyEta((1.0, -0.5), clamp_lo=0.5, clamp_hi=1.5)
        m = make(eta)
        assert eta_eval(m, 100.0) == 0.5
        assert eta_eval(m, 1e-4) == 1.5


class TestLogCoeffs:
    def test_tanh_x0_zero(self, tanh_model):
        assert tanh_model.eta.log_coeffs() == (1.0, -0.1, -0.0)

    def test_constant(self):
        assert make(ConstantEta(2.0)).eta.log_coeffs() == (2.0, 0.0, 0.0)

    def test_tanh_shifted(self):
        m = make(TanhEta(1.0, -0.1, 0.5))
        e0, e1, e2 = m.eta.log_coeffs()
        assert abs(e0 - (1.0 + 0.1 * math.tanh(0.5))) < 1e-15
        assert abs(e1 - (-0.1 / math.cosh(0.5) ** 2)) < 1e-15
        assert abs(e2 - (-0.1 * math.tanh(0.5) / math.cosh(0.5) ** 2)) < 1e-15

    def test_sigma_constant(self):
        assert make(ConstantEta(1.0), ConstantSigma(2.0)).sigma.log_coeffs() == (2.0, 0.0, 0.0)
        assert make(ConstantEta(1.0), ConstantSigma(0.3)).sigma.log_coeffs() == (0.3, 0.0, 0.0)

    def test_sigma_logpoly(self):
        m = make(ConstantEta(1.0), LogPolySigma(1.0, 0.5, 0.0))
        assert m.sigma.log_coeffs() == (1.0, 0.5, 0.0)

    @pytest.mark.parametrize(
        "eta",
        [TanhEta(1.0, -0.1, 0.0), TanhEta(0.8, 0.3, -0.7), LogPolyEta((1.0, 0.2, -0.05), 0.3, 3.0)],
    )
    def test_matches_finite_differences(self, eta):
        m = make(eta)
        e0, e1, e2 = m.eta.log_coeffs()
        f = lambda u: float(m.eta.value_log(u))
        h = 1e-4
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert abs(e0 - f(0.0)) < 1e-12
        assert abs(e1 - d1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(e2 - 0.5 * d2) <= 1e-6 * max(1.0, abs(d2))


class TestForwardVarianceLimit:
    def test_tanh(self, tanh_model):
        assert forward_variance_limit(tanh_model) == 0.1

    def test_constant(self):
        m = make(ConstantEta(2.0), v0=0.04)
        assert forward_variance_limit(m) == 0.16

    def test_shifted_tanh(self):
        m = make(TanhEta(1.0, -0.1, 0.5))
        e0 = 1.0 + 0.1 * math.tanh(0.5)
        assert abs(forward_variance_limit(m) - e0 * e0 * 0.1) < 1e-16

    def test_equals_eta_eval_square(self, tanh_model):
        assert forward_variance_limit(tanh_model) == eta_eval(tanh_model, 1.0) ** 2 * 0.1


class TestValidate:
    def test_otm_call(self, tanh_model):
        rep = validate(tanh_model, strike=0.12)
        assert rep.valid and rep.moneyness == "otm_call"

    def test_atm(self, tanh_model):
        rep = validate(tanh_model, strike=0.1)
        assert rep.valid and rep.moneyness == "atm"

    def test_otm_put(self, tanh_model):
        assert validate(tanh_model, strike=0.05).moneyness == "otm_put"

    @pytest.mark.parametrize("k", [0.0, math.inf, math.nan])
    def test_strike_not_positive_and_finite(self, tanh_model, k):
        rep = validate(tanh_model, strike=k)
        assert not rep.valid and rep.moneyness is None

    def test_eta_not_positive(self):
        rep = validate(make(TanhEta(1.0, -1.5, 0.0)))
        assert not rep.valid
        assert any("eta" in e for e in rep.errors)

    def test_increasing_eta_warns(self):
        rep = validate(make(TanhEta(1.0, 0.3, 0.0)))
        assert rep.valid
        assert any("increasing" in w for w in rep.warnings)

    def test_non_monotone_warns_not_rejects(self):
        rep = validate(make(LogPolyEta((1.0, 0.0, 0.1), 0.5, 2.0)))
        assert rep.valid
        assert any("monotone" in w for w in rep.warnings)

    def test_rho_out_of_range_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make(ConstantEta(1.0), rho=1.5)
        with pytest.raises(ValueError):
            LsvModel(s0=-1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(1.0))


class TestJson:
    def test_round_trip(self, tanh_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(tanh_model, path)
        again = load_model(path)
        assert again == tanh_model

    def test_round_trip_logpoly(self, tmp_path):
        m = make(LogPolyEta((1.0, -0.2, 0.05), 0.4, 2.5), LogPolySigma(1.5, 0.1, 0.0, 0.1, 10.0))
        path = tmp_path / "m.json"
        save_model(m, path)
        assert load_model(path) == m

    def test_unknown_top_key(self, tanh_model):
        d = model_to_dict(tanh_model)
        d["kappa"] = 1.0
        with pytest.raises(ValueError, match="kappa"):
            model_from_dict(d)

    def test_unknown_nested_key(self, tanh_model):
        d = model_to_dict(tanh_model)
        d["eta"]["slope"] = 1.0
        with pytest.raises(ValueError, match="slope"):
            model_from_dict(d)

    def test_missing_key(self, tanh_model):
        d = model_to_dict(tanh_model)
        del d["v0"]
        with pytest.raises(ValueError, match="v0"):
            model_from_dict(d)

    def test_documented_key_names(self, tanh_model):
        d = model_to_dict(tanh_model)
        assert set(d) == {"s0", "v0", "rho", "r", "q", "eta", "sigma"}

    def test_round_trip_drift(self, tanh_model, tmp_path):
        m = replace(tanh_model, mu=-0.35)
        assert model_to_dict(m)["mu"] == -0.35
        path = tmp_path / "m.json"
        save_model(m, path)
        assert load_model(path) == m

    def test_drift_changes_hash(self, tanh_model):
        from varsmile.cli import _model_hash

        assert _model_hash(replace(tanh_model, mu=0.2)) != _model_hash(tanh_model)
        assert _model_hash(replace(tanh_model, mu=0.0)) == _model_hash(tanh_model)

    def test_callable_drift_rejected(self, tanh_model):
        with pytest.raises(ValueError, match="callable"):
            model_to_dict(replace(tanh_model, mu=lambda v: 0.1 * v))


class TestSigmaEval:
    def test_constant(self, tanh_model):
        assert sigma_eval(tanh_model, 0.5) == 2.0

    def test_logpoly_clamps(self):
        m = make(ConstantEta(1.0), LogPolySigma(1.0, -2.0, 0.0, clamp_lo=0.2, clamp_hi=3.0))
        assert sigma_eval(m, m.v0 * math.e**5) == 0.2
        assert sigma_eval(m, m.v0 * math.e**-5) == 3.0

    def test_rejects_nonpositive(self, tanh_model):
        with pytest.raises(ValueError):
            sigma_eval(tanh_model, 0.0)


def test_exact_diff_identity():
    eta = TanhEta(1.0, -0.1, 0.3)
    u1, u2 = 0.123456, 0.123455
    direct = float(eta.value_log(u1) - eta.value_log(u2))
    stable = float(eta.diff_log(u1, u2))
    assert abs(direct - stable) < 1e-12
    # and at tiny separation the stable form stays proportional to delta
    d = 1e-14
    assert abs(float(eta.diff_log(0.5, 0.5 - d, delta=d)) / d - float(eta.dvalue_log(0.5))) < 1e-6


def test_exact_diff_identity_logpoly():
    eta = LogPolyEta((1.0, -0.15, 0.02, 0.005), clamp_lo=0.3, clamp_hi=2.0)
    for u1, u2 in ((0.4, 0.1), (-0.2, -0.200001), (0.7, 0.7)):
        direct = float(eta.value_log(u1) - eta.value_log(u2))
        stable = float(eta.diff_log(u1, u2))
        assert abs(direct - stable) < 1e-12
    d = 1e-13
    assert abs(float(eta.diff_log(0.3, 0.3 - d, delta=d)) / d - float(eta.dvalue_log(0.3))) < 1e-5
