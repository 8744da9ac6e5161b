import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    eta_eval,
    forward_variance_limit,
    log_moneyness,
    model_from_dict,
    model_to_dict,
    validate,
)
from varsmile import model as model_mod
from varsmile.model import clamp_points, load_model, save_model


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

    def test_logpoly_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="^need at least one coefficient$"):
            LogPolyEta((), 0.85, 1.15)

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


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _coef(a):
    # every float in [-a, a], subnormals included
    return st.floats(-a, a)


class TestSharedShapes:
    """The eta and sigma of one shape are one implementation: equal
    parameters give bit-identical values."""

    U = np.linspace(-4.0, 4.0, 161)

    def _same(self, a, b):
        for u in (self.U, 0.0, 1.5):
            assert _bits(a.value_log(u)) == _bits(b.value_log(u))
            assert _bits(a.dvalue_log(u)) == _bits(b.dvalue_log(u))
        assert _bits(a.log_coeffs()) == _bits(b.log_coeffs())
        assert a.is_constant == b.is_constant
        assert _bits(clamp_points(a)) == _bits(clamp_points(b))

    @given(_coef(3.0), _coef(2.0), _coef(1.0), st.floats(0.01, 2.0), st.floats(0.0, 3.0))
    @example(0.0, 2.2e-311, 0.0, 1.0, 0.0)  # clamp points past the float range
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_logpoly(self, c0, c1, c2, lo, width):
        hi = lo + width
        self._same(LogPolyEta((c0, c1, c2), lo, hi), LogPolySigma(c0, c1, c2, lo, hi))

    @given(st.floats(0.01, 5.0))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_constant(self, c):
        self._same(ConstantEta(c), ConstantSigma(c))


class TestClampPoints:
    def test_roots_past_the_float_range_dropped(self):
        # a slope of 2.2e-311 meets the clamps only past the float range
        assert clamp_points(LogPolyEta((0.0, 2.2e-311, 0.0), 1.0, 1.0)) == ()
        # a u^2 coefficient of 1e-310 adds a second root past it at each clamp
        tiny = LogPolyEta((1.0, -0.3, 1e-310), 0.85, 1.15)
        assert clamp_points(tiny) == clamp_points(LogPolyEta((1.0, -0.3), 0.85, 1.15))
        assert np.allclose(clamp_points(tiny), (-0.5, 0.5), rtol=1e-15, atol=0.0)


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
    # validate judges the model; log_moneyness makes the strike decision
    def test_otm_call(self, tanh_model):
        assert validate(tanh_model).valid and log_moneyness(tanh_model, 0.12) > 0.0

    def test_atm(self, tanh_model):
        assert log_moneyness(tanh_model, 0.1) == 0.0

    def test_otm_put(self, tanh_model):
        assert log_moneyness(tanh_model, 0.05) < 0.0

    def test_eta_not_positive(self):
        rep = validate(make(TanhEta(1.0, -1.5, 0.0)))
        assert not rep.valid
        assert any("eta" in e for e in rep.errors)

    @pytest.mark.parametrize("eta0, v0", [(1e-200, 0.04), (1e-160, 5e-324), (1e200, 0.04), (1e150, 1e20)])
    def test_forward_variance_underflow_rejected(self, eta0, v0):
        # eta(S0) and V0 are positive, but eta(S0)^2 V0 rounds to 0, or
        # overflows (eta(S0)^2 itself raises OverflowError at 1e200)
        m = LsvModel(s0=1.0, v0=v0, rho=0.0, eta=ConstantEta(eta0), sigma=ConstantSigma(1.0))
        rep = validate(m)
        assert not rep.valid and any("F_V(0)" in e for e in rep.errors)
        for call in (lambda: log_moneyness(m, 0.01), lambda: forward_variance_limit(m)):
            with pytest.raises(ValueError, match=r"F_V\(0\) = eta\(S0\)\^2 V0 must be positive and finite"):
                call()

    def test_sigma_not_positive(self):
        rep = validate(make(ConstantEta(1.0), LogPolySigma(-1.0, 0.0, 0.0, -2.0, 2.0)))
        assert not rep.valid and "sigma not positive on the log grid" in rep.errors

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

    @pytest.mark.parametrize(
        "part, change, key",
        [
            ("eta", {"type": "tanh", "f1": -0.1}, "f0"),
            ("sigma", {"type": "logpoly", "sigma1": 0.5}, "sigma0"),
            ("eta", {"type": "tanh", "f0": 1.0, "f1": None}, "f1"),
            ("eta", {"type": "tanh", "f0": 1.0, "f1": "-0.1"}, "f1"),
            ("eta", {"type": "logpoly", "coeffs": 3, "clamp_lo": 0.5, "clamp_hi": 2.0}, "coeffs"),
            ("eta", {"type": "logpoly", "coeffs": [1.0, None], "clamp_lo": 0.5, "clamp_hi": 2.0}, "coeffs"),
            ("eta", 5, "eta"),
            ("sigma", [2.0], "sigma"),
            ("sigma", {"sigma0": 2.0}, "type"),
            (None, {"s0": None}, "s0"),
            (None, {"rho": True}, "rho"),
        ],
    )
    def test_malformed_value_names_key(self, tanh_model, part, change, key):
        d = model_to_dict(tanh_model)
        if part is None:
            d.update(change)
        else:
            d[part] = change
        with pytest.raises(ValueError, match=key):
            model_from_dict(d)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="object"):
            model_from_dict([1.0, 0.1])

    def test_defaults_from_the_dataclass(self, tanh_model):
        d = model_to_dict(tanh_model)
        d["eta"] = {"type": "tanh", "f0": 1, "f1": -0.1}
        d["sigma"] = {"type": "logpoly", "sigma0": 2}
        m = model_from_dict(d)
        assert m.eta == TanhEta(1.0, -0.1, 0.0)
        assert m.sigma == LogPolySigma(2.0)
        assert m.sigma.sigma1 == 0.0 and m.sigma.clamp_lo == 1e-4 and m.sigma.clamp_hi == 1e4
        assert all(type(v) is float for v in model_to_dict(m)["eta"].values() if v != "tanh")
        from varsmile.cli import _model_hash

        assert _model_hash(m) == "63252e7b0dd60bf1"  # the hash this file had before defaults moved

    @pytest.mark.parametrize("key", ["r", "q"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, tanh_model, tmp_path, key, value):
        # json.load accepts the NaN and Infinity literals that json.dumps writes
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**model_to_dict(tanh_model), key: value}))
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            load_model(path)

    def test_callable_drift_rejected(self, tanh_model):
        # a drift that a model file cannot hold is refused when the model is made
        for mu in (lambda v: 0.1 * v, math.nan, math.inf):
            with pytest.raises(ValueError, match="mu must be a finite number"):
                replace(tanh_model, mu=mu)


def test_exact_diff_identity():
    eta = TanhEta(1.0, -0.1, 0.3)
    u1, u2 = 0.123456, 0.123455
    direct = float(eta.value_log(u1) - eta.value_log(u2))
    stable = float(eta.diff_log(u1, u2, u1 - u2))
    assert abs(direct - stable) < 1e-12
    # and at tiny separation the stable form stays proportional to delta
    d = 1e-14
    assert abs(float(eta.diff_log(0.5, 0.5 - d, delta=d)) / d - float(eta.dvalue_log(0.5))) < 1e-6


def test_exact_diff_identity_logpoly():
    eta = LogPolyEta((1.0, -0.15, 0.02, 0.005), clamp_lo=0.3, clamp_hi=2.0)
    for u1, u2 in ((0.4, 0.1), (-0.2, -0.200001), (0.7, 0.7)):
        direct = float(eta.value_log(u1) - eta.value_log(u2))
        stable = float(eta.diff_log(u1, u2, u1 - u2))
        assert abs(direct - stable) < 1e-12
    d = 1e-13
    assert abs(float(eta.diff_log(0.3, 0.3 - d, delta=d)) / d - float(eta.dvalue_log(0.3))) < 1e-5


@pytest.mark.parametrize("coeffs", [(1.0, -0.3), (1.0, -0.15, 0.02), (1.0, -0.15, 0.02, 0.005)],
                         ids=["deg1", "deg2", "deg3"])
def test_diff_log_evaluates_each_polynomial_once(monkeypatch, coeffs):
    # the clamp test and the plain difference share one Horner value per argument
    horner, calls = model_mod._horner, []

    def spy(u, c):
        calls.append((u, c))
        return horner(u, c)

    monkeypatch.setattr(model_mod, "_horner", spy)
    eta = LogPolyEta(coeffs, clamp_lo=0.9, clamp_hi=1.1)
    u1 = np.linspace(-1.0, 1.0, 9)
    eta.diff_log(u1, u1 - 1e-3, delta=np.full(9, 1e-3))
    assert len(calls) == 2 and all(c == eta.coeffs for _, c in calls)
    assert np.array_equal(calls[0][0], u1) and np.array_equal(calls[1][0], u1 - 1e-3)


def test_diff_log_matches_exact_arithmetic():
    # degree 4, inside the clamps on [-1, 1]: within 4 eps of the exact difference
    coeffs = (1.0, -0.15, 0.02, 0.005, -0.001)
    eta = LogPolyEta(coeffs, clamp_lo=0.5, clamp_hi=2.0)
    poly = lambda u: sum(Fraction(c) * Fraction(u) ** k for k, c in enumerate(coeffs))
    u2 = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for sep in 10.0 ** -np.arange(3, 13):
        u1 = u2 + sep
        delta = u1 - u2
        got = eta.diff_log(u1, u2, delta)
        for a, b, d, g in zip(u1, u2, delta, got):
            assert Fraction(d) == Fraction(a) - Fraction(b)  # delta is the exact separation
            exact = poly(a) - poly(b)
            worst = max(worst, abs(float((Fraction(g) - exact) / exact)))
    assert worst <= 4.0 * np.finfo(float).eps
