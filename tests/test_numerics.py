import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from varsmile import LogPolyEta, TanhEta
from varsmile.errors import AccuracyError, BracketError
from varsmile.numerics import (
    Bracket,
    bracket_root,
    find_root,
    integrate_sqrt_singular,
)

# Pinned by the 1e6-panel trapezoid oracle below and cross-checked against
# a 30-digit evaluation; regression-locked.
INT_EXP_SINGULAR = 1.3162182368007262


def trapezoid_oracle_exp_singular():
    u = np.linspace(0.0, 1.0, 1_000_001)
    vals = np.empty_like(u)
    vals[0] = 2.0 / math.sqrt(math.e)  # limit of 2u/sqrt(e - e^(1-u^2))
    vals[1:] = 2.0 * u[1:] / np.sqrt(math.e - np.exp(1.0 - u[1:] ** 2))
    return float(np.trapezoid(vals, u))


class TestIntegrateSqrtSingular:
    def test_inverse_sqrt_exact(self):
        val = integrate_sqrt_singular(lambda y, d: 1.0 / np.sqrt(1.0 - y), 0.0, 1.0, "b")
        assert abs(val - 2.0) < 1e-10

    def test_polynomial(self):
        assert abs(integrate_sqrt_singular(lambda y, d: y, 0.0, 1.0, "b") - 0.5) < 1e-13

    def test_exp_singular_frozen(self):
        val = integrate_sqrt_singular(
            lambda y, d: 1.0 / np.sqrt(math.e - np.exp(y)), 0.0, 1.0, "b"
        )
        assert abs(val - INT_EXP_SINGULAR) < 1e-9

    def test_exp_singular_oracle_regen(self):
        assert abs(trapezoid_oracle_exp_singular() - INT_EXP_SINGULAR) < 2e-7

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_polynomials_exact(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = float(poly.integ()(2.0) - poly.integ()(0.5))
        val = integrate_sqrt_singular(lambda y, d: poly(y), 0.5, 2.0, "b")
        assert abs(val - exact) < 1e-12

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_scaled_inverse_sqrt_exact(self, c):
        val = integrate_sqrt_singular(lambda y, d: c / np.sqrt(3.0 - y), 1.0, 3.0, "b")
        assert abs(val - c * 2.0 * math.sqrt(2.0)) < 1e-12

    def test_singular_at_a(self):
        val = integrate_sqrt_singular(lambda y, d: 1.0 / np.sqrt(y), 0.0, 1.0, "a")
        assert abs(val - 2.0) < 1e-12

    def test_pass_distance(self):
        val = integrate_sqrt_singular(lambda y, d: 1.0 / np.sqrt(d), 0.0, 1.0, "b")
        assert abs(val - 2.0) < 1e-12

    def test_budget_exhausted(self):
        with pytest.raises(AccuracyError) as exc:
            integrate_sqrt_singular(lambda y, d: np.sin(200.0 / (y + 0.01)), 0.0, 1.0, "a", max_panels=2)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error_bound >= 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            integrate_sqrt_singular(lambda y, d: y, 1.0, 0.0, "a")
        with pytest.raises(ValueError):
            integrate_sqrt_singular(lambda y, d: y, 0.0, 1.0, "middle")
        assert integrate_sqrt_singular(lambda y, d: y, 1.0, 1.0, "a") == 0.0


tanh_etas = st.builds(
    TanhEta, st.floats(0.8, 1.5), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)
)
# linear or quadratic in u, clamped: kinks wherever the polynomial meets a clamp
logpoly_etas = st.builds(
    LogPolyEta,
    st.tuples(st.floats(0.9, 1.1), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5)),
    st.floats(0.5, 0.95),
    st.floats(1.05, 1.6),
)


def _clamp_kinks(eta, a, b):
    """Points in (a, b) where a LogPolyEta's polynomial meets a clamp."""
    if not isinstance(eta, LogPolyEta):
        return []
    kinks = []
    for level in (eta.clamp_lo, eta.clamp_hi):
        roots = np.polynomial.Polynomial(eta.coeffs) - level
        kinks += [r.real for r in roots.trim(1e-8).roots() if r.imag == 0.0 and a < r.real < b]
    return sorted(kinks)


def _quadpack_reference(smooth, a, b, singular_at, kinks):
    """int_a^b smooth(y) / sqrt(distance to the singular end) by QUADPACK,
    split at the kinks; the piece at the singular end uses the QAWS rule,
    which integrates smooth against the algebraic weight directly."""
    cuts = [a, *kinks, b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if singular_at == "a" and lo == a:
            val = quad(smooth, lo, hi, weight="alg", wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=500)[0]
        elif singular_at == "b" and hi == b:
            val = quad(smooth, lo, hi, weight="alg", wvar=(0.0, -0.5), epsabs=0.0, epsrel=1e-13, limit=500)[0]
        else:
            end = a if singular_at == "a" else b
            val = quad(lambda y: smooth(y) / math.sqrt(abs(y - end)), lo, hi,
                       epsabs=0.0, epsrel=1e-13, limit=500)[0]
        total += val
    return total


class TestKernelAgainstQuadpack:
    """The kernel against scipy's QUADPACK on eta-shaped integrands with an
    inverse square-root endpoint singularity."""

    @given(
        eta=st.one_of(tanh_etas, logpoly_etas),
        a=st.floats(-1.5, 1.0),
        width=st.floats(0.01, 2.0),
        singular_at=st.sampled_from(["a", "b"]),
        invert=st.booleans(),
    )
    # a kink 0.009 inside the regular end, nearer than any node of either rule
    @example(
        eta=LogPolyEta((1.0610936958706816, -0.5490813041025937, -0.15510047301032914),
                       0.7901922965746442, 1.3581204198006676),
        a=0.42984596319252644,
        width=1.5082228037848893,
        singular_at="b",
        invert=True,
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_sqrt_weighted(self, eta, a, width, singular_at, invert):
        b = a + width
        smooth = (lambda y: 1.0 / eta.value_log(y)) if invert else eta.value_log
        val = integrate_sqrt_singular(lambda y, d: smooth(y) / np.sqrt(d), a, b, singular_at)
        ref = _quadpack_reference(lambda y: float(smooth(y)), a, b, singular_at, _clamp_kinks(eta, a, b))
        assert abs(val - ref) <= 1e-10 * abs(ref)


class TestFindRoot:
    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0))
        assert abs(root - math.sqrt(2.0)) < 1e-10

    def test_sinh_ratio(self):
        # bisection oracle to 1e-10: 1.064868548091
        root = find_root(lambda x: math.sinh(x) / x - 1.2, Bracket(0.5, 2.0))
        assert abs(root - 1.064868548091) < 1e-9

    def test_linear(self):
        assert abs(find_root(lambda x: x, Bracket(-1.0, 1.0))) < 1e-12

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_small(self, shift):
        f = lambda x: math.tanh(x - shift) + 0.1 * (x - shift)
        root = find_root(f, Bracket(shift - 4.0, shift + 5.0), tol=1e-12)
        assert abs(f(root)) <= 10 * 1e-12 + 1e-12

    def test_bracket_expansion(self):
        br = bracket_root(lambda x: x - 100.0, 0.0, 1.0)
        assert br.lo < 100.0 < br.hi
        with pytest.raises(BracketError):
            bracket_root(lambda x: x * x + 1.0, 0.0, 1.0, max_expansions=5)
