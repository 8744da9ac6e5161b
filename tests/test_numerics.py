import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from varsmile import LogPolyEta, TanhEta, numerics
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
        val = integrate_sqrt_singular(lambda y, d: 1.0 / np.sqrt(1.0 - y), 1.0)
        assert abs(val - 2.0) < 1e-10

    def test_polynomial(self):
        assert abs(integrate_sqrt_singular(lambda y, d: y, 1.0) - 0.5) < 1e-13

    def test_exp_singular_frozen(self):
        val = integrate_sqrt_singular(
            lambda y, d: 1.0 / np.sqrt(math.e - np.exp(y)), 1.0
        )
        assert abs(val - INT_EXP_SINGULAR) < 1e-9

    def test_exp_singular_oracle_regen(self):
        assert abs(trapezoid_oracle_exp_singular() - INT_EXP_SINGULAR) < 2e-7

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_polynomials_exact(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = float(poly.integ()(2.0) - poly.integ()(0.5))
        val = integrate_sqrt_singular(lambda y, d: poly(0.5 + y), 1.5)  # on [0.5, 2]
        assert abs(val - exact) < 1e-12

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_scaled_inverse_sqrt_exact(self, c):
        val = integrate_sqrt_singular(lambda y, d: c / np.sqrt(2.0 - y), 2.0)  # c / sqrt(3 - y) on [1, 3]
        assert abs(val - c * 2.0 * math.sqrt(2.0)) < 1e-12

    def test_singular_at_a(self):
        # dt / sqrt(t) on [0, 1], singular at the lower end: mirrored onto
        # the kernel's [0, b] with t = b - y, which the kernel passes as d
        def g(t):
            return 1.0 / np.sqrt(t)

        val = integrate_sqrt_singular(lambda y, d: g(d), 1.0)
        assert abs(val - 2.0) < 1e-12

    def test_pass_distance(self):
        val = integrate_sqrt_singular(lambda y, d: 1.0 / np.sqrt(d), 1.0)
        assert abs(val - 2.0) < 1e-12

    def test_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_PANELS", 2)
        with pytest.raises(AccuracyError) as exc:
            # sin(200 / (y + 0.01)) on [0, 1], mirrored: y = d
            integrate_sqrt_singular(lambda y, d: np.sin(200.0 / (d + 0.01)), 1.0)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error_bound >= 0

    def test_kink_as_break_single_pass(self):
        c = 0.3  # |y - c| / sqrt(1 - y) on [0, 1] integrates to 8/3 a^(3/2) - 2a + 2/3, a = 1 - c
        for breaks in ((c,), ()):
            with numerics.count_kernel_calls() as counts:
                val = integrate_sqrt_singular(lambda y, d: np.abs(y - c) / np.sqrt(d), 1.0, breaks)
            assert abs(val - (8.0 / 3.0 * 0.7**1.5 - 1.4 + 2.0 / 3.0)) <= 1e-12
            assert counts[0] == 1 and (counts[1] == 1 if breaks else counts[1] > 2)

    def test_bad_args(self):
        for b in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_sqrt_singular(lambda y, d: y, b)
        assert integrate_sqrt_singular(lambda y, d: y, 0.0) == 0.0


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


def _quadpack_reference(smooth, a, b, lower, kinks):
    """int_a^b smooth(y) / sqrt(distance to the singular end, a if ``lower``
    else b) by QUADPACK, split at the kinks; the piece at the singular end
    uses the QAWS rule, which integrates smooth against the algebraic weight
    directly.  The other pieces substitute t = sqrt(distance), which leaves
    2 smooth(y(t)) with no near-singularity however close a kink lies to the
    singular end: QUADPACK's plain rule on 1 / sqrt(y) over [2e-14, 1] is off
    by 3e-7 while reporting an error of 1e-13."""
    cuts = [a, *kinks, b]
    end, sign = (a, 1.0) if lower else (b, -1.0)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lower and lo == a:
            val = quad(smooth, lo, hi, weight="alg", wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=500)[0]
        elif not lower and hi == b:
            val = quad(smooth, lo, hi, weight="alg", wvar=(0.0, -0.5), epsabs=0.0, epsrel=1e-13, limit=500)[0]
        else:
            t_lo, t_hi = sorted((math.sqrt(abs(lo - end)), math.sqrt(abs(hi - end))))
            val = quad(lambda t: 2.0 * smooth(end + sign * t * t), t_lo, t_hi,
                       epsabs=0.0, epsrel=1e-13, limit=500)[0]
        total += val
    return total


class TestKernelAgainstQuadpack:
    """The kernel against scipy's QUADPACK on eta-shaped integrands with an
    inverse square-root singularity at either end of [a, b].  The kernel
    integrates on [0, b - a] toward the singular end, so a singularity at a
    is mirrored onto it: y = a + d, with d the distance the kernel passes."""

    @given(
        eta=st.one_of(tanh_etas, logpoly_etas),
        a=st.floats(-1.5, 1.0),
        width=st.floats(0.01, 2.0),
        lower=st.booleans(),
        invert=st.booleans(),
    )
    # a kink 0.009 inside the regular end, nearer than any node of either rule
    @example(
        eta=LogPolyEta((1.0610936958706816, -0.5490813041025937, -0.15510047301032914),
                       0.7901922965746442, 1.3581204198006676),
        a=0.42984596319252644,
        width=1.5082228037848893,
        lower=False,
        invert=True,
    )
    # the polynomial leaves the upper clamp 2e-14 above the singular end a = 0
    @example(eta=LogPolyEta((1.0625, 1e-14, -0.5), 0.5, 1.0625), a=0.0, width=1.0, lower=True, invert=False)
    # int_0^1 dy / sqrt(y) = 2, singular at the lower end
    @example(eta=TanhEta(1.0, 0.0), a=0.0, width=1.0, lower=True, invert=False)
    @settings(max_examples=60, deadline=None)
    def test_inverse_sqrt_weighted(self, eta, a, width, lower, invert):
        b = a + width
        smooth = (lambda y: 1.0 / eta.value_log(y)) if invert else eta.value_log
        val = integrate_sqrt_singular(lambda s, d: smooth(a + d if lower else b - d) / np.sqrt(d), width)
        ref = _quadpack_reference(lambda y: float(smooth(y)), a, b, lower, _clamp_kinks(eta, a, b))
        assert abs(val - ref) <= 1e-10 * abs(ref)



def _reference_kernel(f, b, breaks=()):
    """``integrate_sqrt_singular`` as it stood with the whole pass in numpy
    arrays, kept to pin the float-list pass bit for bit (counts included)."""
    if not (0.0 <= b < math.inf):
        raise ValueError(f"requires a finite b >= 0, got {b}")
    if b == 0.0:
        return 0.0
    counter = numerics._KERNEL_CALLS.get() or [0, 0]
    counter[0] += 1

    def g(u):
        d = u * u
        return 2.0 * u * f(b - d, d)

    _NODES, _RULES, _PROBE, _GL_N, _EDGE = numerics._NODES, numerics._RULES, numerics._PROBE, numerics._GL_N, numerics._EDGE
    width = math.sqrt(b)
    cuts = [math.sqrt(b - p) for p in breaks if 0.0 < p < b]  # break p sits at u = sqrt(b - p)
    cuts = np.array(sorted({0.0, *cuts, width}))
    left, half = cuts[:-1], 0.5 * (cuts[1:] - cuts[:-1])
    done = 0.0
    n_panels = left.size
    while True:
        counter[1] += 1
        x = (left + half)[:, None] + half[:, None] * _NODES
        # the panel at the singular point (always first) gets no probe there:
        # it is moved onto a node and its term dropped
        at_singular = left[0] == 0.0
        if at_singular:
            x[0, _PROBE] = x[0, _GL_N]
        vals = np.asarray(g(x.ravel()), dtype=float)
        scalar = vals.ndim == 1
        vals = vals.reshape(-1, *x.shape)
        rules = vals @ _RULES
        i_2n = half * rules[..., 1]
        off_edge = np.abs(vals[..., _PROBE:] - rules[..., 2:])
        if at_singular:
            off_edge[:, 0, 0] = 0.0
        err = np.abs(i_2n - half * rules[..., 0]) + _EDGE * half * off_edge.sum(axis=-1)
        total = done + i_2n.sum(axis=-1)
        allowed = np.maximum(numerics.ABS_TOL, numerics.REL_TOL * np.abs(total))[:, None] * (2.0 * half / width)
        ok = (err <= allowed).all(axis=0)
        # a panel below the rounding floor is accepted; 4 half (left + half) is its width in y
        if ok.all() or (ok := ok | (4.0 * half * (left + half) < 16.0 * numerics._EPS * b)).all():
            return float(total[0]) if scalar else total
        done = done + i_2n[:, ok].sum(axis=-1)
        bad = ~ok
        n_panels += int(bad.sum())
        if n_panels > numerics.MAX_PANELS:
            bound = err[:, bad].sum(axis=-1)
            raise AccuracyError(
                f"{n_panels} panels needed, budget {numerics.MAX_PANELS}",
                estimate=float(total[0]) if scalar else total,
                error_bound=float(bound[0]) if scalar else bound,
            )
        left, half = left[bad], 0.5 * half[bad]
        left = np.concatenate((left, left + 2.0 * half))
        half = np.concatenate((half, half))


def _outcome(kernel, f, b, breaks):
    """What ``kernel`` returns or raises on f, with its kernel (calls, passes).
    numpy warns on the inf - inf that Python floats form silently; the bits
    are compared, not the warnings."""
    with numerics.count_kernel_calls() as counts, np.errstate(invalid="ignore"):
        try:
            return "value", kernel(f, b, breaks), tuple(counts)
        except AccuracyError as exc:
            return str(exc), (exc.estimate, exc.error_bound), tuple(counts)


def _same_bits(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_bits, a, b))
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _rows(*fs):
    return lambda y, d: np.array([fn(y, d) for fn in fs])


_KINK = lambda y, d: np.abs(y - 0.3) / np.sqrt(d)
_SMOOTH = lambda y, d: np.exp(0.7 * y) / np.sqrt(d)


class TestReferenceKernel:
    """The float-list pass gives every bit the all-numpy pass gave: values,
    errors and kernel counts."""

    @pytest.mark.parametrize("f, b, breaks", [
        (_SMOOTH, 1.0, ()),
        (_rows(_SMOOTH, lambda y, d: y * y), 0.7, ()),
        (_rows(_SMOOTH, lambda y, d: np.cos(y), lambda y, d: 1.0 / np.sqrt(d)), 2.5, ()),
        (_KINK, 1.0, (0.3,)),
        (_rows(_KINK, _SMOOTH), 1.0, (0.3, 0.6)),
        (_rows(_KINK, _SMOOTH), 1.0, (0.1, 0.3, 0.6, -1.0, 1.0, 2.0)),
        (_rows(_KINK, lambda y, d: np.abs(y - 0.6)), 1.0, (0.05, 0.3, 0.6, 0.9)),
        (_KINK, 1.0, ()),
        (_rows(_KINK, lambda y, d: np.abs(y - 0.61)), 1.0, ()),
        (lambda y, d: np.where(y < 0.3, 1.0, 2.0), 1.0, ()),
        (lambda y, d: np.where(d < 1e-9, 2.0, 1.0), 3e-9, ()),
        (lambda y, d: np.full_like(y, np.nan), 1.0, ()),
        (_rows(_SMOOTH, lambda y, d: np.where(y > 0.7, np.nan, y)), 1.0, (0.5,)),
        (lambda y, d: np.where(y > 0.5, np.inf, 1.0), 1.0, ()),
        (lambda y, d: np.sin(200.0 / (d + 0.01)), 1.0, ()),
        (_rows(lambda y, d: np.sin(200.0 / (d + 0.01)), _SMOOTH), 1.0, (0.4,)),
    ], ids=["one_panel_one_row", "one_panel_two_rows", "one_panel_three_rows", "two_panels", "three_panels",
            "four_panels_breaks_outside_dropped", "five_panels", "bisection", "bisection_two_rows", "jump_to_floor",
            "jump_to_floor_near_b", "nan", "nan_in_part", "inf_in_part", "budget_out", "budget_out_two_rows"])
    def test_matches_reference(self, f, b, breaks):
        ref = _outcome(_reference_kernel, f, b, breaks)
        assert _same_bits(_outcome(integrate_sqrt_singular, f, b, breaks), ref)

    def test_cases_reach_each_branch(self):
        """The cases above take the branches they are named for."""
        passes = lambda f, b, breaks=(): _outcome(integrate_sqrt_singular, f, b, breaks)[2][1]
        assert passes(_SMOOTH, 1.0) == 1 and passes(_KINK, 1.0) > 2
        # a jump bisected down to the rounding floor is accepted, not a budget error
        assert _outcome(integrate_sqrt_singular, lambda y, d: np.where(y < 0.3, 1.0, 2.0), 1.0, ())[0] == "value"
        assert passes(lambda y, d: np.where(y < 0.3, 1.0, 2.0), 1.0) > 40
        for f in (lambda y, d: np.full_like(y, np.nan), lambda y, d: np.sin(200.0 / (d + 0.01))):
            message = _outcome(integrate_sqrt_singular, f, 1.0, ())[0]
            assert re.match(r"\d+ panels needed, budget 200 ", message)

    def test_budget_matches_reference(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_PANELS", 7)
        for breaks in ((), (0.2, 0.5)):
            f = _rows(_KINK, lambda y, d: np.abs(y - 0.61))
            ref = _outcome(_reference_kernel, f, 1.0, breaks)
            assert ref[0] != "value"
            assert _same_bits(_outcome(integrate_sqrt_singular, f, 1.0, breaks), ref)

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
        with pytest.raises(BracketError, match=r"no sign change on \[-1.0, 1.0\]: f=2, 2"):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_ends_evaluated_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.tanh(x - 0.3)

        find_root(f, Bracket(-1.0, 2.0))
        assert calls.count(-1.0) == 1 and calls.count(2.0) == 1

    def test_value_error_of_f_propagates(self):
        # raised at an end, and inside the bracket (Brent's first secant step lands on 0.5)
        with pytest.raises(ValueError, match="math domain error"):
            find_root(lambda x: math.log(x - 1.0), Bracket(0.0, 2.0))

        def f(x):
            if 0.3 < x < 0.7:
                raise ValueError("outside the domain of f")
            return x - 0.5

        with pytest.raises(ValueError, match="outside the domain of f"):
            find_root(f, Bracket(-1.0, 1.0))

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_small(self, shift):
        f = lambda x: math.tanh(x - shift) + 0.1 * (x - shift)
        root = find_root(f, Bracket(shift - 4.0, shift + 5.0), tol=1e-12)
        assert abs(f(root)) <= 10 * 1e-12 + 1e-12

    def test_bracket_needs_lo_below_hi(self):
        with pytest.raises(ValueError, match=r"^bracket requires lo < hi, got \[2, 1\]$"):
            Bracket(2, 1)

    def test_bracket_expansion(self):
        br = bracket_root(lambda x: x - 100.0, 0.0, 1.0)
        assert br.lo < 100.0 < br.hi
        with pytest.raises(BracketError):
            bracket_root(lambda x: x * x + 1.0, 0.0, 1.0)
