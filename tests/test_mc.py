import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from varsmile import mc
from varsmile import (
    ConstantEta,
    ConstantSigma,
    LogPolySigma,
    LsvModel,
    McConfig,
    discrete_rv_diagnostic,
    forward_variance_limit,
    load_model,
    mc_price,
    mc_smile,
    simulate_realized_variance,
)

KINKED = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "models" / "kinked.json")


def small_cfg(**kw):
    base = dict(n_paths=4000, n_steps=100, seed=11, maturity=1.0 / 12.0)
    base.update(kw)
    return McConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=1)
        with pytest.raises(ValueError):
            McConfig(n_paths=101, antithetic=True)
        with pytest.raises(ValueError):
            McConfig(n_steps=0)
        with pytest.raises(ValueError):
            McConfig(maturity=0.0)

    def test_needs_two_streams(self):
        # one antithetic pair leaves no standard error (ddof=1)
        with pytest.raises(ValueError, match="2 independent streams"):
            McConfig(n_paths=2)
        with pytest.raises(ValueError, match="2 independent streams"):
            McConfig(n_paths=1, antithetic=False)
        assert McConfig(n_paths=4).n_streams == 2
        assert McConfig(n_paths=2, antithetic=False).n_streams == 2

    def test_streams(self):
        assert McConfig(n_paths=100).n_streams == 50
        assert McConfig(n_paths=100, antithetic=False).n_streams == 100


class TestDeterminism:
    def test_same_seed_bitwise(self, tanh_model):
        cfg = small_cfg()
        a = simulate_realized_variance(tanh_model, cfg)
        b = simulate_realized_variance(tanh_model, cfg)
        assert np.array_equal(a, b)

    def test_seed_changes_draw(self, tanh_model):
        a = simulate_realized_variance(tanh_model, small_cfg(seed=1))
        b = simulate_realized_variance(tanh_model, small_cfg(seed=2))
        assert not np.array_equal(a, b)


class TestDrawLayout:
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_step_block_invariance(self, tanh_model, monkeypatch, block):
        cfg = small_cfg(n_paths=4200, n_steps=100)
        monkeypatch.setattr(mc, "_STEP_BLOCK", cfg.n_steps)
        rv_ref, logs_ref = mc._simulate_core(tanh_model, cfg, sample_stride=10)
        monkeypatch.setattr(mc, "_STEP_BLOCK", block)
        rv, logs = mc._simulate_core(tanh_model, cfg, sample_stride=10)
        assert np.array_equal(rv, rv_ref)
        assert np.array_equal(logs, logs_ref)

    @pytest.mark.parametrize("antithetic, small, large", [(True, 8192, 12288), (False, 4096, 6144)])
    def test_full_chunks_nested(self, tanh_model, antithetic, small, large):
        a = simulate_realized_variance(tanh_model, small_cfg(n_paths=small, n_steps=5, antithetic=antithetic))
        b = simulate_realized_variance(tanh_model, small_cfg(n_paths=large, n_steps=5, antithetic=antithetic))
        assert np.array_equal(a, b[:small])


# References for the bit pins below: the plain Euler step loop with per-step
# antithetic signs, and pair means by a length-2 reduce.  The kernel and the
# estimator must reproduce them bit for bit.
def _reference_chunk(model, cfg, lo, hi, dt, sample_stride, rv_out, logs_out):
    n_steps = cfg.n_steps
    m = hi - lo
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, lo // mc._CHUNK_STREAMS]))
    nb = mc._STEP_BLOCK
    rho = model.rho
    root = math.sqrt(max(1.0 - rho * rho, 0.0))
    sqdt = math.sqrt(dt)
    drift_s = (model.r - model.q) * dt
    v0 = model.v0
    signs = np.array([1.0, -1.0] if cfg.antithetic else [1.0])[:, None]
    shape = (signs.shape[0], m)
    us = np.zeros(shape)
    wv = np.zeros(shape)
    acc = np.zeros(shape)
    if sample_stride is not None:
        caps = np.zeros((n_steps // sample_stride + 1,) + shape)
    for i in range(n_steps):
        if i % nb == 0:
            block = gen.standard_normal((min(nb, n_steps - i), 2, m))
        z, w = block[i % nb]
        ez = signs * z
        ew = signs * w
        v = v0 * np.exp(wv)
        eta = model.eta.value_log(us)
        sig = model.sigma.value_log(wv)
        mu = np.asarray(model.mu_eval(v), dtype=float)
        ev = eta * eta * v
        acc += ev * dt
        us += drift_s - 0.5 * ev * dt + eta * np.sqrt(v) * (rho * ez + root * ew) * sqdt
        wv += (mu - 0.5 * sig * sig) * dt + sig * ez * sqdt
        if sample_stride is not None and (i + 1) % sample_stride == 0:
            caps[(i + 1) // sample_stride] = us
    rv = acc / cfg.maturity
    if cfg.antithetic:
        rv_out[2 * lo : 2 * hi : 2] = rv[0]
        rv_out[2 * lo + 1 : 2 * hi : 2] = rv[1]
        if sample_stride is not None:
            logs_out[2 * lo : 2 * hi : 2] = caps[:, 0, :].T
            logs_out[2 * lo + 1 : 2 * hi : 2] = caps[:, 1, :].T
    else:
        rv_out[lo:hi] = rv[0]
        if sample_stride is not None:
            logs_out[lo:hi] = caps[:, 0, :].T


def _reference_simulate(model, cfg, sample_stride):
    dt = cfg.maturity / cfg.n_steps
    rv = np.empty(cfg.n_paths)
    logs = np.empty((cfg.n_paths, cfg.n_steps // sample_stride + 1))
    for lo in range(0, cfg.n_streams, mc._CHUNK_STREAMS):
        hi = min(lo + mc._CHUNK_STREAMS, cfg.n_streams)
        _reference_chunk(model, cfg, lo, hi, dt, sample_stride, rv, logs)
    return rv, logs


def _reference_estimate(samples, cfg, half=None):
    pairs = samples.reshape(-1, 2).mean(axis=1) if cfg.antithetic else samples
    n = pairs.size
    return mc.McEstimate(
        mean=float(np.mean(pairs)),
        stderr=float(np.std(pairs, ddof=1) / math.sqrt(n)),
        n_effective=n,
        seed=cfg.seed,
        config=cfg,
    )


class TestBitPin:
    # 2348 streams: one full chunk and a partial one; 70 steps: a partial block
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7])
    @pytest.mark.parametrize("case", ["tanh", "kinked", "tanh_mu", "tanh_mu_callable", "flat_logpoly_sigma"])
    def test_matches_reference_loop(self, tanh_model, monkeypatch, case, rho, antithetic):
        model = {
            "tanh": tanh_model,  # constant sigma, mu = 0
            "kinked": KINKED,  # clamped logpoly eta and sigma
            "tanh_mu": replace(tanh_model, mu=0.4),
            "tanh_mu_callable": replace(tanh_model, mu=lambda v: 0.3 - 2.0 * v),
            # a constant LogPolySigma; 1.7 is not a power of 2, so (s z) sqrt(dt) rounds
            "flat_logpoly_sigma": replace(tanh_model, sigma=LogPolySigma(1.7, 0.0)),
        }[case].with_rho(rho)
        streams, steps = mc._CHUNK_STREAMS + 300, 70
        assert steps % mc._STEP_BLOCK != 0
        cfg = McConfig(n_paths=streams * (2 if antithetic else 1), n_steps=steps, seed=17,
                       maturity=1.0 / 12.0, antithetic=antithetic)

        rv, logs = mc._simulate_core(model, cfg, sample_stride=7)
        rv_ref, logs_ref = _reference_simulate(model, cfg, sample_stride=7)
        assert np.array_equal(rv, rv_ref)
        assert np.array_equal(logs, logs_ref)
        assert np.array_equal(simulate_realized_variance(model, cfg), rv_ref)

        f0 = forward_variance_limit(model)
        strikes = [f0 * math.exp(x) for x in (-0.3, -0.05, 0.0, 0.2)]
        smile = mc_smile(model, strikes, cfg.maturity, cfg, samples=rv)
        price = mc_price(model, f0, cfg, samples=rv)
        monkeypatch.setattr(mc, "_estimate", _reference_estimate)
        assert smile == mc_smile(model, strikes, cfg.maturity, cfg, samples=rv)
        assert price == mc_price(model, f0, cfg, samples=rv)


class TestPricing:
    def test_pathwise_parity(self, tanh_model):
        cfg = small_cfg()
        rv = simulate_realized_variance(tanh_model, cfg)
        k = 0.1
        call_pay = np.maximum(rv - k, 0.0)
        put_pay = np.maximum(k - rv, 0.0)
        assert np.array_equal(call_pay - put_pay, rv - k)

    def test_estimate_parity(self, tanh_model):
        cfg = small_cfg()
        call, put, fwd = mc_price(tanh_model, 0.1, cfg)
        disc = math.exp(-tanh_model.r * cfg.maturity)
        assert abs(call.mean - put.mean - disc * (fwd.mean - 0.1)) < 1e-15

    def test_zero_strike(self, tanh_model):
        cfg = small_cfg()
        call, put, fwd = mc_price(tanh_model, 0.0, cfg)
        assert put.mean == 0.0
        assert abs(call.mean - math.exp(-tanh_model.r * cfg.maturity) * fwd.mean) < 1e-15

    def test_frozen_variance_limit(self):
        # near-frozen vol-of-vol pins the realized variance at eta0^2 V0
        m = LsvModel(s0=1.0, v0=0.04, rho=0.0, eta=ConstantEta(2.0), sigma=ConstantSigma(1e-6))
        cfg = small_cfg(n_paths=2000)
        _, _, fwd = mc_price(m, 0.16, cfg)
        assert abs(fwd.mean - 0.16) <= max(3.0 * fwd.stderr, 1e-7)

    def test_estimate_metadata(self, tanh_model):
        cfg = small_cfg()
        _, _, fwd = mc_price(tanh_model, 0.1, cfg)
        assert fwd.seed == cfg.seed
        assert fwd.config == cfg
        assert fwd.n_effective == cfg.n_paths // 2

    def test_stderr_scaling(self, tanh_model):
        # 1/sqrt(n) within 20 percent across a 16x range
        ses = []
        for n in (10_000, 40_000, 160_000):
            cfg = McConfig(n_paths=n, n_steps=20, seed=5, maturity=1.0 / 12.0)
            call, _, _ = mc_price(tanh_model, 0.1, cfg)
            ses.append(call.stderr)
        assert abs(ses[0] / ses[1] - 2.0) < 0.4
        assert abs(ses[1] / ses[2] - 2.0) < 0.4

    def test_variance_drift_moves_forward(self):
        # eta == 1 and constant drift mu: E[RV] = V0 (e^{mu T} - 1)/(mu T)
        mu, t = 0.5, 1.0 / 12.0
        expect = 0.1 * (math.exp(mu * t) - 1.0) / (mu * t)
        for drift in (mu, lambda v: np.full_like(np.asarray(v, dtype=float), mu)):
            m = LsvModel(
                s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0),
                sigma=ConstantSigma(2.0), mu=drift,
            )
            cfg = McConfig(n_paths=40_000, n_steps=100, seed=31, maturity=t)
            _, _, fwd = mc_price(m, 0.1, cfg)
            assert abs(fwd.mean - expect) <= 3.0 * fwd.stderr

    def test_flat_leverage_forward_near_limit(self):
        # eta == 1: V is a martingale and the scheme preserves that exactly,
        # so the forward sits at V0 up to sampling error
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
        cfg = McConfig(n_paths=40_000, n_steps=100, seed=21, maturity=1.0 / 12.0)
        _, _, fwd = mc_price(m, 0.1, cfg)
        assert abs(fwd.mean - 0.1) <= 3.0 * fwd.stderr

    def test_weak_convergence_in_steps(self, tanh_model):
        cfg1 = McConfig(n_paths=20_000, n_steps=100, seed=9, maturity=1.0 / 12.0)
        cfg2 = McConfig(n_paths=20_000, n_steps=200, seed=9, maturity=1.0 / 12.0)
        _, _, f1 = mc_price(tanh_model, 0.1, cfg1)
        _, _, f2 = mc_price(tanh_model, 0.1, cfg2)
        assert abs(f1.mean - f2.mean) <= 2.0 * max(f1.stderr, f2.stderr) + 5e-5


class TestSmile:
    def test_smile_rows(self, tanh_model):
        cfg = small_cfg(n_paths=20_000)
        f0 = forward_variance_limit(tanh_model)
        strikes = [f0 * math.exp(x) for x in (-0.3, 0.0, 0.3)]
        sm = mc_smile(tanh_model, strikes, 1.0 / 252.0, cfg)
        assert len(sm.rows) == 3
        assert sm.maturity == 1.0 / 252.0
        xs = [r.x for r in sm]
        assert abs(xs[0] + 0.3) < 1e-12 and abs(xs[2] - 0.3) < 1e-12
        assert all(math.isfinite(r.ivol) or not r.reliable for r in sm)

    def test_deep_strike_unreliable(self, tanh_model):
        cfg = small_cfg(n_paths=2000)
        f0 = forward_variance_limit(tanh_model)
        sm = mc_smile(tanh_model, [f0 * math.exp(2.5)], 1.0 / 252.0, cfg)
        assert not sm.rows[0].reliable

    def test_rejects_bad_strikes(self, tanh_model):
        with pytest.raises(ValueError):
            mc_smile(tanh_model, [0.1, -0.1], 1.0 / 12.0, small_cfg())

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_non_finite_strikes(self, tanh_model, k):
        with pytest.raises(ValueError, match="finite"):
            mc_smile(tanh_model, [0.1, k], 1.0 / 12.0, small_cfg())
        with pytest.raises(ValueError, match="finite"):
            mc_price(tanh_model, k, small_cfg())

    def test_rejects_samples_of_other_length(self, tanh_model):
        cfg = small_cfg(n_paths=200, n_steps=10)
        short = simulate_realized_variance(tanh_model, cfg)[:100]
        with pytest.raises(ValueError, match="samples"):
            mc_smile(tanh_model, [0.1], cfg.maturity, cfg, samples=short)
        with pytest.raises(ValueError, match="samples"):
            mc_price(tanh_model, 0.1, cfg, samples=short)


class TestDiscreteDiagnostic:
    def test_divisibility(self, tanh_model):
        with pytest.raises(ValueError):
            discrete_rv_diagnostic(tanh_model, small_cfg(n_steps=100), 7)

    def test_full_resolution_gap_small(self, tanh_model):
        cfg = McConfig(n_paths=2000, n_steps=2000, seed=3, maturity=1.0 / 12.0)
        diag = discrete_rv_diagnostic(tanh_model, cfg, 2000)
        assert abs(diag.mean_relative_gap) <= 0.05

    def test_single_interval_tiny_maturity(self, tanh_model):
        cfg = McConfig(n_paths=4000, n_steps=8, seed=3, maturity=1e-4)
        diag = discrete_rv_diagnostic(tanh_model, cfg, 1)
        # one-increment square: unbiased-ish but noisy; mean gap stays moderate
        assert abs(diag.mean_relative_gap) <= 0.2
        assert diag.discrete.shape == diag.continuous.shape

    def test_deterministic(self, tanh_model):
        cfg = small_cfg(n_steps=100)
        a = discrete_rv_diagnostic(tanh_model, cfg, 10)
        b = discrete_rv_diagnostic(tanh_model, cfg, 10)
        assert np.array_equal(a.discrete, b.discrete)
        assert np.array_equal(a.continuous, b.continuous)


def test_positivity_by_construction(tanh_model):
    rv = simulate_realized_variance(tanh_model, small_cfg())
    assert np.all(rv > 0)
