import math
import sys
import threading
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
    McEstimate,
    TanhEta,
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
            McConfig(n_paths=101)  # paths come in antithetic pairs
        with pytest.raises(ValueError):
            McConfig(n_steps=0)
        with pytest.raises(ValueError):
            McConfig(maturity=0.0)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                McConfig(maturity=t)
        # a float count passed these checks, then failed inside numpy
        with pytest.raises(ValueError, match="even integer n_paths"):
            McConfig(n_paths=10.0, n_steps=4)
        for steps in (2.5, 4.0):
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                McConfig(n_steps=steps)
        assert McConfig(n_paths=np.int64(10), n_steps=np.int32(4)).n_streams == 5
        # a bool is an int to isinstance, but no count: True would run one step from seed 1
        for flag in (True, False):
            with pytest.raises(ValueError, match="even integer n_paths"):
                McConfig(n_paths=flag)
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                McConfig(n_paths=4, n_steps=flag)
            with pytest.raises(ValueError, match="seed must be an integer"):
                McConfig(n_paths=4, seed=flag)

    def test_estimate_must_be_finite(self):
        with pytest.raises(ValueError, match="^estimate must be finite with nonnegative stderr$"):
            McEstimate(math.nan, 0.0, 2, 0, McConfig(n_paths=4))

    def test_needs_two_streams(self):
        # one antithetic pair leaves no standard error (ddof=1)
        with pytest.raises(ValueError, match="2 independent streams"):
            McConfig(n_paths=2)
        assert McConfig(n_paths=4).n_streams == 2

    def test_streams(self):
        assert McConfig(n_paths=100).n_streams == 50

    @pytest.mark.parametrize("seed", [2**63, 2**64, -1, 1.5])
    def test_seed_outside_the_philox_key(self, seed):
        # above 2**63 - 1 numpy casts the key to float64 (2**63 and 2**63 + 1
        # draw alike) or overflows; 1.5 would draw as 1
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*63\)"):
            McConfig(seed=seed)

    def test_largest_seed_simulates(self, tanh_model):
        rv = simulate_realized_variance(tanh_model, McConfig(n_paths=8, n_steps=4, seed=2**63 - 1))
        assert np.all(np.isfinite(rv)) and np.all(rv > 0)


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

    def test_full_chunks_nested(self, tanh_model):
        # 8192 paths are 4096 streams, two full chunks; 12288 adds a third chunk
        a = simulate_realized_variance(tanh_model, small_cfg(n_paths=8192, n_steps=5))
        b = simulate_realized_variance(tanh_model, small_cfg(n_paths=12288, n_steps=5))
        assert np.array_equal(a, b[:8192])


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
    signs = np.array([1.0, -1.0])[:, None]
    shape = (2, m)
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
        ev = eta * eta * v
        acc += ev * dt
        us += drift_s - 0.5 * ev * dt + eta * np.sqrt(v) * (rho * ez + root * ew) * sqdt
        wv += (model.mu - 0.5 * sig * sig) * dt + sig * ez * sqdt
        if sample_stride is not None and (i + 1) % sample_stride == 0:
            caps[(i + 1) // sample_stride] = us
    rv = acc / cfg.maturity
    rv_out[2 * lo : 2 * hi : 2] = rv[0]
    rv_out[2 * lo + 1 : 2 * hi : 2] = rv[1]
    if sample_stride is not None:
        logs_out[2 * lo : 2 * hi : 2] = caps[:, 0, :].T
        logs_out[2 * lo + 1 : 2 * hi : 2] = caps[:, 1, :].T


def _reference_simulate(model, cfg, sample_stride):
    dt = cfg.maturity / cfg.n_steps
    rv = np.empty(cfg.n_paths)
    logs = np.empty((cfg.n_paths, cfg.n_steps // sample_stride + 1))
    for lo in range(0, cfg.n_streams, mc._CHUNK_STREAMS):
        hi = min(lo + mc._CHUNK_STREAMS, cfg.n_streams)
        _reference_chunk(model, cfg, lo, hi, dt, sample_stride, rv, logs)
    return rv, logs


def _reference_estimate(even, odd, cfg, out=None):
    samples = np.stack((even, odd), axis=1).ravel()  # path 2j / 2j+1 of stream j
    pairs = samples.reshape(-1, 2).mean(axis=1)
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
    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7])
    @pytest.mark.parametrize("case", ["tanh", "kinked", "tanh_mu", "kinked_mu", "flat_logpoly_sigma"])
    def test_matches_reference_loop(self, tanh_model, monkeypatch, case, rho):
        model = {
            "tanh": tanh_model,  # constant sigma, mu = 0
            "kinked": KINKED,  # clamped logpoly eta and sigma
            "tanh_mu": replace(tanh_model, mu=0.4),
            "kinked_mu": replace(KINKED, mu=-0.6),  # a drift in the per-step sigma branch
            # a constant LogPolySigma; 1.7 is not a power of 2, so (s z) sqrt(dt) rounds
            "flat_logpoly_sigma": replace(tanh_model, sigma=LogPolySigma(1.7, 0.0)),
        }[case].with_rho(rho)
        streams, steps = mc._CHUNK_STREAMS + 300, 70
        assert steps % mc._STEP_BLOCK != 0
        cfg = McConfig(n_paths=2 * streams, n_steps=steps, seed=17, maturity=1.0 / 12.0)

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

    # the worker draws blocks j + 1 and j + 2 while block j is stepped, so a
    # block in flight can belong to the next chunk: at every block of a
    # day-like run (steps < _STEP_BLOCK), and near the last, partial block of
    # each chunk; with 5 blocks a chunk the three buffers wrap inside a chunk
    # and across chunks
    @pytest.mark.parametrize(
        "streams, steps",
        [
            (3 * mc._CHUNK_STREAMS + 5, 20),
            (2 * mc._CHUNK_STREAMS - 7, 2 * mc._STEP_BLOCK + 9),
            (2 * mc._CHUNK_STREAMS - 7, 4 * mc._STEP_BLOCK + 9),
        ],
        ids=["day_like_4_chunks", "3_blocks_2_chunks", "ring_wraps_5_blocks_2_chunks"],
    )
    @pytest.mark.parametrize("case", ["tanh", "kinked"])
    def test_matches_reference_across_prefetch_boundaries(self, tanh_model, case, streams, steps):
        model = {"tanh": tanh_model, "kinked": KINKED}[case].with_rho(-0.4)
        cfg = McConfig(n_paths=2 * streams, n_steps=steps, seed=23, maturity=1.0 / 365.0)
        rv, logs = mc._simulate_core(model, cfg, sample_stride=steps)
        rv_ref, logs_ref = _reference_simulate(model, cfg, sample_stride=steps)
        assert np.array_equal(rv, rv_ref)
        assert np.array_equal(logs, logs_ref)

    def test_ring_under_fast_thread_switching(self, monkeypatch):
        # 14 blocks a chunk wrap the three buffers many times; a switch
        # interval of 1 us hands the GIL over inside every mixing and step,
        # so a buffer refilled before the step loop left it would show
        monkeypatch.setattr(mc, "_STEP_BLOCK", 3)
        model = KINKED.with_rho(0.7)
        cfg = McConfig(n_paths=2 * (2 * mc._CHUNK_STREAMS - 7), n_steps=40, seed=29, maturity=1.0 / 12.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rv, logs = mc._simulate_core(model, cfg, sample_stride=8)
        finally:
            sys.setswitchinterval(interval)
        rv_ref, logs_ref = _reference_simulate(model, cfg, sample_stride=8)
        assert np.array_equal(rv, rv_ref)
        assert np.array_equal(logs, logs_ref)


class TestLifecycle:
    """An error on either thread reaches the caller, and the draw worker
    is joined before the call returns or raises."""

    def test_step_loop_error(self, tanh_model, monkeypatch):
        err = RuntimeError("eta failed on step 3")
        calls = []
        value_log = TanhEta.value_log

        def failing(self, u):
            calls.append(None)
            if len(calls) == 3:
                raise err
            return value_log(self, u)

        monkeypatch.setattr(TanhEta, "value_log", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate_realized_variance(tanh_model, small_cfg(n_paths=4200, n_steps=100))
        assert info.value is err
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_draw_error(self, tanh_model, monkeypatch):
        # chunk 1's generator fails on the worker while chunk 0 is stepped
        err = RuntimeError("no generator for chunk 1")
        philox = np.random.Philox

        def failing(key):
            if key[1] == 1:
                raise err
            return philox(key=key)

        monkeypatch.setattr(mc.np.random, "Philox", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate_realized_variance(tanh_model, small_cfg(n_paths=2 * mc._CHUNK_STREAMS + 8, n_steps=5))
        assert info.value is err
        assert threading.active_count() == before

    def test_draw_error_two_blocks_ahead(self, tanh_model, monkeypatch):
        # the third block's draw fails on the worker while the first is
        # stepped; the error surfaces when the step loop reaches that block
        err = RuntimeError("draw of block 2 failed")
        generator = np.random.Generator
        draws, steps = [], []

        class FailingThird:
            def __init__(self, bit_generator):
                self.gen = generator(bit_generator)

            def standard_normal(self, out):
                draws.append(None)
                if len(draws) == 3:
                    raise err
                return self.gen.standard_normal(out=out)

        value_log = TanhEta.value_log

        def counted(self, u):
            steps.append(None)
            return value_log(self, u)

        monkeypatch.setattr(mc.np.random, "Generator", FailingThird)
        monkeypatch.setattr(TanhEta, "value_log", counted)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate_realized_variance(tanh_model, small_cfg(n_paths=16, n_steps=2 * mc._STEP_BLOCK + 5))
        assert info.value is err
        assert len(steps) == 2 * mc._STEP_BLOCK
        assert threading.active_count() == before

    def test_worker_joined_after_a_run(self, tanh_model):
        before = threading.active_count()
        simulate_realized_variance(tanh_model, small_cfg(n_paths=8, n_steps=3))
        assert threading.active_count() == before


class TestEstimator:
    """The pair means, mean and standard error are np.mean and
    np.std(ddof=1) of the length-2 pair means, bit for bit."""

    @pytest.mark.parametrize("case", ["all_zero", "one_nonzero_pair", "two_streams", "lognormal"])
    def test_matches_numpy(self, case):
        rng = np.random.default_rng(5)
        samples = {
            "all_zero": np.zeros(4000),
            "one_nonzero_pair": np.zeros(4000),
            "two_streams": rng.lognormal(-2.3, 0.5, 4),
            "lognormal": rng.lognormal(-2.3, 0.5, 4000),
        }[case]
        if case == "one_nonzero_pair":
            samples[2:4] = (0.3, 0.1)
        cfg = McConfig(n_paths=samples.size, n_steps=1)
        even, odd = samples[0::2].copy(), samples[1::2].copy()
        est = mc._estimate(even, odd, cfg, np.empty(cfg.n_streams))
        ref = _reference_estimate(even, odd, cfg)
        assert (est.mean.hex(), est.stderr.hex()) == (ref.mean.hex(), ref.stderr.hex())
        assert est == ref

    @pytest.mark.parametrize("n_paths", [4, 4000])
    def test_all_zero_payoffs(self, tanh_model, n_paths):
        # no path ends above the strike: the call is 0 with 0 error, and the put is the
        # discounted K - RV estimate that the reference forms from full-length payoffs
        cfg = small_cfg(n_paths=n_paths)
        rv = np.random.default_rng(8).lognormal(-2.3, 0.5, n_paths)
        k = 2.0 * float(rv.max())
        call, put, fwd = mc_price(tanh_model, k, cfg, samples=rv)
        assert (call.mean, call.stderr) == (0.0, 0.0)
        disc = math.exp(-tanh_model.r * cfg.maturity)
        pay = np.maximum(k - rv, 0.0) * disc
        assert put == _reference_estimate(pay[0::2], pay[1::2], cfg)
        assert fwd == _reference_estimate(rv[0::2], rv[1::2], cfg)


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
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0), mu=mu)
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
        # the last strike is inside the ATM band, where x is log_moneyness's exact 0
        strikes = [f0 * math.exp(x) for x in (-0.3, 0.0, 0.3)] + [f0 * (1.0 + 1e-14)]
        sm = mc_smile(tanh_model, strikes, 1.0 / 252.0, cfg)
        assert len(sm.rows) == 4
        assert sm.maturity == 1.0 / 252.0
        xs = [r.x for r in sm]
        assert abs(xs[0] + 0.3) < 1e-12 and abs(xs[2] - 0.3) < 1e-12
        assert math.log(strikes[3] / f0) != 0.0 and xs[3] == 0.0
        assert all(math.isfinite(r.ivol) or not r.reliable for r in sm)

    def test_implied_vol_failure_gives_nan_row(self, tanh_model):
        # all samples 0 but one path in 400 at 1e4: no Black vol prices any
        # of these strikes, so implied_vol raises and the row is NaN, unreliable
        cfg = small_cfg(n_paths=4000)
        samples = np.zeros(cfg.n_paths)
        samples[::400] = 1e4
        mean = float(np.mean(samples))
        sm = mc_smile(tanh_model, [1.0001 * mean, 0.5 * mean, 2.0 * mean], cfg.maturity, cfg, samples=samples)
        for row in sm:
            assert math.isnan(row.ivol) and math.isnan(row.ivol_se) and not row.reliable
            assert math.isfinite(row.call) and math.isfinite(row.put)

    def test_deep_strike_unreliable(self, tanh_model):
        cfg = small_cfg(n_paths=2000)
        f0 = forward_variance_limit(tanh_model)
        sm = mc_smile(tanh_model, [f0 * math.exp(2.5)], 1.0 / 252.0, cfg)
        assert not sm.rows[0].reliable

    def test_rejects_bad_strikes(self, tanh_model, monkeypatch):
        monkeypatch.setattr(mc, "_simulate_core", None)  # the strikes are checked before any simulation
        with pytest.raises(ValueError, match="positive and finite"):
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

    def test_rejects_samples_of_other_maturity(self, tanh_model):
        # samples simulated at T = 1/12 once priced at t = 1/252: ivol 5.25 at x = 0.05, not 1.15
        cfg = small_cfg(n_paths=200, n_steps=10)
        rv = simulate_realized_variance(tanh_model, cfg)
        with pytest.raises(ValueError, match="maturity"):
            mc_smile(tanh_model, [0.1], 1.0 / 252.0, cfg, samples=rv)


class TestDiscreteDiagnostic:
    def test_divisibility(self, tanh_model):
        with pytest.raises(ValueError):
            discrete_rv_diagnostic(tanh_model, small_cfg(n_steps=100), 7)

    @pytest.mark.parametrize("sampling_n", [2.0, True, False, "10", None])
    def test_sampling_n_must_be_an_integer(self, tanh_model, sampling_n):
        with pytest.raises(ValueError, match="sampling_n must be an integer"):
            discrete_rv_diagnostic(tanh_model, small_cfg(n_steps=100), sampling_n)

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
