"""Acceptance suite: every release-gating check, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The Monte Carlo criteria share one path set per correlation via
module-scoped fixtures.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from varsmile import (
    ConstantEta,
    ConstantSigma,
    LsvModel,
    McConfig,
    TanhEta,
    asian_rate_j_const,
    atm_expansion,
    atm_price_limit,
    black_price,
    expansion_paths,
    forward_variance_limit,
    implied_vol,
    lambda_functional,
    linear_smile,
    mc_price,
    mc_smile,
    rate_bounds_rho,
    rate_numeric,
    rate_zero_rho,
    simulate_realized_variance,
)
from varsmile.cli import main as cli_main
from varsmile.numerics import integrate_sqrt_singular

MODEL_FILE = str(Path(__file__).resolve().parent.parent / "models" / "tanh.json")
DAY = 1.0 / 252.0
MONTH = 1.0 / 12.0


def report(n, detail):
    print(f"\nacceptance criterion {n}: PASS  ({detail})")


@pytest.fixture(scope="module")
def day_samples(tanh_model):
    """One 1e5-path set per correlation at T = 1 day (shared by 4 and 5)."""
    out = {}
    for rho in (-0.7, 0.0, 0.7):
        cfg = McConfig(n_paths=100_000, n_steps=500, seed=42, maturity=DAY)
        out[rho] = (cfg, simulate_realized_variance(tanh_model.with_rho(rho), cfg))
    return out


def _run_table1(capsys):
    t0 = time.perf_counter()
    code = cli_main(["table1", "--model", MODEL_FILE])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    rows = {}
    for line in out.strip().splitlines()[1:4]:
        parts = line.split(",")
        rows[float(parts[0])] = (float(parts[1]), float(parts[2]))
    return code, elapsed, rows, out


def test_c01_table_atm_vols(capsys):
    code, elapsed, rows, _ = _run_table1(capsys)
    assert code == 0
    for rho, expect in ((-0.7, 1.1806), (0.0, 1.1553), (0.7, 1.1294)):
        assert abs(rows[rho][0] - expect) < 1e-4
    assert elapsed < 1.0
    report(1, f"sigma_atm match to 1e-4, table1 ran in {elapsed:.3f}s")


def test_c02_table_skews(capsys):
    code, elapsed, rows, out = _run_table1(capsys)
    assert code == 0
    assert abs(rows[-0.7][1] - 0.1257) < 1e-4
    assert abs(rows[0.7][1] - 0.1053) < 1e-4
    assert abs(rows[0.0][1] - 0.1159) < 1e-4  # formula value, not the 0.1553 entry
    assert "note:" in out and "0.1553" in out
    assert elapsed < 1.0
    report(2, f"skews match, rho=0 formula value {rows[0.0][1]:.4f} with note")


def test_c03_table_forward_mc(tanh_model):
    m = tanh_model.with_rho(-0.7)
    t0 = time.perf_counter()
    cfg = McConfig(n_paths=100_000, n_steps=2000, seed=42, maturity=MONTH)
    _, _, fwd = mc_price(m, 0.1, cfg)
    elapsed = time.perf_counter() - t0
    assert abs(fwd.mean - 0.1004) <= 0.0003
    assert elapsed < 150.0
    cfg_fast = McConfig(n_paths=100_000, n_steps=500, seed=42, maturity=MONTH)
    _, _, fwd_fast = mc_price(m, 0.1, cfg_fast)
    assert abs(fwd_fast.mean - 0.1004) <= 0.001
    report(3, f"forward {fwd.mean:.6f} (full, {elapsed:.0f}s) / {fwd_fast.mean:.6f} (fast)")


def test_c04_smile_agreement_one_day(tanh_model, day_samples):
    f0 = forward_variance_limit(tanh_model)
    worst = 0.0
    for rho in (-0.7, 0.0, 0.7):
        m = tanh_model.with_rho(rho)
        cfg, rv = day_samples[rho]
        strikes = [f0 * math.exp(x) for x in (-0.08, 0.0, 0.08)]
        sm = mc_smile(m, strikes, DAY, cfg, samples=rv)
        for row in sm:
            lin = linear_smile(m, row.x)
            gap = abs(row.ivol - lin)
            assert gap <= max(3.0 * row.ivol_se, 0.02)
            worst = max(worst, gap)
    report(4, f"worst |mc - linear| vol gap {worst:.4f} <= max(3 se, 0.02)")


def test_c05_atm_sqrt_t_limit(tanh_model, day_samples):
    cfg, rv = day_samples[0.0]
    limit = atm_price_limit(tanh_model)
    call, put, _ = mc_price(tanh_model, 0.1, cfg, samples=rv)
    rt = math.sqrt(DAY)
    dev_call = abs(call.mean / rt - limit)
    dev_put = abs(put.mean / rt - limit)
    assert dev_call <= 3.0 * call.stderr / rt
    assert dev_put <= 3.0 * put.stderr / rt
    assert abs(call.mean - put.mean) <= math.hypot(call.stderr, put.stderr)
    report(5, f"call/sqrt(T) off by {dev_call / (call.stderr / rt):.2f} se, "
              f"put by {dev_put / (put.stderr / rt):.2f} se of limit {limit:.6f}")


def test_c06_closed_vs_numeric(tanh_model):
    f0 = forward_variance_limit(tanh_model)
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.05, -0.05, 0.1, -0.1):
        k = f0 * math.exp(x)
        closed = rate_zero_rho(tanh_model, k).value
        numeric = rate_numeric(tanh_model, k).value
        rel = abs(numeric - closed) / closed
        assert rel <= 1e-4
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report(6, f"worst relative gap {worst:.2e} in {elapsed:.0f}s")


def test_c07_bound_sandwich(tanh_model):
    f0 = forward_variance_limit(tanh_model)
    checked = 0
    for rho in (0.3, -0.3, 0.7, -0.7):
        m = tanh_model.with_rho(rho)
        for x in (0.05, -0.05, 0.1, -0.1):
            k = f0 * math.exp(x)
            b = rate_bounds_rho(m, k)
            v = rate_numeric(m, k).value
            assert b.lower <= v <= b.best_upper + 1e-6, (rho, x, b.lower, v, b.best_upper)
            checked += 1
    report(7, f"lower <= numeric <= best_upper + 1e-6 in all {checked} cases")


def test_c08_expansion_consistency(tanh_model):
    slopes = []
    for rho in (0.0, 0.7, -0.7):
        m = tanh_model.with_rho(rho)
        exp = atm_expansion(m)
        xs = (0.02, 0.01, 0.005)
        resid = [
            abs(lambda_functional(m, expansion_paths(m, x, n=801)).total - exp.rate(x))
            for x in xs
        ]
        slope = float(np.polyfit(np.log(xs), np.log(resid), 1)[0])
        assert slope >= 3.7
        slopes.append(slope)
    # eta == 1 specialization: symbol-level equality of both coefficients
    for sigma0, sigma1 in ((2.0, 0.0), (1.1, 0.35)):
        from varsmile import LogPolySigma

        sig = ConstantSigma(sigma0) if sigma1 == 0.0 else LogPolySigma(sigma0, sigma1, 0.0, 1e-3, 1e3)
        m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=sig)
        exp = atm_expansion(m)
        assert exp.A == 3.0 / (2.0 * sigma0**2)
        assert abs(exp.B - (-3.0 * (sigma0 + 6.0 * sigma1) / (10.0 * sigma0**3))) < 1e-15
    report(8, f"log-log residual slopes {[f'{s:.2f}' for s in slopes]} >= 3.7; "
              "flat-leverage coefficients exact")


def test_c09_asian_reduction():
    m = LsvModel(s0=1.0, v0=0.1, rho=0.0, eta=ConstantEta(1.0), sigma=ConstantSigma(2.0))
    worst = 0.0
    for kr in (0.7, 0.9, 1.1, 1.5):
        k = 0.1 * kr
        gap = abs(rate_zero_rho(m, k).value - asian_rate_j_const(2.0, 0.1, k).value)
        assert gap <= 1e-9
        worst = max(worst, gap)
    report(9, f"worst |rate - asian| = {worst:.1e} <= 1e-9")


def test_c10_property_suites(tanh_model, tmp_path, capsys):
    # implied-vol round trip on a well-conditioned 1000-point grid
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        f = rng.uniform(0.01, 1.0)
        sig = rng.uniform(0.05, 2.0)
        t = rng.uniform(0.01, 2.0)
        k = f * math.exp(rng.uniform(-3.0, 3.0) * sig * math.sqrt(t))
        flag = "call" if rng.uniform() < 0.5 else "put"
        price = black_price(f, k, sig, t, 0.0, flag)
        worst = max(worst, abs(implied_vol(price, f, k, t, 0.0, flag) - sig))
    assert worst <= 1e-10

    # pathwise put-call parity, exact
    cfg = McConfig(n_paths=4000, n_steps=50, seed=17, maturity=MONTH)
    rv = simulate_realized_variance(tanh_model, cfg)
    assert np.array_equal(np.maximum(rv - 0.1, 0.0) - np.maximum(0.1 - rv, 0.0), rv - 0.1)

    # seed determinism, bit-identical output files
    args = ["mc", "--model", MODEL_FILE, "--x=-0.05:0.05:3", "--T", "0.02",
            "--paths", "2000", "--steps", "40", "--seed", "12"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()

    # singular-quadrature exactness on analytic integrals
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0, -0.25, 0.1, 0.05])
    exact = float(poly.integ()(1.0) - poly.integ()(0.0))
    assert abs(integrate_sqrt_singular(lambda y, d: poly(y), 1.0) - exact) <= 1e-12
    assert abs(integrate_sqrt_singular(lambda y, d: 1.7 / np.sqrt(2.0 - y), 2.0)
               - 1.7 * 2.0 * math.sqrt(2.0)) <= 1e-12
    report(10, f"round trip worst {worst:.1e}; parity, determinism, quadrature exact")
