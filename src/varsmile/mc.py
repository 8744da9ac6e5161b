"""Monte Carlo simulator for the LSV model.

Log-coordinate Euler stepping (exact for the constant vol-of-vol variance
leg), left-endpoint accumulation of the realized-variance integral and joint
antithetic variates.

Streams are split into fixed chunks of ``_CHUNK_STREAMS``.  Each chunk reads
one Philox generator keyed by (seed, chunk index on that fixed grid), step
major: blocks of ``(steps, 2, streams)`` normals, with consecutive blocks
continuing the one counter-based stream, so the block size does not change
the draws.  Results are therefore bit-identical for a fixed seed, and the
full chunks of a smaller ``n_paths`` are the leading paths of a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import LsvModel, forward_variance_limit
from .smile import _vega, implied_vol

__all__ = [
    "McConfig",
    "McEstimate",
    "McSmileRow",
    "McSmile",
    "DiscreteRvDiagnostic",
    "simulate_realized_variance",
    "mc_price",
    "mc_smile",
    "discrete_rv_diagnostic",
]

_CHUNK_STREAMS = 2048  # fixed partition: chunk i draws from Philox key (seed, i)
_STEP_BLOCK = 64  # steps per standard_normal call; bounds memory, not the draws


@dataclass(frozen=True)
class McConfig:
    """Simulation controls; immutable so runs can echo it verbatim."""

    n_paths: int = 100_000
    n_steps: int = 2000
    seed: int = 0
    maturity: float = 1.0 / 12.0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ValueError("antithetic sampling needs an even n_paths")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")

    @property
    def n_streams(self) -> int:
        return self.n_paths // 2 if self.antithetic else self.n_paths


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_effective: int
    seed: int
    config: McConfig

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.stderr >= 0):
            raise ValueError("estimate must be finite with nonnegative stderr")


def _estimate(samples: np.ndarray, cfg: McConfig) -> McEstimate:
    if cfg.antithetic:
        pairs = samples.reshape(-1, 2).mean(axis=1)
    else:
        pairs = samples
    n = pairs.size
    mean = float(np.mean(pairs))
    stderr = float(np.std(pairs, ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, stderr=stderr, n_effective=n, seed=cfg.seed, config=cfg)


def _payoff_estimates(rv: np.ndarray, k: float, disc: float, cfg: McConfig, buf: np.ndarray):
    """(call, put) estimates at strike k; each payoff is formed in place in
    ``buf``, so a strike sweep reuses one array instead of allocating three
    sample-sized temporaries per payoff."""
    out = []
    for a, b in ((rv, k), (k, rv)):
        np.subtract(a, b, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf *= disc
        out.append(_estimate(buf, cfg))
    return out


def _run_chunk(model, cfg, lo, hi, dt, sample_stride, rv_out, logs_out):
    """Simulate streams [lo, hi) of the chunk starting at ``lo``; writes into
    disjoint output slices."""
    n_steps = cfg.n_steps
    m = hi - lo
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, lo // _CHUNK_STREAMS]))
    nb = _STEP_BLOCK

    rho = model.rho
    root = math.sqrt(max(1.0 - rho * rho, 0.0))
    sqdt = math.sqrt(dt)
    drift_s = (model.r - model.q) * dt
    v0 = model.v0

    if cfg.antithetic:
        signs = np.array([1.0, -1.0])[:, None]
        shape = (2, m)
    else:
        signs = np.array([1.0])[:, None]
        shape = (1, m)

    us = np.zeros(shape)  # log(S/S0)
    wv = np.zeros(shape)  # log(V/V0)
    acc = np.zeros(shape)
    n_cap = 0
    if sample_stride is not None:
        n_cap = n_steps // sample_stride
        caps = np.zeros((n_cap + 1,) + shape)

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
        # interleave so path 2j / 2j+1 are the antithetic pair of stream j
        rv_out[2 * lo : 2 * hi : 2] = rv[0]
        rv_out[2 * lo + 1 : 2 * hi : 2] = rv[1]
        if sample_stride is not None:
            logs_out[2 * lo : 2 * hi : 2] = caps[:, 0, :].T
            logs_out[2 * lo + 1 : 2 * hi : 2] = caps[:, 1, :].T
    else:
        rv_out[lo:hi] = rv[0]
        if sample_stride is not None:
            logs_out[lo:hi] = caps[:, 0, :].T


def _simulate_core(model: LsvModel, cfg: McConfig, sample_stride=None):
    dt = cfg.maturity / cfg.n_steps
    n_streams = cfg.n_streams
    rv = np.empty(cfg.n_paths)
    logs = None
    if sample_stride is not None:
        logs = np.empty((cfg.n_paths, cfg.n_steps // sample_stride + 1))
    for lo in range(0, n_streams, _CHUNK_STREAMS):
        _run_chunk(model, cfg, lo, min(lo + _CHUNK_STREAMS, n_streams), dt, sample_stride, rv, logs)
    return rv, logs


def simulate_realized_variance(model: LsvModel, cfg: McConfig) -> np.ndarray:
    """Per-path samples of (1/T) int_0^T V eta^2(S) ds."""
    rv, _ = _simulate_core(model, cfg)
    return rv


def _checked_samples(model: LsvModel, cfg: McConfig, samples: Optional[np.ndarray]) -> np.ndarray:
    if samples is None:
        return simulate_realized_variance(model, cfg)
    if len(samples) != cfg.n_paths:
        raise ValueError(f"samples has {len(samples)} paths, the config {cfg.n_paths}")
    return samples


def mc_price(
    model: LsvModel,
    k: float,
    cfg: McConfig,
    samples: Optional[np.ndarray] = None,
) -> tuple[McEstimate, McEstimate, McEstimate]:
    """(call, put, forward) estimates; put-call parity holds pathwise.

    ``samples`` short-circuits the simulation, as in ``mc_smile``."""
    if k < 0:
        raise ValueError("strike must be nonnegative")
    rv = _checked_samples(model, cfg, samples)
    disc = math.exp(-model.r * cfg.maturity)
    call, put = _payoff_estimates(rv, k, disc, cfg, np.empty_like(rv))
    forward = _estimate(rv, cfg)
    return call, put, forward


@dataclass(frozen=True)
class McSmileRow:
    strike: float
    x: float
    call: float
    call_se: float
    put: float
    put_se: float
    ivol: float
    ivol_se: float
    reliable: bool


@dataclass(frozen=True)
class McSmile:
    rows: tuple[McSmileRow, ...]
    forward: McEstimate
    maturity: float

    def __iter__(self):
        return iter(self.rows)


def mc_smile(
    model: LsvModel,
    strikes,
    t: float,
    cfg: McConfig,
    samples: Optional[np.ndarray] = None,
) -> McSmile:
    """Implied-vol smile from one common path set reused across strikes.

    The OTM side (call above the forward, put below) supplies the price that
    is inverted; its standard error maps to the vol through the Black vega.
    Strikes whose OTM price is within 3 standard errors of zero are flagged
    unreliable.  ``samples`` short-circuits the simulation: one value per
    path of ``cfg``, from this model (a length mismatch raises ValueError).
    """
    strikes = [float(k) for k in strikes]
    if any(k <= 0 for k in strikes):
        raise ValueError("strikes must be positive")
    cfg = replace(cfg, maturity=float(t))
    rv = _checked_samples(model, cfg, samples)
    disc = math.exp(-model.r * cfg.maturity)
    forward = _estimate(rv, cfg)
    fv0 = forward_variance_limit(model)

    rows = []
    buf = np.empty_like(rv)
    for k in strikes:
        call, put = _payoff_estimates(rv, k, disc, cfg, buf)
        side = "call" if k >= forward.mean else "put"
        px = call if side == "call" else put
        reliable = px.mean > 3.0 * px.stderr
        try:
            ivol = implied_vol(px.mean, forward.mean, k, cfg.maturity, model.r, side)
            vega = _vega(forward.mean, k, ivol, cfg.maturity, model.r)
            ivol_se = px.stderr / vega if vega > 0 else math.inf
        except ValueError:
            ivol, ivol_se, reliable = math.nan, math.nan, False
        rows.append(
            McSmileRow(
                strike=k,
                x=math.log(k / fv0),
                call=call.mean,
                call_se=call.stderr,
                put=put.mean,
                put_se=put.stderr,
                ivol=ivol,
                ivol_se=ivol_se,
                reliable=reliable,
            )
        )
    return McSmile(rows=tuple(rows), forward=forward, maturity=cfg.maturity)


@dataclass(frozen=True)
class DiscreteRvDiagnostic:
    discrete: np.ndarray
    continuous: np.ndarray
    mean_relative_gap: float
    sampling_n: int


def discrete_rv_diagnostic(model: LsvModel, cfg: McConfig, sampling_n: int) -> DiscreteRvDiagnostic:
    """Paired samples of the discrete sum P_n(T)/(n tau) and the integral.

    The gap is reported, not asserted: the discrete sum's expectation need
    not converge to the continuous one for every model.
    """
    if sampling_n < 1 or cfg.n_steps % sampling_n != 0:
        raise ValueError("sampling_n must divide n_steps")
    stride = cfg.n_steps // sampling_n
    rv, logs = _simulate_core(model, cfg, sample_stride=stride)
    increments = np.diff(logs, axis=1)
    discrete = np.sum(increments * increments, axis=1) / cfg.maturity
    gap = float(np.mean((discrete - rv) / rv))
    return DiscreteRvDiagnostic(discrete=discrete, continuous=rv, mean_relative_gap=gap, sampling_n=sampling_n)
