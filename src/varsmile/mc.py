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
        if self.antithetic and self.n_paths % 2 != 0:
            raise ValueError("antithetic sampling needs an even n_paths")
        if self.n_streams < 2:
            raise ValueError("a standard error needs at least 2 independent streams (4 paths with antithetic)")
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


def _estimate(samples: np.ndarray, cfg: McConfig, half: Optional[np.ndarray]) -> McEstimate:
    """Mean and standard error over independent samples: the antithetic pair
    means (written into ``half``, which is None without antithetic), else the
    samples themselves."""
    if cfg.antithetic:
        # (a + b) * 0.5 rounds as the (a + b) / 2 of a length-2 mean does,
        # without numpy's slow reduction along a short axis
        pairs = np.add(samples[0::2], samples[1::2], out=half)
        pairs *= 0.5
    else:
        pairs = samples
    n = pairs.size
    mean = float(np.mean(pairs))
    stderr = float(np.std(pairs, ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, stderr=stderr, n_effective=n, seed=cfg.seed, config=cfg)


def _work_buffers(rv: np.ndarray, cfg: McConfig):
    """The payoff array and the pair-mean array that a strike sweep reuses."""
    return np.empty_like(rv), (np.empty(cfg.n_streams) if cfg.antithetic else None)


def _payoff_estimates(rv: np.ndarray, k: float, disc: float, cfg: McConfig, buf: np.ndarray, half):
    """(call, put) estimates at strike k; each payoff is formed in place in
    ``buf`` and its pair means in ``half``, so a strike sweep reuses two
    arrays instead of allocating sample-sized temporaries per payoff."""
    out = []
    for a, b in ((rv, k), (k, rv)):
        np.subtract(a, b, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf *= disc
        out.append(_estimate(buf, cfg, half))
    return out


def _run_chunk(model, cfg, lo, hi, dt, sample_stride, rv_out, logs_out):
    """Simulate streams [lo, hi) of the chunk starting at ``lo``; writes into
    disjoint output slices.

    Row 0 of the ``(rows, m)`` state follows the drawn normals ``(z, w)``, row
    1 (antithetic) their negation.  Each drawn block is mixed once, in place:
    ``w`` becomes the spot noise ``rho z + root w``.  Row 1's noise is the
    exact negation of row 0's, so row 1 subtracts the noise term that row 0
    adds.  Every elementwise operation keeps the operands and order of the
    plain Euler step, so the samples do not depend on this arrangement.
    """
    n_steps = cfg.n_steps
    m = hi - lo
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, lo // _CHUNK_STREAMS]))
    nb = _STEP_BLOCK

    rho = model.rho
    root = math.sqrt(max(1.0 - rho * rho, 0.0))
    sqdt = math.sqrt(dt)
    drift_s = (model.r - model.q) * dt
    v0 = model.v0
    mirror = cfg.antithetic
    shape = (2 if mirror else 1, m)
    # constant vol-of-vol s and numeric mu: the variance increment is the
    # scalar drift_v plus (s z) sqrt(dt), scaled once per block, written in dw
    hoist = model.sigma.is_constant and not callable(model.mu)
    if hoist:
        s = float(model.sigma.value_log(0.0))
        drift_v = (float(model.mu) - 0.5 * s * s) * dt
        dw = np.empty(shape)
    us = np.zeros(shape)  # log(S/S0)
    wv = np.zeros(shape)  # log(V/V0)
    acc = np.zeros(shape)
    v, ev = np.empty(shape), np.empty(shape)
    blocks = np.empty((min(nb, n_steps), 2, m))
    if sample_stride is not None:
        caps = np.zeros((n_steps // sample_stride + 1,) + shape)

    for i in range(n_steps):
        if i % nb == 0:
            block = gen.standard_normal(out=blocks[: min(nb, n_steps - i)])
            zb, xb = block[:, 0], block[:, 1]
            xb *= root
            xb += rho * zb
            if hoist:
                zb *= s
                zb *= sqdt
        z, x = block[i % nb]
        np.exp(wv, out=v)
        v *= v0
        eta = model.eta.value_log(us)

        # dw = (mu - 0.5 sig sig) dt +- (sig z) sqrt(dt)
        if hoist:
            np.add(z, drift_v, out=dw[0])
            if mirror:
                np.subtract(drift_v, z, out=dw[1])
        else:
            sig = model.sigma.value_log(wv)
            mu = np.asarray(model.mu_eval(v), dtype=float)
            dw = (mu - 0.5 * sig * sig) * dt
            noise = (sig * z) * sqdt
            dw[0] += noise[0]
            if mirror:
                dw[1] -= noise[1]

        # acc += ev dt;  us += drift_s - 0.5 (ev dt) +- ((eta sqrt(v)) x) sqrt(dt)
        np.multiply(eta, eta, out=ev)
        ev *= v
        ev *= dt
        acc += ev
        np.sqrt(v, out=v)
        v *= eta
        v *= x
        v *= sqdt
        ev *= 0.5
        np.subtract(drift_s, ev, out=ev)
        ev[0] += v[0]
        if mirror:
            ev[1] -= v[1]
        us += ev
        wv += dw
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
    if not 0 <= k < math.inf:
        raise ValueError("strike must be nonnegative and finite")
    rv = _checked_samples(model, cfg, samples)
    disc = math.exp(-model.r * cfg.maturity)
    buf, half = _work_buffers(rv, cfg)
    call, put = _payoff_estimates(rv, k, disc, cfg, buf, half)
    forward = _estimate(rv, cfg, half)
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
    if not all(0 < k < math.inf for k in strikes):
        raise ValueError("strikes must be positive and finite")
    cfg = replace(cfg, maturity=float(t))
    rv = _checked_samples(model, cfg, samples)
    disc = math.exp(-model.r * cfg.maturity)
    buf, half = _work_buffers(rv, cfg)
    forward = _estimate(rv, cfg, half)
    fv0 = forward_variance_limit(model)

    rows = []
    for k in strikes:
        call, put = _payoff_estimates(rv, k, disc, cfg, buf, half)
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
