"""Monte Carlo simulator for the LSV model.

Log-coordinate Euler stepping (exact for the constant vol-of-vol variance
leg), left-endpoint accumulation of the realized-variance integral and joint
antithetic variates: each stream of normals drives a path and its mirror.

Streams are split into fixed chunks of ``_CHUNK_STREAMS``.  Each chunk reads
one Philox generator keyed by (seed, chunk index on that fixed grid), step
major: blocks of ``(steps, 2, streams)`` normals, with consecutive blocks
continuing the one counter-based stream, so the block size does not change
the draws.  Results are therefore bit-identical for a fixed seed, and the
full chunks of a smaller ``n_paths`` are the leading paths of a larger one.

One background thread only draws: it fills three reused buffers, up to two
blocks ahead of the step loop.  The calling thread mixes each step's rows as
it takes them, in run order, so the two threads carry about equal work.  The
draws release the GIL, so they overlap the loop; the samples are those of
drawing and mixing in series.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import check_finite
from .model import LsvModel, log_moneyness
from .smile import implied_vol

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
_DRAW_AHEAD = 2  # blocks the worker may draw ahead of the step loop, into _DRAW_AHEAD + 1 buffers


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class McConfig:
    """Simulation controls; immutable so runs can echo it verbatim.

    ``n_paths`` (two per antithetic pair), ``n_steps`` and ``seed`` are
    integers but not bools, the seed in [0, 2**63) as the Philox key holds."""

    n_paths: int = 100_000
    n_steps: int = 2000
    seed: int = 0
    maturity: float = 1.0 / 12.0

    def __post_init__(self):
        if not (_is_int(self.n_paths) and self.n_paths % 2 == 0):
            raise ValueError(f"antithetic pairs need an even integer n_paths, got {self.n_paths!r}")
        if self.n_streams < 2:
            raise ValueError("a standard error needs at least 2 independent streams (4 paths)")
        if not (_is_int(self.n_steps) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        check_finite(positive=True, maturity=self.maturity)
        if not (_is_int(self.seed) and 0 <= self.seed < 2**63):
            raise ValueError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")

    @property
    def n_streams(self) -> int:
        return self.n_paths // 2


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


def _vega(f: float, k: float, sigma: float, t: float, r: float) -> float:
    """Black vega of the variance option."""
    st = sigma * math.sqrt(t)
    d1 = (math.log(f / k) + 0.5 * st * st) / st
    return math.exp(-r * t) * f * math.sqrt(t) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def _estimate(even: np.ndarray, odd: np.ndarray, cfg: McConfig, out: np.ndarray) -> McEstimate:
    """Mean and standard error over the independent antithetic pair means of
    the even and odd paths, formed in ``out`` (which may be ``even``)."""
    # (a + b) * 0.5 rounds as the (a + b) / 2 of a length-2 mean does,
    # without numpy's slow reduction along a short axis
    pairs = np.add(even, odd, out=out)
    pairs *= 0.5
    n = pairs.size
    # np.mean and np.std(ddof=1) step by step, the mean summed once
    mean = np.add.reduce(pairs) / n
    dev = np.subtract(pairs, mean, out=pairs)
    np.square(dev, out=dev)
    stderr = math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)
    return McEstimate(mean=float(mean), stderr=stderr, n_effective=n, seed=cfg.seed, config=cfg)


def _payoff_estimates(halves: np.ndarray, k: float, disc: float, cfg: McConfig, scratch: np.ndarray):
    """(call, put) estimates at strike k from the ``(2, streams)`` even and
    odd samples; each payoff is formed in place in ``scratch``, so a strike
    sweep reuses it instead of allocating temporaries per payoff."""
    out = []
    for a, b in ((halves, k), (k, halves)):
        np.subtract(a, b, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        scratch *= disc
        out.append(_estimate(*scratch, cfg, scratch[0]))
    return out


def _drawn_steps(pool, model, cfg, chunks, s, sqdt):
    """Each step's mixed ``(z, x)`` rows in run order, ``(streams,)`` views.

    The pool's one worker only draws: blocks of ``_STEP_BLOCK`` steps into
    ``_DRAW_AHEAD + 1`` reused buffers, up to ``_DRAW_AHEAD`` blocks ahead
    of the block the caller steps through.  A buffer is refilled only once
    the caller asks for the first step after it.  Chunk c draws from the
    Philox generator keyed (seed, c).  Each row is mixed here, on the
    calling thread, as it is handed out: ``w`` becomes the spot noise
    ``rho z + root w`` and, for a constant vol-of-vol s (not None), ``z``
    becomes ``(s z) sqrt(dt)``, the operations and order of the plain Euler
    step.
    """
    nb = _STEP_BLOCK
    n_steps = cfg.n_steps
    rho = model.rho
    root = math.sqrt(max(1.0 - rho * rho, 0.0))
    tasks = [(c, i, hi - lo) for c, (lo, hi) in enumerate(chunks) for i in range(0, n_steps, nb)]
    size = min(nb, n_steps) * 2 * (chunks[0][1] - chunks[0][0])
    bufs = [np.empty(size) for _ in range(_DRAW_AHEAD + 1)]
    gen = None

    def fill(j):
        nonlocal gen
        c, i, m = tasks[j]
        if i == 0:
            gen = np.random.Generator(np.random.Philox(key=[cfg.seed, c]))
        k = min(nb, n_steps - i)
        return gen.standard_normal(out=bufs[j % len(bufs)][: k * 2 * m].reshape(k, 2, m))

    ahead = deque(pool.submit(fill, j) for j in range(min(_DRAW_AHEAD, len(tasks))))
    for j in range(len(tasks)):
        # block j + _DRAW_AHEAD takes the buffer of block j - 1, which the caller has left
        if j + _DRAW_AHEAD < len(tasks):
            ahead.append(pool.submit(fill, j + _DRAW_AHEAD))
        for z, x in ahead.popleft().result():
            x *= root
            x += rho * z
            if s is not None:
                z *= s
                z *= sqdt
            yield z, x


def _run_chunk(model, cfg, m, dt, sqdt, s, sample_stride, steps):
    """The ``(2, m)`` realized-variance integral of m streams, taking their
    rows from ``steps``, and their log prices every ``sample_stride`` steps.

    Row 0 of the ``(2, m)`` state follows the drawn normals ``(z, w)``, row
    1 (antithetic) their negation.  Row 1's noise is the exact negation of
    row 0's, so row 1 subtracts the noise term that row 0 adds.  Every
    elementwise operation keeps the operands and order of the plain Euler
    step, so the samples do not depend on this arrangement.
    """
    n_steps = cfg.n_steps
    drift_s = (model.r - model.q) * dt
    v0 = model.v0
    shape = (2, m)
    # constant s: the variance increment is drift_v plus the row's (s z) sqrt(dt)
    if s is not None:
        drift_v = (float(model.mu) - 0.5 * s * s) * dt
        dw = np.empty(shape)
    us = np.zeros(shape)  # log(S/S0)
    wv = np.zeros(shape)  # log(V/V0)
    acc = np.zeros(shape)
    v, ev = np.empty(shape), np.empty(shape)
    caps = None
    if sample_stride is not None:
        caps = np.zeros((n_steps // sample_stride + 1,) + shape)

    for i in range(n_steps):
        z, x = next(steps)
        np.exp(wv, out=v)
        v *= v0
        eta = model.eta.value_log(us)

        # dw = (mu - 0.5 sig sig) dt +- (sig z) sqrt(dt)
        if s is not None:
            np.add(z, drift_v, out=dw[0])
            np.subtract(drift_v, z, out=dw[1])
        else:
            sig = model.sigma.value_log(wv)
            dw = (model.mu - 0.5 * sig * sig) * dt
            noise = (sig * z) * sqdt
            dw[0] += noise[0]
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
        ev[1] -= v[1]
        us += ev
        wv += dw
        if sample_stride is not None and (i + 1) % sample_stride == 0:
            caps[(i + 1) // sample_stride] = us
    return acc, caps


def _simulate_core(model: LsvModel, cfg: McConfig, sample_stride=None):
    dt = cfg.maturity / cfg.n_steps
    sqdt = math.sqrt(dt)
    s = float(model.sigma.value_log(0.0)) if model.sigma.is_constant else None
    n_streams = cfg.n_streams
    rv = np.empty(cfg.n_paths)
    logs = None
    if sample_stride is not None:
        logs = np.empty((cfg.n_paths, cfg.n_steps // sample_stride + 1))
    chunks = [(lo, min(lo + _CHUNK_STREAMS, n_streams)) for lo in range(0, n_streams, _CHUNK_STREAMS)]
    # leaving the block joins the worker, also when either thread raised
    with ThreadPoolExecutor(1) as pool:
        steps = _drawn_steps(pool, model, cfg, chunks, s, sqdt)
        for lo, hi in chunks:
            acc, caps = _run_chunk(model, cfg, hi - lo, dt, sqdt, s, sample_stride, steps)
            # interleave so path 2j / 2j+1 are the antithetic pair of stream j
            rv.reshape(n_streams, 2)[lo:hi] = (acc / cfg.maturity).T
            if logs is not None:
                logs.reshape(n_streams, 2, -1)[lo:hi] = caps.T
    return rv, logs


def simulate_realized_variance(model: LsvModel, cfg: McConfig) -> np.ndarray:
    """Per-path samples of (1/T) int_0^T V eta^2(S) ds."""
    rv, _ = _simulate_core(model, cfg)
    return rv


def _checked_samples(model: LsvModel, cfg: McConfig, samples: Optional[np.ndarray]):
    """The samples (simulated if None) as ``(2, streams)`` rows of the even
    and the odd paths, so each path's antithetic mirror is in the other row,
    the discount factor and the scratch of ``_payoff_estimates``."""
    if samples is None:
        samples = simulate_realized_variance(model, cfg)
    elif len(samples) != cfg.n_paths:
        raise ValueError(f"samples has {len(samples)} paths, the config {cfg.n_paths}")
    halves = np.asarray(samples, dtype=float).reshape(cfg.n_streams, 2).T.copy()
    return halves, math.exp(-model.r * cfg.maturity), np.empty_like(halves)


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
    halves, disc, scratch = _checked_samples(model, cfg, samples)
    call, put = _payoff_estimates(halves, k, disc, cfg, scratch)
    forward = _estimate(*halves, cfg, scratch[0])
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
    path of ``cfg``, from this model, at ``t == cfg.maturity`` (a length or
    maturity mismatch raises ValueError).
    Each row's ``x`` is ``log_moneyness``, taken before any simulation.
    """
    strikes = [float(k) for k in strikes]
    xs = [log_moneyness(model, k) for k in strikes]
    if samples is not None and t != cfg.maturity:
        raise ValueError(f"samples were simulated at maturity {cfg.maturity}, not t = {t}")
    cfg = replace(cfg, maturity=float(t))
    halves, disc, scratch = _checked_samples(model, cfg, samples)
    forward = _estimate(*halves, cfg, scratch[0])

    rows = []
    for k, x in zip(strikes, xs):
        call, put = _payoff_estimates(halves, k, disc, cfg, scratch)
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
                x=x,
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
    if not (_is_int(sampling_n) and sampling_n >= 1 and cfg.n_steps % sampling_n == 0):
        raise ValueError(f"sampling_n must be an integer that divides n_steps, got {sampling_n!r}")
    stride = cfg.n_steps // sampling_n
    rv, logs = _simulate_core(model, cfg, sample_stride=stride)
    increments = np.diff(logs, axis=1)
    discrete = np.sum(increments * increments, axis=1) / cfg.maturity
    gap = float(np.mean((discrete - rv) / rv))
    return DiscreteRvDiagnostic(discrete=discrete, continuous=rv, mean_relative_gap=gap, sampling_n=sampling_n)
