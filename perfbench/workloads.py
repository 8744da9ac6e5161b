"""Workloads of the varsmile benchmark: seeded inputs, ops and oracle checks.

Every op is one call of a public varsmile function with default options, as
the CLI subcommands make them.  Every result is checked against a route that
does not share the timed code:

- rates at any rho lie between two quadrature-free Asian rates
  (``clamp_sandwich``);
- rates match the ``A x^2 + B x^3`` expansion up to an ``O(x^4)`` remainder;
- the rho = 0 variance leg at the returned ``z*`` matches the constant
  vol-of-vol shortcut ``asian_rate_j_const``;
- bounds are ordered and inside the sandwich;
- the transcription matches the closed form at rho = 0 and lies inside the
  bounds at rho != 0;
- MC prices satisfy put-call parity pathwise and the ATM ``sqrt(T)`` limit,
  and a fixed-seed simulation repeats bit for bit.

No check compares against bits recorded from an earlier commit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
import varsmile as vs

# |I - (A x^2 + B x^3)| <= (EXPANSION_REL * x^2 + RATE_REL) * I.  The
# remainder is O(x^4); its measured coefficient is 0.05 (tanh) to 0.25
# (kinked logpoly), so a wrong x^2 or x^3 term still fails by orders of
# magnitude.  RATE_REL covers the closed form's own error where x -> 0
# (2.6e-9 relative at x = -4e-5).
EXPANSION_REL = 1.0
RATE_REL = 1e-7
# Quadrature targets are 1e-10 relative; sandwich comparisons allow 1e-9.
QUAD_REL = 1e-9
# The transcription is an O(dt^2) discretization at n = 201 (about 7e-6
# relative against the closed form at rho = 0).
TRANSCRIPTION_REL = 1e-4
# ATM price / sqrt(T) against its T -> 0 limit at one trading day: Monte
# Carlo error (in standard errors) plus the O(sqrt T) bias (relative).
ATM_SE = 4.0
ATM_BIAS_REL = 0.1

MONTH = 1.0 / 12.0
DAY = 1.0 / 252.0


@dataclass
class Op:
    """One public call.  ``call`` runs it; ``check`` returns a failure reason."""

    kind: str
    inputs: dict
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    extra: dict = field(default_factory=dict)


@dataclass
class Context:
    model: Any
    fv0: float
    extra: dict = field(default_factory=dict)


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi]."""
    w = (hi - lo) / n
    return [lo + w * (i + rng.random()) for i in range(n)]


def _near(rng: random.Random, x0: float, h: float) -> float:
    """x0 moved by at most h.  Ops that run a few times per run sit at fixed
    design points, so the work per run does not depend on the seed."""
    return x0 + h * (2.0 * rng.random() - 1.0)


def _load(path: Path) -> Context:
    model = vs.load_model(path)
    report = vs.validate(model)
    if not report.valid:
        raise ValueError(f"invalid model {path}: {report.errors}")
    return Context(model=model, fv0=vs.forward_variance_limit(model))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def clamp_sandwich(model, k: float) -> tuple[float, float]:
    """Quadrature-free (lower, upper) on the rate at strike k, any rho.

    The action is at least the variance-leg energy, whose budget
    z = int V dt lies in [K / eta_hi^2, K / eta_lo^2], and sigma <= sigma_hi;
    so I >= J_const(sigma_hi, z nearest V0).  The constant-asset path is
    feasible at z = K / eta(S0)^2, and sigma >= sigma_lo, so
    I <= J_const(sigma_lo, K / eta(S0)^2) / (1 - rho^2).
    """
    eta, sig, v0 = model.eta, model.sigma, model.v0
    z_near = min(max(v0, k / eta.clamp_hi**2), k / eta.clamp_lo**2)
    lower = vs.asian_rate_j_const(sig.clamp_hi, v0, z_near).value
    eta0 = float(eta.value_log(0.0))
    one_m = 1.0 - model.rho**2
    upper = vs.asian_rate_j_const(sig.clamp_lo, v0, k / eta0**2).value / one_m if one_m > 0 else math.inf
    return lower, upper


def _check_rate(model, x: float, k: float, rate: float) -> str | None:
    if not (math.isfinite(rate) and rate > 0.0):
        return f"rate {rate!r} not finite and positive"
    lower, upper = clamp_sandwich(model, k)
    if rate < lower * (1.0 - QUAD_REL) or rate > upper * (1.0 + QUAD_REL):
        return f"rate {rate:.12g} outside sandwich [{lower:.12g}, {upper:.12g}]"
    exp = vs.atm_expansion(model)
    approx = exp.A * x * x + exp.B * x**3
    if abs(rate - approx) > (EXPANSION_REL * x * x + RATE_REL) * rate:
        return f"rate {rate:.12g} vs expansion {approx:.12g} beyond O(x^4)"
    return None


def _smile_op(ctx: Context, x: float) -> Op:
    model, k = ctx.model, ctx.fv0 * math.exp(x)

    def check(pt):
        if pt.sigma_v is None or not (math.isfinite(pt.sigma_v) and pt.sigma_v > 0):
            return f"sigma_v {pt.sigma_v!r}"
        return _check_rate(model, x, k, x * x / (2.0 * pt.sigma_v**2))

    return Op("closed", {"x": x}, lambda: vs.asymptotic_smile(model, k, rate_method="closed"), check)


def _bounds_op(ctx: Context, rho: float, x: float) -> Op:
    model, k = ctx.model.with_rho(rho), ctx.fv0 * math.exp(x)

    def check(b):
        if not (0.0 < b.lower <= b.best_upper and math.isfinite(b.best_upper)):
            return f"bounds not ordered: [{b.lower!r}, {b.best_upper!r}]"
        lower, upper = clamp_sandwich(model, k)
        if b.lower * (1.0 + abs(rho)) < lower * (1.0 - QUAD_REL):
            return f"lower {b.lower:.12g} * (1 + |rho|) below sandwich {lower:.12g}"
        if b.best_upper > upper * (1.0 + QUAD_REL):
            return f"best_upper {b.best_upper:.12g} above scaled Asian {upper:.12g}"
        return None

    return Op("bounds", {"x": x, "rho": rho}, lambda: vs.rate_bounds_rho(model, k), check)


def _perfect_corr_op(ctx: Context, sign: int, x: float) -> Op:
    model, k = ctx.model.with_rho(float(sign)), ctx.fv0 * math.exp(x)
    return Op(
        "perfect_corr",
        {"x": x, "rho": sign},
        lambda: vs.rate_perfect_corr(model, k, sign),
        lambda r: _check_rate(model, x, k, r.value),
    )


def _z_star_check(ctx: Context, x: float, pt) -> str | None:
    """Variance leg at the returned z* against the constant vol-of-vol
    shortcut; recomputes one closed-form rate outside the timed pass."""
    model, k = ctx.model, ctx.fv0 * math.exp(x)
    res = vs.rate_zero_rho(model, k)
    rate = x * x / (2.0 * pt.sigma_v**2)
    if abs(res.value - rate) > QUAD_REL * rate:
        return f"rate_zero_rho {res.value:.15g} disagrees with the smile's rate {rate:.15g}"
    ref = vs.asian_rate_j_const(model.sigma.clamp_lo, model.v0, res.z_star).value
    if abs(res.h_cost - ref) > QUAD_REL * ref:
        return f"variance leg {res.h_cost:.15g} vs asian_rate_j_const {ref:.15g} at z*={res.z_star!r}"
    return None


# ---------------------------------------------------------------------------
# closed_smooth: tanh eta, constant sigma
# ---------------------------------------------------------------------------


def _setup_closed(path: Path) -> Context:
    ctx = _load(path)
    # warm-up: one Asian rate (quadrature, root finding, model evaluation)
    vs.asian_rate_j(ctx.model.sigma, ctx.model.v0, 1.1 * ctx.model.v0)
    return ctx


def _pass_closed_smooth(ctx: Context, rng: random.Random, p: int) -> list[Op]:
    ops = [_smile_op(ctx, x) for x in _strata(rng, -0.3, 0.3, 21)]
    ops += [_bounds_op(ctx, rho, _near(rng, x, 0.002)) for rho, x in ((0.7, 0.2), (-0.7, -0.1))]
    ops += [_perfect_corr_op(ctx, s, _near(rng, x, 0.002)) for s, x in ((1, 0.15), (-1, -0.15))]
    # one strike per pass also gets the z* check (sigma is constant here)
    sampled = ops[rng.randrange(21)]
    base = sampled.check
    x = sampled.inputs["x"]
    sampled.check = lambda pt: base(pt) or _z_star_check(ctx, x, pt)
    return ops


# ---------------------------------------------------------------------------
# closed_kinked: clamped logpoly eta and sigma
# ---------------------------------------------------------------------------


def _pass_closed_kinked(ctx: Context, rng: random.Random, p: int) -> list[Op]:
    sign = 1 if p % 2 == 0 else -1
    return [
        _smile_op(ctx, _near(rng, 0.15, 0.0005)),
        _smile_op(ctx, _near(rng, -0.15, 0.0005)),
        _perfect_corr_op(ctx, sign, _near(rng, 0.15 * sign, 0.0005)),
    ]


# ---------------------------------------------------------------------------
# transcription: rate_numeric on tanh at three correlations
# ---------------------------------------------------------------------------


def _numeric_op(ctx: Context, rho: float, x: float) -> Op:
    model, k = ctx.model.with_rho(rho), ctx.fv0 * math.exp(x)

    def check(r):
        if not (math.isfinite(r.value) and r.value > 0):
            return f"rate {r.value!r}"
        if rho == 0.0:
            ref = vs.rate_zero_rho(model, k).value
            if abs(r.value - ref) > TRANSCRIPTION_REL * ref:
                return f"transcription {r.value:.12g} vs closed form {ref:.12g}"
            return None
        b = vs.rate_bounds_rho(model, k)
        if not (b.lower * (1 - TRANSCRIPTION_REL) <= r.value <= b.best_upper * (1 + TRANSCRIPTION_REL)):
            return f"transcription {r.value:.12g} outside bounds [{b.lower:.12g}, {b.best_upper:.12g}]"
        return None

    return Op("numeric", {"x": x, "rho": rho}, lambda: vs.rate_numeric(model, k), check)


def _pass_transcription(ctx: Context, rng: random.Random, p: int) -> list[Op]:
    return [_numeric_op(ctx, rho, _near(rng, x, 0.001)) for rho, x in ((-0.7, -0.1), (0.0, 0.2), (0.7, 0.1))]


# ---------------------------------------------------------------------------
# mc_smile: simulate, then price a smile from the samples, at two shapes
# ---------------------------------------------------------------------------

# (label, maturity, steps, paths, x range).  The month shape is step-loop
# bound; the day shape has few steps and many paths, so per-stream generator
# set-up dominates.
MC_SHAPES = (
    ("mc_month", MONTH, 2000, 8192, 0.3),
    ("mc_day", DAY, 20, 262144, 0.1),
)
# Daily sampling over one month: 21 observations, 20 steps per day.
DIAG = dict(maturity=MONTH, n_steps=420, n_paths=4096, sampling_n=21)
REPEAT_CFG = dict(n_paths=256, n_steps=50, seed=12345, maturity=MONTH)


def _setup_mc(path: Path) -> Context:
    ctx = _load(path)
    # warm-up: the small fixed-seed simulation the repeatability check reruns
    ctx.extra["repeat"] = vs.simulate_realized_variance(ctx.model, vs.McConfig(**REPEAT_CFG))
    ctx.extra["atm_limit"] = vs.atm_price_limit(ctx.model)
    return ctx


def _smile_rows_check(ctx: Context, sm, t: float) -> str | None:
    fwd = sm.forward.mean
    for row in sm.rows:
        if not (math.isfinite(row.ivol) and row.ivol > 0 and row.reliable):
            return f"strike x={row.x:.6g}: ivol {row.ivol!r} reliable={row.reliable}"
        parity = (row.call - row.put) - math.exp(-ctx.model.r * t) * (fwd - row.strike)
        if abs(parity) > 1e-12 * (fwd + row.strike):
            return f"strike x={row.x:.6g}: put-call parity off by {parity:.3e}"
    return None


def _mc_op(ctx: Context, label: str, t: float, steps: int, paths: int, xs: list[float], seed: int) -> Op:
    model = ctx.model
    strikes = [ctx.fv0 * math.exp(x) for x in xs]
    cfg = vs.McConfig(n_paths=paths, n_steps=steps, seed=seed, maturity=t)
    op = Op(label, {"seed": seed, "T": t, "steps": steps, "paths": paths}, None, None)

    def call():
        t0 = time.perf_counter()
        rv = vs.simulate_realized_variance(model, cfg)
        op.extra["sim_s"] = time.perf_counter() - t0
        op.extra["path_steps"] = paths * steps
        return vs.mc_smile(model, strikes, t, cfg, samples=rv)

    def check(sm):
        reason = _smile_rows_check(ctx, sm, t)
        if reason:
            return reason
        atm = min(sm.rows, key=lambda r: abs(r.x))
        op.extra["ivol_se_atm"] = atm.ivol_se
        if label == "mc_day":
            lim = ctx.extra["atm_limit"]
            got = atm.call / math.sqrt(t)
            if abs(got - lim) > ATM_SE * atm.call_se / math.sqrt(t) + ATM_BIAS_REL * lim:
                return f"ATM call / sqrt(T) = {got:.6g} vs limit {lim:.6g}"
        return None

    op.call, op.check = call, check
    return op


def _diag_op(ctx: Context, seed: int) -> Op:
    model = ctx.model
    cfg = vs.McConfig(n_paths=DIAG["n_paths"], n_steps=DIAG["n_steps"], seed=seed, maturity=DIAG["maturity"])

    def check(d):
        if not (np.all(np.isfinite(d.discrete)) and np.all(d.continuous > 0) and math.isfinite(d.mean_relative_gap)):
            return "diagnostic samples not finite"
        if abs(d.mean_relative_gap) > 0.25:
            return f"discrete/continuous RV gap {d.mean_relative_gap:.3g}"
        return None

    return Op(
        "diagnostic",
        {"seed": seed, "sampling_n": DIAG["sampling_n"]},
        lambda: vs.discrete_rv_diagnostic(model, cfg, DIAG["sampling_n"]),
        check,
    )


def _pass_mc(ctx: Context, rng: random.Random, p: int) -> list[Op]:
    ops = []
    for label, t, steps, paths, span in MC_SHAPES:
        xs = _strata(rng, -span, span, 20) + [0.0]
        ops.append(_mc_op(ctx, label, t, steps, paths, xs, rng.getrandbits(31)))
    ops.append(_diag_op(ctx, rng.getrandbits(31)))
    return ops


def mc_repeat_check(ctx: Context) -> str | None:
    """A fixed-seed small simulation repeats bit for bit within one build."""
    again = vs.simulate_realized_variance(ctx.model, vs.McConfig(**REPEAT_CFG))
    if again.tobytes() != ctx.extra["repeat"].tobytes():
        return "fixed-seed simulation not bit-identical on repeat"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # relative to the checkout root
    setup: Callable[[Path], Context]
    make_pass: Callable[[Context, random.Random, int], list[Op]]
    run_checks: Callable[[Context], str | None] | None = None
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_smooth", "models/tanh.json", _setup_closed, _pass_closed_smooth),
        Workload("closed_kinked", "perfbench/models/kinked.json", _setup_closed, _pass_closed_kinked),
        # one solve varies by about 20% with the thread pool's scheduling on
        # two vCPUs, so a run takes two passes whatever --seconds says
        Workload("transcription", "models/tanh.json", _setup_closed, _pass_transcription, min_passes=2),
        Workload("mc_smile", "models/tanh.json", _setup_mc, _pass_mc, run_checks=mc_repeat_check),
    )
}


def setup(w: Workload, root: Path) -> Context:
    return w.setup(root / w.model)


def pass_ops(w: Workload, ctx: Context, seed: int, p: int) -> list[Op]:
    return w.make_pass(ctx, random.Random(f"{w.name}/{seed}/{p}"), p)
