"""Local-stochastic volatility model inputs.

The asset follows dS/S = (r - q) dt + eta(S) sqrt(V) dB and the variance
dV/V = mu(V) dt + sigma(V) dZ with corr(B, Z) = rho.  The leverage function
eta and the vol-of-vol sigma are parametric families evaluated in log
coordinates: eta as a function of u = log(S/S0), sigma as a function of
w = log(V/V0).  All families are bounded away from 0 and infinity (the
bounds are explicit clamps), which keeps every model representable here
inside the hypotheses of the asymptotic formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Union

import numpy as np

__all__ = [
    "TanhEta",
    "LogPolyEta",
    "ConstantEta",
    "ConstantSigma",
    "LogPolySigma",
    "LsvModel",
    "ValidationReport",
    "eta_eval",
    "sigma_eval",
    "forward_variance_limit",
    "validate",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "save_model",
]


# ---------------------------------------------------------------------------
# Leverage function families, evaluated at u = log(S/S0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TanhEta:
    """eta(S) = f0 + f1 * tanh(log(S/S0) - x0).

    Bounded in [f0 - |f1|, f0 + |f1|]; strictly decreasing iff f1 < 0.
    """

    f0: float
    f1: float
    x0: float = 0.0

    @property
    def clamp_lo(self) -> float:
        return self.f0 - abs(self.f1)

    @property
    def clamp_hi(self) -> float:
        return self.f0 + abs(self.f1)

    @property
    def is_constant(self) -> bool:
        return self.f1 == 0.0

    def value_log(self, u):
        return self.f0 + self.f1 * np.tanh(u - self.x0)

    def dvalue_log(self, u):
        return self.f1 / np.cosh(u - self.x0) ** 2

    def log_coeffs(self) -> tuple[float, float, float]:
        t0 = math.tanh(self.x0)
        c2 = math.cosh(self.x0) ** 2
        return (self.f0 - self.f1 * t0, self.f1 / c2, self.f1 * t0 / c2)

    def diff_log(self, u1, u2, delta=None):
        # tanh(a) - tanh(b) = sinh(a - b) / (cosh(a) cosh(b)): no cancellation
        # when u1 -> u2, which the singular quadratures rely on.  ``delta``
        # supplies u1 - u2 exactly when the caller knows it better than the
        # subtraction does.
        if delta is None:
            delta = u1 - u2
        return (
            self.f1
            * np.sinh(delta)
            / (np.cosh(u1 - self.x0) * np.cosh(u2 - self.x0))
        )


@dataclass(frozen=True)
class LogPolyEta:
    """Polynomial in log(S/S0), clipped to [clamp_lo, clamp_hi]."""

    coeffs: tuple[float, ...]
    clamp_lo: float
    clamp_hi: float

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:]) or self.clamp_lo == self.clamp_hi

    def _raw(self, u):
        return np.polynomial.polynomial.polyval(u, self.coeffs)

    def value_log(self, u):
        return np.clip(self._raw(u), self.clamp_lo, self.clamp_hi)

    def dvalue_log(self, u):
        raw = self._raw(u)
        d = np.polynomial.polynomial.polyval(
            u, [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]
        )
        inside = (raw > self.clamp_lo) & (raw < self.clamp_hi)
        return np.where(inside, d, 0.0)

    def log_coeffs(self) -> tuple[float, float, float]:
        c = self.coeffs + (0.0, 0.0, 0.0)
        return _clamped_coeffs(self, c[0], c[1], c[2])

    def diff_log(self, u1, u2, delta=None):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        if delta is None:
            delta = u1 - u2
        r1, r2 = self._raw(u1), self._raw(u2)
        inside = (
            (r1 > self.clamp_lo) & (r1 < self.clamp_hi)
            & (r2 > self.clamp_lo) & (r2 < self.clamp_hi)
        )
        # p(u1) - p(u2) = (u1 - u2) * sum_k c_k * sum_{j<k} u1^j u2^(k-1-j)
        acc = np.zeros_like(u1 + u2)
        for k in range(len(self.coeffs) - 1, 0, -1):
            inner = np.zeros_like(acc)
            for j in range(k):
                inner = inner + u1**j * u2 ** (k - 1 - j)
            acc = acc + self.coeffs[k] * inner
        exact = delta * acc
        plain = self.value_log(u1) - self.value_log(u2)
        return np.where(inside, exact, plain)


@dataclass(frozen=True)
class ConstantEta:
    eta0: float

    @property
    def clamp_lo(self) -> float:
        return self.eta0

    @property
    def clamp_hi(self) -> float:
        return self.eta0

    is_constant = True

    def value_log(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.eta0)

    def dvalue_log(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def log_coeffs(self) -> tuple[float, float, float]:
        return (self.eta0, 0.0, 0.0)

    def diff_log(self, u1, u2, delta=None):
        return np.zeros_like(np.asarray(u1, dtype=float) + np.asarray(u2, dtype=float))


EtaSpec = Union[TanhEta, LogPolyEta, ConstantEta]


def _clamped_coeffs(spec, c0: float, c1: float, c2: float) -> tuple[float, float, float]:
    """Expansion at 0 of a clipped polynomial with raw coefficients c0, c1, c2:
    the raw ones strictly inside the clamps, else those of the flat piece."""
    if spec.clamp_lo < c0 < spec.clamp_hi:
        return (c0, c1, c2)
    return (float(spec.value_log(0.0)), 0.0, 0.0)


# ---------------------------------------------------------------------------
# Vol-of-vol families, evaluated at w = log(V/V0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSigma:
    sigma0: float

    @property
    def clamp_lo(self) -> float:
        return self.sigma0

    @property
    def clamp_hi(self) -> float:
        return self.sigma0

    is_constant = True

    def value_log(self, w):
        return np.full_like(np.asarray(w, dtype=float), self.sigma0)

    def dvalue_log(self, w):
        return np.zeros_like(np.asarray(w, dtype=float))

    def log_coeffs(self) -> tuple[float, float, float]:
        return (self.sigma0, 0.0, 0.0)


@dataclass(frozen=True)
class LogPolySigma:
    """sigma0 + sigma1 w + sigma2 w^2 in w = log(V/V0), clipped."""

    sigma0: float
    sigma1: float
    sigma2: float = 0.0
    clamp_lo: float = 1e-4
    clamp_hi: float = 1e4

    @property
    def is_constant(self) -> bool:
        return (self.sigma1 == 0.0 and self.sigma2 == 0.0) or self.clamp_lo == self.clamp_hi

    def _raw(self, w):
        w = np.asarray(w, dtype=float)
        return self.sigma0 + self.sigma1 * w + self.sigma2 * w * w

    def value_log(self, w):
        return np.clip(self._raw(w), self.clamp_lo, self.clamp_hi)

    def dvalue_log(self, w):
        raw = self._raw(w)
        w = np.asarray(w, dtype=float)
        inside = (raw > self.clamp_lo) & (raw < self.clamp_hi)
        return np.where(inside, self.sigma1 + 2.0 * self.sigma2 * w, 0.0)

    def log_coeffs(self) -> tuple[float, float, float]:
        return _clamped_coeffs(self, self.sigma0, self.sigma1, self.sigma2)


SigmaSpec = Union[ConstantSigma, LogPolySigma]


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LsvModel:
    """Immutable bundle of model state; all operations on it are pure."""

    s0: float
    v0: float
    rho: float
    eta: EtaSpec
    sigma: SigmaSpec
    r: float = 0.0
    q: float = 0.0
    mu: Union[float, Callable] = 0.0

    def __post_init__(self):
        if not (self.s0 > 0 and math.isfinite(self.s0)):
            raise ValueError("s0 must be positive and finite")
        if not (self.v0 > 0 and math.isfinite(self.v0)):
            raise ValueError("v0 must be positive and finite")
        if not (abs(self.rho) <= 1.0):
            raise ValueError(f"|rho| <= 1 required, got {self.rho}")

    def with_rho(self, rho: float) -> "LsvModel":
        return replace(self, rho=rho)

    def mu_eval(self, v):
        if callable(self.mu):
            return self.mu(v)
        return np.full_like(np.asarray(v, dtype=float), float(self.mu))


def _eval_at_level(spec, level0: float, x, what: str):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"{what} must be positive")
    out = spec.value_log(np.log(x / level0))
    return float(out) if out.ndim == 0 else out


def eta_eval(model: LsvModel, s):
    """Clamped local volatility at asset price(s) s > 0."""
    return _eval_at_level(model.eta, model.s0, s, "asset price")


def sigma_eval(model: LsvModel, v):
    """Clamped vol-of-vol at variance level(s) v > 0."""
    return _eval_at_level(model.sigma, model.v0, v, "variance")


def forward_variance_limit(model: LsvModel) -> float:
    """Zero-maturity fair strike of the variance swap: eta(S0)^2 * V0."""
    return float(eta_eval(model, model.s0)) ** 2 * model.v0


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    moneyness: str | None = None


def validate(model: LsvModel, strike: float | None = None) -> ValidationReport:
    """Check the standing assumptions numerically; classify moneyness.

    Violations are collected, not raised, so one call reports everything.
    Non-monotone non-constant leverage only warns: none of the implemented
    formulas use the inverse of eta.
    """
    errors: list[str] = []
    warnings: list[str] = []

    grid = np.linspace(-10.0, 10.0, 2001)
    eta_vals = model.eta.value_log(grid)
    sig_vals = model.sigma.value_log(grid)

    if not np.all(np.isfinite(eta_vals)) or float(np.min(eta_vals)) <= 0.0:
        errors.append("eta not positive on the log grid")
    if not np.all(np.isfinite(sig_vals)) or float(np.min(sig_vals)) <= 0.0:
        errors.append("sigma not positive on the log grid")

    for name, spec in (("eta", model.eta), ("sigma", model.sigma)):
        lo, hi = spec.clamp_lo, spec.clamp_hi
        if not (0.0 < lo <= hi and math.isfinite(hi)):
            errors.append(f"{name} clamp bounds invalid: [{lo}, {hi}]")

    if not model.eta.is_constant:
        deltas = np.diff(eta_vals)
        if np.any(deltas > 1e-15) and np.any(deltas < -1e-15):
            warnings.append("eta is not monotone; endpoint equations assume monotone leverage")
        elif np.any(deltas > 1e-15):
            warnings.append("eta is increasing; the usual leverage effect assumes decreasing eta")

    moneyness = None
    if strike is not None:
        if not 0 < strike < math.inf:
            errors.append(f"strike must be positive and finite, got {strike}")
        else:
            fv0 = forward_variance_limit(model)
            if abs(strike - fv0) <= 1e-12 * fv0:
                moneyness = "atm"
            elif strike > fv0:
                moneyness = "otm_call"
            else:
                moneyness = "otm_put"

    return ValidationReport(
        valid=not errors,
        errors=tuple(errors),
        warnings=tuple(warnings),
        moneyness=moneyness,
    )


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

# file "type" of each family; a spec's other keys are its dataclass fields
_ETA_TYPES = {"tanh": TanhEta, "logpoly": LogPolyEta, "constant": ConstantEta}
_SIGMA_TYPES = {"constant": ConstantSigma, "logpoly": LogPolySigma}
_TYPE_NAMES = {cls: name for types in (_ETA_TYPES, _SIGMA_TYPES) for name, cls in types.items()}


def _check_keys(d: dict, allowed: set[str], where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _spec_body(d: dict, what: str, types: dict) -> tuple[str, dict]:
    """(type, remaining keys) of an eta or sigma spec, the keys checked."""
    if "type" not in d:
        raise ValueError(f"{what} spec needs a 'type' key")
    kind = d["type"]
    if kind not in types:
        raise ValueError(f"unknown {what} type {kind!r}")
    body = {k: v for k, v in d.items() if k != "type"}
    _check_keys(body, {f.name for f in fields(types[kind])}, f"{what}[{kind}]")
    return kind, body


def _eta_from_dict(d: dict) -> EtaSpec:
    kind, body = _spec_body(d, "eta", _ETA_TYPES)
    if kind == "tanh":
        return TanhEta(float(body["f0"]), float(body["f1"]), float(body.get("x0", 0.0)))
    if kind == "logpoly":
        return LogPolyEta(
            tuple(float(c) for c in body["coeffs"]),
            float(body["clamp_lo"]),
            float(body["clamp_hi"]),
        )
    return ConstantEta(float(body["eta0"]))


def _sigma_from_dict(d: dict) -> SigmaSpec:
    kind, body = _spec_body(d, "sigma", _SIGMA_TYPES)
    if kind == "constant":
        return ConstantSigma(float(body["sigma0"]))
    return LogPolySigma(
        float(body["sigma0"]),
        float(body.get("sigma1", 0.0)),
        float(body.get("sigma2", 0.0)),
        float(body.get("clamp_lo", 1e-4)),
        float(body.get("clamp_hi", 1e4)),
    )


def model_from_dict(d: dict) -> LsvModel:
    _check_keys(d, {"s0", "v0", "rho", "r", "q", "mu", "eta", "sigma"}, "model")
    for key in ("s0", "v0", "rho", "eta", "sigma"):
        if key not in d:
            raise ValueError(f"model file missing required key {key!r}")
    return LsvModel(
        s0=float(d["s0"]),
        v0=float(d["v0"]),
        rho=float(d["rho"]),
        r=float(d.get("r", 0.0)),
        q=float(d.get("q", 0.0)),
        mu=float(d.get("mu", 0.0)),
        eta=_eta_from_dict(d["eta"]),
        sigma=_sigma_from_dict(d["sigma"]),
    )


def model_to_dict(model: LsvModel) -> dict:
    """JSON form of the model; a zero drift is left out, so files written
    before the drift was serialized keep their content and hash."""
    if callable(model.mu):
        raise ValueError("a callable drift mu cannot be written to a model file")
    out = {"s0": model.s0, "v0": model.v0, "rho": model.rho, "r": model.r, "q": model.q}
    for name, spec in (("eta", model.eta), ("sigma", model.sigma)):
        out[name] = {"type": _TYPE_NAMES[type(spec)], **asdict(spec)}
        if "coeffs" in out[name]:
            out[name]["coeffs"] = list(spec.coeffs)
    if model.mu != 0.0:
        out["mu"] = float(model.mu)
    return out


def load_model(path) -> LsvModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: LsvModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
