"""Local-stochastic volatility model inputs.

The asset follows dS/S = (r - q) dt + eta(S) sqrt(V) dB and the variance
dV/V = mu dt + sigma(V) dZ with corr(B, Z) = rho.  The leverage function
eta and the vol-of-vol sigma are parametric families evaluated in log
coordinates: eta as a function of u = log(S/S0), sigma as a function of
w = log(V/V0).  All families are bounded away from 0 and infinity (the
bounds are explicit clamps), which keeps every model representable here
inside the hypotheses of the asymptotic formulas.

Each shape has one implementation: the ``logpoly`` eta and sigma share
``_ClampedPoly``, the ``constant`` ones ``_Constant``; each public class keeps
its own fields, which are the keys of the model file.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Union

import numpy as np

from .errors import check_finite

__all__ = [
    "TanhEta",
    "LogPolyEta",
    "ConstantEta",
    "ConstantSigma",
    "LogPolySigma",
    "LsvModel",
    "ValidationReport",
    "eta_eval",
    "clamp_points",
    "forward_variance_limit",
    "ATM_REL_TOL",
    "log_moneyness",
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

    def diff_log(self, u1, u2, delta):
        # tanh(a) - tanh(b) = sinh(a - b) / (cosh(a) cosh(b)): no cancellation
        # when u1 -> u2, which the singular quadratures rely on.  ``delta``
        # supplies u1 - u2 exactly, as the caller knows it better than the
        # subtraction does.
        return (
            self.f1
            * np.sinh(delta)
            / (np.cosh(u1 - self.x0) * np.cosh(u2 - self.x0))
        )


def _horner(u, c):
    """sum_k c[k] u^k by Horner's rule, in the operation order of numpy's
    polynomial evaluation (so its bits) without its argument handling."""
    out = c[-1] + u * 0
    for ck in c[-2::-1]:
        out = ck + out * u
    return out


class _ClampedPoly:
    """A polynomial ``coeffs`` (ascending powers) in the log coordinate,
    clipped to [clamp_lo, clamp_hi]: the ``logpoly`` eta and sigma."""

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:]) or self.clamp_lo == self.clamp_hi

    def _clamp(self, raw):
        # np.clip's values for 0 < lo <= hi, NaN too, without its Python wrapper
        return np.minimum(np.maximum(raw, self.clamp_lo), self.clamp_hi)

    def value_log(self, u):
        return self._clamp(_horner(np.asarray(u, dtype=float), self.coeffs))

    @property
    def slope_coeffs(self) -> list[float]:  # of the raw polynomial's derivative, ascending
        return [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]

    def dvalue_log(self, u):
        u = np.asarray(u, dtype=float)
        raw = _horner(u, self.coeffs)
        return np.where((raw > self.clamp_lo) & (raw < self.clamp_hi), _horner(u, self.slope_coeffs), 0.0)

    def log_coeffs(self) -> tuple[float, float, float]:
        """Expansion at 0: the raw coefficients when c0 is strictly inside
        the clamps, else those of the flat piece."""
        c0, c1, c2 = (*self.coeffs, 0.0, 0.0)[:3]
        if self.clamp_lo < c0 < self.clamp_hi:
            return (c0, c1, c2)
        return (float(self.value_log(0.0)), 0.0, 0.0)


class _Constant:
    """A constant family: ``level`` everywhere, and both clamps."""

    is_constant = True

    @property
    def clamp_lo(self) -> float:
        return self.level

    @property
    def clamp_hi(self) -> float:
        return self.level

    def value_log(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.level)

    def dvalue_log(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def log_coeffs(self) -> tuple[float, float, float]:
        return (self.level, 0.0, 0.0)


@dataclass(frozen=True)
class LogPolyEta(_ClampedPoly):
    """Polynomial in log(S/S0), clipped to [clamp_lo, clamp_hi]."""

    coeffs: tuple[float, ...]
    clamp_lo: float
    clamp_hi: float

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def diff_log(self, u1, u2, delta):
        u1, u2, c = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float), self.coeffs
        lo, hi = self.clamp_lo, self.clamp_hi
        r1, r2 = _horner(u1, c), _horner(u2, c)
        inside = (r1 > lo) & (r1 < hi) & (r2 > lo) & (r2 < hi)
        # p(u1) - p(u2) = (u1 - u2) sum_k c_k h_k with h_k = sum_{j<k} u1^j u2^(k-1-j),
        # built as h_1 = 1, h_k = u2 h_(k-1) + u1^(k-1) and summed from the top
        h, power = [np.ones_like(u1 + u2)], 1.0
        for _ in c[2:]:
            power = power * u1
            h.append(u2 * h[-1] + power)
        acc = sum(ck * hk for ck, hk in zip(c[:0:-1], h[::-1]))
        return np.where(inside, delta * acc, self._clamp(r1) - self._clamp(r2))


@dataclass(frozen=True)
class ConstantEta(_Constant):
    eta0: float

    @property
    def level(self) -> float:
        return self.eta0


EtaSpec = Union[TanhEta, LogPolyEta, ConstantEta]


# ---------------------------------------------------------------------------
# Vol-of-vol families, evaluated at w = log(V/V0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSigma(_Constant):
    sigma0: float

    @property
    def level(self) -> float:
        return self.sigma0


@dataclass(frozen=True)
class LogPolySigma(_ClampedPoly):
    """sigma0 + sigma1 w + sigma2 w^2 in w = log(V/V0), clipped."""

    sigma0: float
    sigma1: float = 0.0
    sigma2: float = 0.0
    clamp_lo: float = 1e-4
    clamp_hi: float = 1e4

    @property
    def coeffs(self) -> tuple[float, float, float]:
        return (self.sigma0, self.sigma1, self.sigma2)


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
    mu: float = 0.0

    def __post_init__(self):
        check_finite(positive=True, s0=self.s0, v0=self.v0)
        if not (abs(self.rho) <= 1.0):
            raise ValueError(f"|rho| <= 1 required, got {self.rho}")
        for key in ("r", "q", "mu"):
            value = getattr(self, key)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")

    def with_rho(self, rho: float) -> "LsvModel":
        return replace(self, rho=rho)


def real_roots(c) -> list[float]:
    """Finite real roots of sum_k c[k] u^k.  A leading coefficient whose
    companion-matrix entries c[k] / c[-1] overflow (or that is 0) is dropped
    first: its roots lie past the float range."""
    c = list(c)
    with np.errstate(all="ignore"):
        while len(c) > 1 and not np.isfinite(np.divide(c[:-1], c[-1])).all():
            c.pop()
    return [float(r.real) for r in np.polynomial.polynomial.polyroots(c) if r.imag == 0.0 and math.isfinite(r.real)]


@functools.cache
def clamp_points(spec) -> tuple[float, ...]:
    """Sorted log coordinates (u for eta, w for sigma) where a ``logpoly``
    family meets a clamp, its kinks; () for the tanh and constant families."""
    if not isinstance(spec, _ClampedPoly):
        return ()
    c = spec.coeffs
    return tuple(sorted(r for lvl in (spec.clamp_lo, spec.clamp_hi) for r in real_roots((c[0] - lvl, *c[1:]))))


def eta_eval(model: LsvModel, s):
    """Clamped local volatility at asset price(s) s > 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("asset price must be positive")
    out = model.eta.value_log(np.log(s / model.s0))
    return float(out) if out.ndim == 0 else out


def forward_variance_limit(model: LsvModel) -> float:
    """Zero-maturity fair strike of the variance swap: F_V(0) = eta(S0)^2 V0.
    ValueError where eta(S0) <= 0 or F_V(0) underflows to 0 or overflows."""
    eta0 = float(eta_eval(model, model.s0))
    try:
        f_v = eta0**2 * model.v0
    except OverflowError:  # eta0**2 raises where it would be inf
        f_v = math.inf
    if not (eta0 > 0.0 and 0.0 < f_v < math.inf):
        raise ValueError(f"eta(S0) = {eta0!r} and F_V(0) = eta(S0)^2 V0 must be positive and finite "
                         f"(V0 = {model.v0!r})")
    return f_v


# A strike whose ratio K / F_V(0) is within this distance of 1 is at the
# money: its log-moneyness is exactly 0, and so is every rate there.  The
# Asian solve reads the same band for its budget ratio z / V0.
ATM_REL_TOL = 1e-13


def log_moneyness(model: LsvModel, k: float) -> float:
    """x = log(K / F_V(0)) of a strike 0 < K < inf; exactly 0.0 inside the
    ATM band ``ATM_REL_TOL``.  A model whose F_V(0) ``forward_variance_limit``
    refuses raises its ValueError.

    The band test forms K / F_V(0) as the Asian solve forms z / V0 at the
    pivot budget z = K / eta(S0)^2, rounding included, so a strike outside
    the band never meets an Asian solve that takes it for ATM.
    """
    check_finite(positive=True, strike=k)
    f_v = forward_variance_limit(model)
    if abs(k / float(model.eta.value_log(0.0)) ** 2 / model.v0 - 1.0) <= ATM_REL_TOL:
        return 0.0
    return math.log(k / f_v)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def validate(model: LsvModel) -> ValidationReport:
    """Check the standing assumptions numerically.

    Violations are collected, not raised, so one call reports everything.
    Non-monotone non-constant leverage only warns: none of the implemented
    formulas use the inverse of eta.  A strike is judged by ``log_moneyness``.
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

    try:
        forward_variance_limit(model)
    except ValueError as exc:
        errors.append(str(exc))
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

    return ValidationReport(valid=not errors, errors=tuple(errors), warnings=tuple(warnings))


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


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def _spec_from_dict(d, what: str, types: dict):
    """The eta or sigma family that ``d`` names, built from its dataclass:
    each field is read from the key of its name, and a key left out takes
    the field's default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} spec must be an object, got {d!r}")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in types:
        raise ValueError(f"{what} spec needs a 'type' in {sorted(types)}, got {kind!r}")
    cls, where = types[kind], f"{what}[{kind}]"
    _check_keys(d, {f.name for f in fields(cls)} | {"type"}, where)
    args = {}
    for f in fields(cls):
        value = d.get(f.name, f.default)
        if value is MISSING:
            raise ValueError(f"{where} missing required key {f.name!r}")
        if f.type.startswith("tuple"):  # LogPolyEta.coeffs
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{where}.{f.name} must be a list of numbers, got {value!r}")
            args[f.name] = tuple(_number(c, f"{where}.{f.name}") for c in value)
        else:
            args[f.name] = _number(value, f"{where}.{f.name}")
    return cls(**args)


def model_from_dict(d: dict) -> LsvModel:
    if not isinstance(d, dict):
        raise ValueError(f"a model file must hold an object, got {d!r}")
    _check_keys(d, {"s0", "v0", "rho", "r", "q", "mu", "eta", "sigma"}, "model")
    for key in ("s0", "v0", "rho", "eta", "sigma"):
        if key not in d:
            raise ValueError(f"model file missing required key {key!r}")
    return LsvModel(
        **{key: _number(d.get(key, 0.0), key) for key in ("s0", "v0", "rho", "r", "q", "mu")},
        eta=_spec_from_dict(d["eta"], "eta", _ETA_TYPES),
        sigma=_spec_from_dict(d["sigma"], "sigma", _SIGMA_TYPES),
    )


def model_to_dict(model: LsvModel) -> dict:
    """JSON form of the model; a zero drift is left out, so files written
    before the drift was serialized keep their content and hash."""
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
