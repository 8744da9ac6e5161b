"""Black-Scholes representation of variance-option prices and the
asymptotic implied-volatility smile."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from scipy.special import ndtr

from .errors import ArbitrageError, PrecisionWarning
from .model import LsvModel, forward_variance_limit
from .atm import atm_expansion
from .rate_general import rate_by_method

__all__ = [
    "SmilePoint",
    "SmileCurve",
    "black_price",
    "implied_vol",
    "asymptotic_smile",
    "linear_smile",
    "linear_smile_coeffs",
]

_VOL_FLOOR = 1e-8
_VOL_CEIL = 10.0


@dataclass(frozen=True)
class SmilePoint:
    """One strike of the asymptotic smile.

    ``sigma_v`` is the zero-maturity implied volatility of the variance
    option (None for interval-only methods); ``lo``/``hi`` bound it when the
    rate is only known to within bounds.
    """

    strike: float
    x: float
    sigma_v: Optional[float]
    method: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    price: Optional[float] = None


@dataclass(frozen=True)
class SmileCurve:
    points: tuple[SmilePoint, ...]

    def __iter__(self):
        return iter(self.points)


def black_price(f: float, k: float, sigma: float, t: float, r: float = 0.0, flag: str = "call") -> float:
    """Black (forward) price of a call or put on the variance forward."""
    if f <= 0 or k <= 0 or sigma <= 0 or t <= 0:
        raise ValueError("f, k, sigma, t must all be positive")
    st = sigma * math.sqrt(t)
    d1 = (math.log(f / k) + 0.5 * st * st) / st
    d2 = d1 - st
    disc = math.exp(-r * t)
    if flag == "call":
        return disc * (f * ndtr(d1) - k * ndtr(d2))
    if flag == "put":
        return disc * (k * ndtr(-d2) - f * ndtr(-d1))
    raise ValueError("flag must be 'call' or 'put'")


def _vega(f: float, k: float, sigma: float, t: float, r: float) -> float:
    st = sigma * math.sqrt(t)
    d1 = (math.log(f / k) + 0.5 * st * st) / st
    return math.exp(-r * t) * f * math.sqrt(t) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def implied_vol(price: float, f: float, k: float, t: float, r: float = 0.0, flag: str = "call") -> float:
    """Invert the Black formula: bisection bracket then Newton polish.

    Raises ArbitrageError outside the static band; warns (PrecisionWarning)
    and returns the best vol when the price pins the bracket floor or vega
    underflows.
    """
    if f <= 0 or k <= 0 or t <= 0:
        raise ValueError("f, k, t must be positive")
    disc = math.exp(-r * t)
    if flag == "call":
        intrinsic, upper = disc * max(f - k, 0.0), disc * f
    elif flag == "put":
        intrinsic, upper = disc * max(k - f, 0.0), disc * k
    else:
        raise ValueError("flag must be 'call' or 'put'")
    if price < intrinsic or price >= upper:
        raise ArbitrageError(
            f"price {price} outside the no-arbitrage band [{intrinsic}, {upper})"
        )

    def diff(sig):
        return black_price(f, k, sig, t, r, flag) - price

    lo, hi = _VOL_FLOOR, _VOL_CEIL
    f_lo = diff(lo)
    if f_lo >= -1e-14 * f:
        # price within roundoff of intrinsic: the vol is pinned at the floor
        warnings.warn("price at or below the bracket-floor vol; returning floor", PrecisionWarning)
        return lo
    if diff(hi) < 0.0:
        raise ValueError(f"implied vol above bracket ceiling {_VOL_CEIL}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    sigma = 0.5 * (lo + hi)

    for _ in range(50):
        err = diff(sigma)
        if err == 0.0:
            break
        vega = _vega(f, k, sigma, t, r)
        if vega < 1e-300:
            warnings.warn("flat vega; implied vol at reduced precision", PrecisionWarning)
            break
        step = err / vega
        sigma = min(max(sigma - step, _VOL_FLOOR), _VOL_CEIL)
        if abs(step) <= 1e-12 * max(1.0, sigma):
            break
    return sigma


def _sigma_from_rate(x: float, rate: float) -> float:
    return abs(x) / math.sqrt(2.0 * rate)


def asymptotic_smile(model: LsvModel, k: float, rate_method: str = "closed") -> SmilePoint:
    """Zero-maturity implied vol at strike k from a chosen rate computation.

    Methods (``rate_by_method``): "closed" (rho = 0 closed form), "numeric"
    (direct transcription; the exact reduction at rho = +-1), "expansion"
    (small-x polynomial, valid for small |x| only), "bounds" (interval).
    At the money every method returns the same limit sqrt(D/3).
    """
    if not 0 < k < math.inf:
        raise ValueError("strike must be positive and finite")
    fv0 = forward_variance_limit(model)
    x = math.log(k / fv0)
    if abs(x) <= 1e-14:
        exp = atm_expansion(model)
        sig = math.sqrt(1.0 / (2.0 * exp.A))
        return SmilePoint(strike=k, x=0.0, sigma_v=sig, method=rate_method)

    res = rate_by_method(model, k, rate_method)
    if rate_method == "bounds":
        lo = _sigma_from_rate(x, res.best_upper)  # larger rate -> smaller vol
        hi = _sigma_from_rate(x, res.lower)
        return SmilePoint(strike=k, x=x, sigma_v=None, method="bounds", lo=lo, hi=hi)
    if res.value <= 0.0:
        raise ValueError(f"{rate_method} rate {res.value:.6g} not positive at x={x}")
    return SmilePoint(strike=k, x=x, sigma_v=_sigma_from_rate(x, res.value), method=rate_method)


def linear_smile_coeffs(model: LsvModel) -> tuple[float, float]:
    """(ATM level, ATM skew) of the zero-maturity smile in log-moneyness."""
    exp = atm_expansion(model)
    _, eta1, _ = model.eta.log_coeffs()
    sig0, sig1, _ = model.sigma.log_coeffs()
    sig_atm = math.sqrt(exp.D / 3.0)
    numerator = (
        sig0**4
        + 2.0 * sig0**3 * (3.0 * sig1 + 7.0 * eta1 * model.rho * math.sqrt(model.v0))
        + exp.beta2 * sig0**2
        + exp.beta1 * sig0
        + exp.beta0
    )
    s_v = numerator / (10.0 * math.sqrt(3.0) * exp.D**1.5)
    return sig_atm, s_v


def linear_smile(model: LsvModel, x: float) -> float:
    """Linear smile approximation: ATM level plus skew times log-moneyness."""
    sig_atm, s_v = linear_smile_coeffs(model)
    return sig_atm + s_v * x
