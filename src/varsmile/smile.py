"""Black-Scholes representation of variance-option prices and the
asymptotic implied-volatility smile."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from scipy.special import ndtr

from .errors import ArbitrageError, PrecisionWarning, check_finite
from .model import LsvModel, log_moneyness
from .atm import atm_expansion
from .numerics import Bracket, find_root
from .rate_general import RATE_METHODS, rate_by_method

__all__ = [
    "SmilePoint",
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
    rate is only known to within bounds (both the ATM level at the money).
    """

    strike: float
    x: float
    sigma_v: Optional[float]
    method: str
    lo: Optional[float] = None
    hi: Optional[float] = None


def black_price(f: float, k: float, sigma: float, t: float, r: float = 0.0, flag: str = "call") -> float:
    """Black (forward) price of a call or put on the variance forward."""
    check_finite(positive=True, f=f, k=k, sigma=sigma, t=t)
    check_finite(r=r)
    st = sigma * math.sqrt(t)
    d1 = (math.log(f / k) + 0.5 * st * st) / st
    d2 = d1 - st
    disc = math.exp(-r * t)
    if flag == "call":
        return disc * (f * ndtr(d1) - k * ndtr(d2))
    if flag == "put":
        return disc * (k * ndtr(-d2) - f * ndtr(-d1))
    raise ValueError("flag must be 'call' or 'put'")


def implied_vol(price: float, f: float, k: float, t: float, r: float = 0.0, flag: str = "call") -> float:
    """Invert the Black formula by Brent's method (``find_root``) on the
    vol bracket [1e-8, 10].

    Raises ValueError on a non-finite input and ArbitrageError outside the
    static band; warns (PrecisionWarning) and returns the bracket floor when
    the price is within roundoff of intrinsic.
    """
    check_finite(positive=True, f=f, k=k, t=t)
    check_finite(price=price, r=r)
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

    if diff(_VOL_FLOOR) >= -1e-14 * f:
        # price within roundoff of intrinsic: the vol is pinned at the floor
        warnings.warn("price at or below the bracket-floor vol; returning floor", PrecisionWarning)
        return _VOL_FLOOR
    if diff(_VOL_CEIL) < 0.0:
        raise ValueError(f"implied vol above bracket ceiling {_VOL_CEIL}")
    return find_root(diff, Bracket(_VOL_FLOOR, _VOL_CEIL), tol=1e-15)


def _sigma_from_rate(x: float, rate: float) -> float:
    return abs(x) / math.sqrt(2.0 * rate)


def asymptotic_smile(model: LsvModel, k: float, rate_method: str = "closed") -> SmilePoint:
    """Zero-maturity implied vol at strike k from a chosen rate computation.

    Methods (``rate_by_method``): "closed" (rho = 0 closed form), "numeric"
    (direct transcription; the exact reduction at rho = +-1), "expansion"
    (small-x polynomial, valid for small |x| only), "bounds" (interval).
    At the money (``log_moneyness`` 0) every method returns the ATM level of
    ``linear_smile_coeffs``; "bounds" as the interval lo = hi.
    """
    if rate_method not in RATE_METHODS:
        raise ValueError(f"rate method must be one of {'|'.join(RATE_METHODS)}, got {rate_method!r}")
    x = log_moneyness(model, k)
    if x == 0.0:
        sig = linear_smile_coeffs(model)[0]
        if rate_method == "bounds":
            return SmilePoint(strike=k, x=0.0, sigma_v=None, method="bounds", lo=sig, hi=sig)
        return SmilePoint(strike=k, x=0.0, sigma_v=sig, method=rate_method)

    res = rate_by_method(model, k, rate_method)
    if rate_method == "bounds":
        lo = _sigma_from_rate(x, res.best_upper)  # larger rate -> smaller vol
        hi = _sigma_from_rate(x, res.lower)
        return SmilePoint(strike=k, x=x, sigma_v=None, method="bounds", lo=lo, hi=hi)
    return SmilePoint(strike=k, x=x, sigma_v=_sigma_from_rate(x, res.value), method=rate_method)


def linear_smile_coeffs(model: LsvModel) -> tuple[float, float]:
    """(ATM level, ATM skew) of the zero-maturity smile in log-moneyness:
    Sigma = |x| / sqrt(2 I) with I = A x^2 + B x^3 expands as
    Sigma_ATM (1 - B x / (2 A)), Sigma_ATM = 1 / sqrt(2 A)."""
    exp = atm_expansion(model)
    sig_atm = 1.0 / math.sqrt(2.0 * exp.A)
    return sig_atm, -exp.B / (2.0 * exp.A) * sig_atm


def linear_smile(model: LsvModel, x: float) -> float:
    """Linear smile approximation: ATM level plus skew times log-moneyness."""
    sig_atm, s_v = linear_smile_coeffs(model)
    return sig_atm + s_v * x
