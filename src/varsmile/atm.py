"""Expansion of the rate function around the money and the ATM sqrt(T) limit.

The rate function admits I(x) = A x^2 + B x^3 + O(x^4) in log-moneyness
x = log(K / (V0 eta(S0)^2)).  A and B are explicit in the log-expansion
coefficients of eta and sigma; the optimal paths expand to second order
with polynomial time profiles whose coefficients are sigma0-polynomials
assembled below.  Everything here is closed-form arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError
from .model import LsvModel, forward_variance_limit
from .paths import PathPair

__all__ = ["AtmExpansion", "atm_expansion", "expansion_paths", "atm_price_limit"]


@dataclass(frozen=True)
class AtmExpansion:
    """Coefficients of the small-x expansion of the rate function and paths.

    value(x) = A x^2 + B x^3 with A = 3 / (2 D); the smile's ATM level and
    skew follow from A and B (``linear_smile_coeffs``).  First-order paths
    are g1_amp * (2t - t^2) and h1_amp * (2t - t^2); second-order profiles
    are cubic/quartic polynomials with coefficients (a, b, c) and
    (abar, bbar, cbar).
    """

    A: float
    B: float
    D: float
    g1_amp: float
    h1_amp: float
    a: float
    b: float
    c: float
    abar: float
    bbar: float
    cbar: float

    def rate(self, x: float) -> float:
        return self.A * x * x + self.B * x**3

    def g1(self, t):
        t = np.asarray(t, dtype=float)
        return self.g1_amp * (2.0 * t - t * t)

    def h1(self, t):
        t = np.asarray(t, dtype=float)
        return self.h1_amp * (2.0 * t - t * t)

    @staticmethod
    def _profile2(t, a, b, c):
        t = np.asarray(t, dtype=float)
        return 0.5 * a * t * (t - 2.0) + b * t * (t * t - 3.0) / 6.0 + c * t * (t**3 - 4.0) / 12.0

    def g2(self, t):
        return self._profile2(t, self.a, self.b, self.c)

    def h2(self, t):
        return self._profile2(t, self.abar, self.bbar, self.cbar)


def _denominator(model: LsvModel) -> float:
    """D = sigma0^2 + 4 rho sigma0 sqrt(V0) eta1 + 4 eta1^2 V0, with eta1 and
    sigma0 the log-expansion coefficients of eta at S0 and sigma at V0."""
    _, eta1, _ = model.eta.log_coeffs()
    sig0, _, _ = model.sigma.log_coeffs()
    return sig0 * sig0 + 4.0 * model.rho * sig0 * math.sqrt(model.v0) * eta1 + 4.0 * eta1 * eta1 * model.v0


def atm_expansion(model: LsvModel) -> AtmExpansion:
    """Assemble the expansion coefficients for the given model."""
    eta0, eta1, eta2 = model.eta.log_coeffs()
    sig0, sig1, _ = model.sigma.log_coeffs()
    rho = model.rho
    v0 = model.v0
    sv = math.sqrt(v0)

    d = _denominator(model)
    if d <= 1e-14:
        raise DegenerateModelError("quadratic coefficient denominator vanishes")

    beta0 = 16.0 * eta1**2 * v0**2 * (eta1**2 + 6.0 * eta0 * eta2)
    beta1 = 8.0 * eta1 * rho * v0 * (3.0 * eta1 * rho * sig1 + 7.0 * eta1**2 * sv + 12.0 * eta0 * eta2 * sv)
    beta2 = 4.0 * (
        6.0 * eta1 * rho * sig1 * sv + 6.0 * eta0 * eta2 * rho**2 * v0 + eta1**2 * (5.0 + 7.0 * rho**2) * v0
    )
    cubic_num = (
        sig0**4
        + 2.0 * sig0**3 * (3.0 * sig1 + 7.0 * eta1 * rho * sv)
        + beta2 * sig0**2
        + beta1 * sig0
        + beta0
    )
    a_coef = 3.0 / (2.0 * d)
    b_coef = -3.0 / (10.0 * d**3) * cubic_num

    g1_amp = 1.5 * (2.0 * eta1 * sv + rho * sig0) * sv * eta0 / d
    h1_amp = 1.5 * sig0 * (sig0 + 2.0 * eta1 * rho * sv) / d

    c_series = (
        64.0 * eta1**3 * (14.0 * eta1**2 + 9.0 * eta0 * eta2) * v0**2.5,
        144.0 * eta1**3 * rho**2 * sig1 * v0**1.5
        + 16.0 * eta1**2 * (149.0 * eta1**2 + 54.0 * eta0 * eta2) * rho * v0**2,
        144.0 * eta1**2 * rho * sig1 * v0
        + 72.0 * eta1**2 * rho**3 * sig1 * v0
        + 640.0 * eta1**3 * v0**1.5
        + 8.0 * eta1 * (227.0 * eta1**2 + 54.0 * eta0 * eta2) * rho**2 * v0**1.5,
        36.0 * eta1 * sig1 * sv
        + 72.0 * eta1 * rho**2 * sig1 * sv
        + 864.0 * eta1**2 * rho * v0
        + 4.0 * (91.0 * eta1**2 + 18.0 * eta0 * eta2) * rho**3 * v0,
        18.0 * rho * sig1 + 86.0 * eta1 * sv + 212.0 * eta1 * rho**2 * sv,
        28.0 * rho,
    )
    d_series = (
        8.0 * eta0 * eta1 * v0**2 * (5.0 * eta1**2 + 2.0 * eta0 * eta2),
        4.0 * eta0 * eta1 * rho**2 * sig1 * v0
        + 8.0 * eta0 * (8.0 * eta1**2 + eta0 * eta2) * rho * v0**1.5,
        2.0 * eta0 * rho * sig1 * sv + 16.0 * eta0 * eta1 * v0 + 16.0 * eta0 * eta1 * rho**2 * v0,
        5.0 * eta0 * rho * sv,
    )
    cbar_series = (
        32.0
        * (
            15.0 * eta1**4 * rho**2 * sig1 * v0**2
            + 13.0 * eta1**5 * rho * v0**2.5
            + 18.0 * eta0 * eta1**3 * eta2 * rho * v0**2.5
        ),
        16.0
        * (
            30.0 * eta1**3 * rho * sig1 * v0**1.5
            + 39.0 * eta1**3 * rho**3 * sig1 * v0**1.5
            - 2.0 * eta1**4 * v0**2
            + 18.0 * eta0 * eta1**2 * eta2 * v0**2
            + 76.0 * eta1**4 * rho**2 * v0**2
            + 36.0 * eta0 * eta1**2 * eta2 * rho**2 * v0**2
        ),
        8.0
        * (
            15.0 * eta1**2 * sig1 * v0
            + 102.0 * eta1**2 * rho**2 * sig1 * v0
            + 66.0 * eta1**3 * rho * v0**1.5
            + 36.0 * eta0 * eta1 * eta2 * rho * v0**1.5
            + 91.0 * eta1**3 * rho**3 * v0**1.5
            + 18.0 * eta0 * eta1 * eta2 * rho**3 * v0**1.5
        ),
        4.0
        * (
            87.0 * eta1 * rho * sig1 * sv
            + 20.0 * eta1**2 * v0
            + 137.0 * eta1**2 * rho**2 * v0
            + 18.0 * eta0 * eta2 * rho**2 * v0
        ),
        4.0 * (12.0 * sig1 + 37.0 * eta1 * rho * sv),
        13.0,
    )
    dbar_series = (
        4.0 * eta1 * rho * (3.0 * eta1 * rho * sig1 + 2.0 * eta1**2 * sv + 2.0 * eta0 * eta2 * sv) * v0,
        2.0 * (7.0 * eta1 * rho * sig1 * sv + 7.0 * eta1**2 * rho**2 * v0 + 2.0 * eta0 * eta2 * rho**2 * v0),
        4.0 * sig1 + 7.0 * eta1 * rho * sv,
        1.0,
    )

    c_sum = sum(cj * sig0**j for j, cj in enumerate(c_series))
    d_sum = sum(dj * sig0**j for j, dj in enumerate(d_series))
    cbar_sum = sum(cj * sig0**j for j, cj in enumerate(cbar_series))
    dbar_sum = sum(dj * sig0**j for j, dj in enumerate(dbar_series))

    a = 3.0 * eta0 * sv * c_sum / (10.0 * d**3)
    b = -4.5 * d_sum / (d * d)
    c = 2.25 * d_sum / (d * d)
    abar = 3.0 * sig0 * cbar_sum / (10.0 * d**3)
    bbar = -9.0 * sig0 * dbar_sum / (d * d)
    cbar = 4.5 * sig0 * dbar_sum / (d * d)

    return AtmExpansion(
        A=a_coef,
        B=b_coef,
        D=d,
        g1_amp=g1_amp,
        h1_amp=h1_amp,
        a=a,
        b=b,
        c=c,
        abar=abar,
        bbar=bbar,
        cbar=cbar,
    )


def expansion_paths(model: LsvModel, x: float, n: int = 401) -> PathPair:
    """Optimal paths truncated at second order in x, on n uniform nodes."""
    exp = atm_expansion(model)
    t = np.linspace(0.0, 1.0, n)
    g = x * exp.g1(t) + x * x * exp.g2(t)
    h = x * exp.h1(t) + x * x * exp.h2(t)
    return PathPair(math.log(model.s0) + g, math.log(model.v0) + h)


def atm_price_limit(model: LsvModel) -> float:
    """limit of ATM price / sqrt(T): same constant for calls and puts.

    Equals F_V(0) sqrt(D / (6 pi)), F_V(0) = eta^2(S0) V0 and D the expansion's
    denominator 4 V0 (S0 eta'(S0))^2 + sigma^2(V0) + 4 rho S0 eta'(S0) sqrt(V0) sigma(V0).
    """
    return forward_variance_limit(model) / math.sqrt(6.0 * math.pi) * math.sqrt(max(_denominator(model), 0.0))
