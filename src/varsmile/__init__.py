"""Short-maturity asymptotics and Monte Carlo pricing for options on
realized variance under local-stochastic volatility."""

from .model import (
    ConstantEta,
    ConstantSigma,
    LogPolyEta,
    LogPolySigma,
    LsvModel,
    TanhEta,
    eta_eval,
    forward_variance_limit,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate,
)
from .paths import PathPair
from .rate_zero import (
    AsianRateSolution,
    RateResult,
    asian_rate_j,
    asian_rate_j_const,
    optimal_paths_zero_rho,
    rate_zero_rho,
    solve_g_endpoint,
)
from .rate_general import (
    BoundsResult,
    lambda_functional,
    rate_bounds_rho,
    rate_by_method,
    rate_numeric,
    rate_perfect_corr,
    rate_upper_corr_path,
)
from .atm import AtmExpansion, atm_expansion, atm_price_limit, expansion_paths, rate_expansion
from .smile import (
    SmileCurve,
    SmilePoint,
    asymptotic_smile,
    black_price,
    implied_vol,
    linear_smile,
    linear_smile_coeffs,
)
from .mc import (
    McConfig,
    McEstimate,
    McSmile,
    discrete_rv_diagnostic,
    mc_price,
    mc_smile,
    simulate_realized_variance,
)

__version__ = "0.1.0"
