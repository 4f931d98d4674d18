"""ammvol: AMM pools as pricing curves, LVR fee streams, implied volatility.

The library models an automated market maker by its portfolio-update
functions x(q), y(q), derives the risk-neutral implied fee rate (the LVR
rate), replays tick data under stale-price arbitrage, inverts fee-swap
quotes into implied volatility and correlation, and clears the swap market
with a uniform-price batch auction.
"""

from .curves import (
    AmmCurve,
    ConcentratedCpmm,
    Cpmm,
    Holdings,
    StableSwap,
    curvature,
    curve_from_dict,
    dollar_pool_value,
    equivalent_cpmm_liquidity,
)
from .errors import (
    AmmVolError,
    ArbitrageViolation,
    DegenerateCurve,
    DegenerateInput,
    DomainError,
    EmptyInput,
    InsufficientData,
    InvalidParams,
    NoConvergence,
    OutOfBounds,
    ParseError,
    RangeError,
    UnsortedInput,
)
from .fees import (
    GbmParams,
    YEAR_SECONDS,
    concentrated_lvr_with_rate,
    cpmm_unit_lvr_with_rate,
    effective_variance,
    implied_fee_rate_dollars,
    instantaneous_lvr,
    mc_fee_plus_terminal_value,
    realized_lvr_increment,
)
from .simulation import (
    Fill,
    FillSide,
    FillTable,
    PoolEventSeries,
    PoolSimState,
    QuoteTick,
    SimConfig,
    SimLedger,
    TickSeries,
    WindowStat,
    arbitrage_step,
    historical_volatility,
    linear_fit,
    replay_pool_events,
    rolling_windows,
    run_simulation,
    synthetic_gbm_ticks,
)
from .solvers import (
    CorrSolution,
    IvSolution,
    McConfig,
    SwapSpec,
    attach_fee_vols,
    fee_vol_from_realized,
    floating_leg_value,
    implied_corr,
    implied_corr_bounds,
    implied_vol,
    implied_vol_cpmm_closed_form,
    lognormal_kernel_expectation,
    mc_expected_pool_value,
    mc_floating_leg,
)
from .auction import (
    ClearingResult,
    OrderSide,
    QuoteVerdict,
    SwapOrder,
    clear_batch,
    validate_quote,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
