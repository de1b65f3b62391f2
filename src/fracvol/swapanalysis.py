"""Implied-vol analysis around the zero-vanna strike.

Builds per-(H, T) reports comparing three volatility summaries of the same
simulated model: the Monte Carlo volatility-swap strike, the implied vol at
the zero-vanna strike, and the at-the-money implied vol.  Also fits the
power-law decay rate of the strike-vs-swap gaps across maturities.

Every price comes with its pathwise log-strike slope, so each strike of
the smile also gives the smile's slope dI/dk there. The zero-vanna search
is a safeguarded Newton iteration on d2 that uses that slope
(ZERO_VANNA_SEARCH), and the ATM skew is the slope at x0 (ATM_SKEW): a
report prices about four strikes and no second strike for a difference.

The SE of an implied vol is se_price / vega. The SE of its slope is the
delta method's on the price, the price slope and their covariance
(implied_smile), so it counts the noise the vol itself carries into the
slope; at rho = 0, where the ATM skew is zero by symmetry, the two
cancel exactly at the money and the SE is rounding. The SE of a
difference is the quadrature sum of its terms' SEs, which ignores the
covariance of terms priced on shared paths: it can understate (by
1.1-1.25x for the gaps at rho = -0.8) as well as overstate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr

from .blackscholes import (
    IV_TOL,
    ZERO_VANNA_XTOL,
    d2,
    implied_vol,
    vega,
    zero_vanna_strike,
)
from .fbm import TimeGrid
from .mcpricer import (
    McConfig,
    StrikeEstimate,
    simulate_functionals,
    strike_pricer,
    vol_swap_strike,
)
from .volmodel import ModelParams, PathFunctionals

# A fitted log-gap point must clear the MC noise floor by this factor.
NOISE_FLOOR_MULTIPLE = 3.0
# Gaps at or below this carry no rate information: 10x the IV tolerance
# it was set for (1e-10), far above today's IV_TOL and ZERO_VANNA_XTOL.
SOLVER_FLOOR = 1e-9
# how zero_vanna_report finds k_hat and the ATM skew, as the manifest names them
ZERO_VANNA_SEARCH = "safeguarded Newton on d2 with pathwise dI/dk"
ATM_SKEW = "pathwise dI/dk at x0"


class SmilePoint(NamedTuple):
    """An implied vol and its log-strike slope dI/dk, each with its SE."""

    vol: float
    vol_se: float
    slope: float
    slope_se: float


Pricer = Callable[[float], StrikeEstimate]
Smile = Callable[[float], SmilePoint]


@dataclass(frozen=True)
class SwapReport:
    """Volatility summaries for one (hurst, maturity, rho) cell.

    ``err_zero_vanna`` and ``err_atmi`` are signed gaps against the
    volatility-swap strike; their SEs are quadrature SEs of the two legs,
    which ignore the legs' shared-path covariance. ``atm_skew_se`` is the
    delta-method SE of implied_smile; at rho = 0 it is rounding, like the
    skew (zero by symmetry). ``pricer_calls`` counts
    the strikes priced, ``zero_vanna_evals`` the search's curve
    evaluations and ``zero_vanna_bisected`` whether it fell back to
    bisection.
    """

    hurst: float
    maturity: float
    rho: float
    vol_swap: float
    vol_swap_se: float
    iv_zero_vanna: float
    iv_zero_vanna_se: float
    atmi: float
    atmi_se: float
    atm_skew: float
    atm_skew_se: float
    err_zero_vanna: float
    err_zero_vanna_se: float
    err_atmi: float
    err_atmi_se: float
    k_hat: float
    zero_vanna_residual: float
    pricer_calls: int
    zero_vanna_evals: int
    zero_vanna_bisected: bool
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("vol_swap", "iv_zero_vanna", "atmi"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("err_zero_vanna", "err_atmi", "atm_skew"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log|gap| against log maturity.

    ``inconclusive`` is set when fewer than three maturities clear the
    noise floor; the fit fields are NaN in that case rather than an
    exception, so callers can still report the cell.
    """

    slope: float
    intercept: float
    r_squared: float
    maturities: tuple[float, ...]
    inconclusive: bool = False

    def __post_init__(self) -> None:
        if self.inconclusive:
            return
        if len(self.maturities) < 3:
            raise ValueError("a conclusive fit needs at least 3 maturities")
        if not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError(f"r_squared out of range: {self.r_squared}")


def implied_smile(pricer: Pricer, x0: float, maturity: float) -> Smile:
    """Memoized log-strike -> SmilePoint on one pricer's paths.

    The priced call is C(k) = BS(x0, k, I(k)), so its slope
    dC/dk = -e^k N(d2) + vega I'(k) gives
    I'(k) = (dC/dk + e^k N(d2(x0, k, I))) / vega. The vol's SE is the
    price's over vega; the slope's is the delta method's: the vol's own
    noise dI = dC / vega moves N(d2) and vega, so dI' = (dC' - a dC) / vega
    with a = d1 / (I sqrt(T)) + I' d1 d2 / I, and Var I' = (Var C'
    - 2 a Cov(C, C') + a^2 Var C) / vega^2. Where vega is zero the slope
    is NaN and the SEs infinite. Each strike is priced and inverted at
    most once; an uninvertible price raises (NoSolutionError or
    ConvergenceError) and is not cached.
    """

    @functools.cache
    def smile(k: float) -> SmilePoint:
        estimate = pricer(k)
        vol = implied_vol(estimate.value, x0, k, maturity)
        sensitivity = vega(x0, k, vol, maturity)
        if not sensitivity > 0.0:
            return SmilePoint(vol, math.inf, math.nan, math.inf)
        d_2 = d2(x0, k, vol, maturity)
        slope = (estimate.slope + math.exp(k) * float(ndtr(d_2))) / sensitivity
        total_vol = vol * math.sqrt(maturity)
        d_1 = d_2 + total_vol
        a = d_1 / total_vol + slope * d_1 * d_2 / vol
        var_c, var_dc = estimate.std_error**2, estimate.slope_se**2
        slope_var = var_dc - 2.0 * a * estimate.cov + a * a * var_c
        return SmilePoint(
            vol=vol,
            vol_se=estimate.std_error / sensitivity,
            slope=slope,
            slope_se=math.sqrt(max(slope_var, 0.0)) / sensitivity,
        )

    return smile


def atm_skew(smile: Smile, x0: float) -> tuple[float, float]:
    """ATM skew dI/dk and its SE, read off the smile's entry at x0: the
    exact slope of the smile on its paths, from the pathwise price slope."""
    point = smile(x0)
    return point.slope, point.slope_se


def zero_vanna_report(
    pricer: Pricer,
    funcs: PathFunctionals,
    params: ModelParams,
    x0: float,
    maturity: float,
    config: McConfig,
) -> SwapReport:
    """Assemble the full per-cell report for one simulated maturity.

    ``pricer`` and ``funcs`` must come from the same simulation so the
    swap strike and the implied vols share paths.  The zero-vanna strike
    is located on the curve implied by ``pricer`` and its residual
    |d2(k_hat, I(k_hat))| is recorded (and must be below 1e-8).  Every
    vol comes from one implied_smile, so each strike is priced at most
    once: the search evaluates both the ATM strike and k_hat, and the
    report and the skew reuse those entries.
    """
    swap = vol_swap_strike(funcs, maturity)
    smile = implied_smile(pricer, x0, maturity)

    def curve(k: float) -> tuple[float, float]:
        point = smile(k)
        return point.vol, point.slope

    search = zero_vanna_strike(curve, x0, maturity)
    k_hat = search.strike
    zv, atm = smile(k_hat), smile(x0)
    iv_zv, iv_zv_se, atm_vol, atm_se = zv.vol, zv.vol_se, atm.vol, atm.vol_se
    residual = abs(d2(x0, k_hat, iv_zv, maturity))
    skew, skew_se = atm_skew(smile, x0)

    return SwapReport(
        hurst=params.hurst,
        maturity=maturity,
        rho=params.rho,
        vol_swap=swap.value,
        vol_swap_se=swap.std_error,
        iv_zero_vanna=iv_zv,
        iv_zero_vanna_se=iv_zv_se,
        atmi=atm_vol,
        atmi_se=atm_se,
        atm_skew=skew,
        atm_skew_se=skew_se,
        err_zero_vanna=iv_zv - swap.value,
        err_zero_vanna_se=math.hypot(iv_zv_se, swap.std_error),
        err_atmi=atm_vol - swap.value,
        err_atmi_se=math.hypot(atm_se, swap.std_error),
        k_hat=k_hat,
        zero_vanna_residual=residual,
        pricer_calls=smile.cache_info().currsize,
        zero_vanna_evals=search.evals,
        zero_vanna_bisected=search.bisected,
        n_paths=config.n_paths,
        seed=config.seed,
    )


def analysis_record(reports: Iterable[SwapReport]) -> dict[str, object]:
    """How zero_vanna_report solved its cells, for the manifest: the
    zero-vanna search, the ATM skew, the solver tolerances, and summed
    over the given reports the strikes priced and the searches that fell
    back to bisection."""
    reports = list(reports)
    return {
        "zero_vanna_search": ZERO_VANNA_SEARCH,
        "atm_skew": ATM_SKEW,
        "iv_tol": IV_TOL,
        "zero_vanna_xtol": ZERO_VANNA_XTOL,
        "pricer_calls": sum(r.pricer_calls for r in reports),
        "bisection_fallbacks": sum(r.zero_vanna_bisected for r in reports),
    }


def simulate_report(
    params: ModelParams,
    x0: float,
    maturity: float,
    n_steps: int,
    config: McConfig,
) -> SwapReport:
    """Simulate one cell end to end and report it.

    Convenience wrapper: runs the path simulation once, then prices and
    inverts on the shared functionals.
    """
    grid = TimeGrid(maturity, n_steps)
    (funcs,) = simulate_functionals(grid, params, config)
    pricer = strike_pricer(funcs, params, x0, maturity, estimator=config.estimator)
    return zero_vanna_report(pricer, funcs, params, x0, maturity, config)


def _fit_rate(
    maturities: np.ndarray, gaps: np.ndarray, gap_ses: np.ndarray
) -> RateFit:
    """Fit log|gap| ~ slope * log T + intercept above the noise floor."""
    usable = np.abs(gaps) > np.maximum(
        NOISE_FLOOR_MULTIPLE * gap_ses, SOLVER_FLOOR
    )
    if int(usable.sum()) < 3:
        return RateFit(
            slope=math.nan,
            intercept=math.nan,
            r_squared=math.nan,
            maturities=tuple(float(t) for t in maturities[usable]),
            inconclusive=True,
        )
    log_t = np.log(maturities[usable])
    log_gap = np.log(np.abs(gaps[usable]))
    slope, intercept = np.polyfit(log_t, log_gap, 1)
    fitted = slope * log_t + intercept
    ss_res = float(np.sum((log_gap - fitted) ** 2))
    ss_tot = float(np.sum((log_gap - log_gap.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(r_squared, 1.0)),
        maturities=tuple(float(t) for t in maturities[usable]),
    )


def check_fit_maturities(maturities: Sequence[float]) -> None:
    """Raise ValueError unless the maturities can carry a rate fit: at
    least three, positive, distinct, spanning a factor of 2."""
    if len(maturities) < 3:
        raise ValueError("need at least 3 maturities to fit a rate")
    if min(maturities) <= 0.0 or len(set(maturities)) != len(maturities):
        raise ValueError("maturities must be positive and distinct")
    if max(maturities) / min(maturities) < 2.0:
        raise ValueError("maturities must span at least a factor of 2")


def convergence_study(
    params: ModelParams, reports: Sequence[SwapReport]
) -> dict[str, RateFit]:
    """Fit the maturity decay rate of both strike-vs-swap gaps.

    ``reports`` are already-priced cells of one (hurst, rho) pair, which
    must match ``params``; their maturities, which must pass
    check_fit_maturities, are the fit's abscissae.  A maturity enters a
    fit only if its |gap| clears max(3 SE, solver tolerance); fewer than
    three surviving points flags the fit inconclusive.
    """
    for rep in reports:
        if (rep.hurst, rep.rho) != (params.hurst, params.rho):
            raise ValueError(
                f"report (hurst={rep.hurst}, rho={rep.rho}) does not match "
                f"params (hurst={params.hurst}, rho={params.rho})"
            )
    reports = sorted(reports, key=lambda r: r.maturity)
    mats = np.asarray([r.maturity for r in reports], dtype=np.float64)
    check_fit_maturities(mats)

    fits: dict[str, RateFit] = {}
    for field in ("err_zero_vanna", "err_atmi"):
        gaps = np.asarray([getattr(r, field) for r in reports])
        ses = np.asarray([getattr(r, field + "_se") for r in reports])
        fits[field] = _fit_rate(mats, gaps, ses)
    return fits


__all__ = [
    "SwapReport",
    "RateFit",
    "SmilePoint",
    "implied_smile",
    "atm_skew",
    "zero_vanna_report",
    "analysis_record",
    "simulate_report",
    "check_fit_maturities",
    "convergence_study",
    "NOISE_FLOOR_MULTIPLE",
    "SOLVER_FLOOR",
    "ZERO_VANNA_SEARCH",
    "ATM_SKEW",
]
