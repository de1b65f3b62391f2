"""Implied-vol analysis around the zero-vanna strike.

Builds per-(H, T) reports comparing three volatility summaries of the same
simulated model: the Monte Carlo volatility-swap strike, the implied vol at
the zero-vanna strike, and the at-the-money implied vol.  Also fits the
power-law decay rate of the strike-vs-swap gaps across maturities.

Every price comes with its pathwise log-strike slope, so each strike of
the smile also gives the smile's slope dI/dk there. The zero-vanna search
steps on a model of the smile built from those vols and slopes
(ZERO_VANNA_SEARCH), and the ATM skew is the slope at x0 (ATM_SKEW): a
report prices about three strikes and no second strike for a difference.

Every SE is the delta method's on the one regression per (simulation,
rho) that gives the prices and the swap leg (mcpricer.strike_pricer): an
implied vol's is se_price / vega; its slope's counts the noise the vol
carries into the slope, so at rho = 0 it is rounding at the money; and a
gap's pairs the vol with the swap leg of the same paths (GAP_SE).
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
    ImpliedVol,
    d2,
    implied_vol,
    vega,
    zero_vanna_strike,
)
from .mcpricer import McConfig, PriceEstimate, StrikeEstimate
from .volmodel import ModelParams, PathFunctionals

# A fitted log-gap point must clear the MC noise floor by this factor.
NOISE_FLOOR_MULTIPLE = 3.0
# Gaps at or below this carry no rate information: 10x the IV tolerance
# it was set for (1e-10), far above today's IV_TOL and ZERO_VANNA_XTOL.
SOLVER_FLOOR = 1e-9
# how zero_vanna_report finds k_hat and the ATM skew, as the manifest names them
ZERO_VANNA_SEARCH = (
    "safeguarded root search on d2: each step goes to the root of "
    "x - k - I(k)^2 tau / 2 on the ATM tangent line, then on the cubic Hermite "
    "interpolant of the last two priced (I, dI/dk), with pathwise dI/dk"
)
ATM_SKEW = "pathwise dI/dk at x0"
# how the SE of a gap I(k) - S is formed: sqrt(Var C / vega^2
# - 2 Cov(C, S) / vega + Var S), C the call price and S the swap leg
GAP_SE = "paired: delta method on one regression per (simulation, rho)"


class SmilePoint(NamedTuple):
    """An implied vol and its log-strike slope dI/dk, each with its SE, the
    swap leg of the same paths and the paired SE of the vol less it."""

    vol: float
    vol_se: float
    slope: float
    slope_se: float
    swap: PriceEstimate
    gap_se: float


Pricer = Callable[[float], StrikeEstimate]
Smile = Callable[[float], SmilePoint]


@dataclass(frozen=True)
class SwapReport:
    """Volatility summaries for one (hurst, maturity, rho) cell.

    ``vol_swap`` is the swap leg of the cell's regression, so it can
    differ between rho cells of one simulation; ``err_zero_vanna`` and
    ``err_atmi`` are signed gaps against it, with paired SEs (GAP_SE).
    ``pricer_calls`` counts the strikes priced, ``zero_vanna_evals`` the
    search's curve evaluations and ``zero_vanna_bisected`` whether it fell
    back to bisection; ``iv_evals`` counts the call prices that inverting
    every priced strike took, and ``iv_bisections`` the inversions that
    fell back to bisection.
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
    iv_evals: int
    iv_bisections: int
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

    ``maturities`` are the points fitted. ``inconclusive`` is set when they
    fail check_fit_maturities; the fit fields are NaN in that case rather
    than an exception, so callers can still report the cell.
    """

    slope: float
    intercept: float
    r_squared: float
    maturities: tuple[float, ...]
    inconclusive: bool = False

    def __post_init__(self) -> None:
        if self.inconclusive:
            return
        check_fit_maturities(self.maturities)
        if not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError(f"r_squared out of range: {self.r_squared}")


def implied_smile(
    pricer: Pricer,
    x0: float,
    maturity: float,
    inversions: list[ImpliedVol] | None = None,
) -> Smile:
    """Memoized log-strike -> SmilePoint on one pricer's paths.

    The priced call is C(k) = BS(x0, k, I(k)), so its slope
    dC/dk = -e^k N(d2) + vega I'(k) gives
    I'(k) = (dC/dk + e^k N(d2(x0, k, I))) / vega. The vol's SE is the
    price's over vega; the slope's is the delta method's: the vol's own
    noise dI = dC / vega moves N(d2) and vega, so dI' = (dC' - a dC) / vega
    with a = d1 / (I sqrt(T)) + I' d1 d2 / I, and Var I' = (Var C'
    - 2 a Cov(C, C') + a^2 Var C) / vega^2. The estimate's swap leg S
    rides along; I - S has the paired SE of GAP_SE. Where vega is zero the
    slope is NaN and the SEs infinite. Each strike is priced and inverted
    at most once; an uninvertible price raises (NoSolutionError or
    ConvergenceError) and is not cached. Each inversion's ImpliedVol is
    appended to inversions, if given.
    """

    @functools.cache
    def smile(k: float) -> SmilePoint:
        estimate = pricer(k)
        inversion = implied_vol(estimate.value, x0, k, maturity)
        if inversions is not None:
            inversions.append(inversion)
        vol = inversion.vol
        sensitivity = vega(x0, k, vol, maturity)
        swap = estimate.swap
        if not sensitivity > 0.0:
            return SmilePoint(vol, math.inf, math.nan, math.inf, swap, math.inf)
        d_2 = d2(x0, k, vol, maturity)
        slope = (estimate.slope + math.exp(k) * float(ndtr(d_2))) / sensitivity
        total_vol = vol * math.sqrt(maturity)
        d_1 = d_2 + total_vol
        a = d_1 / total_vol + slope * d_1 * d_2 / vol
        var_c, var_dc = estimate.std_error**2, estimate.slope_se**2
        slope_var = var_dc - 2.0 * a * estimate.cov + a * a * var_c
        vol_se = estimate.std_error / sensitivity
        gap_var = vol_se**2 - 2.0 * estimate.swap_cov / sensitivity + swap.std_error**2
        slope_se = math.sqrt(max(slope_var, 0.0)) / sensitivity
        return SmilePoint(
            vol, vol_se, slope, slope_se, swap, math.sqrt(max(gap_var, 0.0))
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

    The zero-vanna strike is located on the curve implied by ``pricer``
    and its residual |d2(k_hat, I(k_hat))| is recorded, not enforced:
    acceptance criterion 7 and the benchmark's correctness gate hold it
    below 1e-8. Every vol comes from one implied_smile, so each strike is
    priced at most once: the search evaluates both the ATM strike and
    k_hat, the report and the skew reuse those entries, and the swap leg
    is read off the ATM one. ``funcs``, the functionals ``pricer`` was
    bound on, is not read; it stays in the signature callers pass by
    position.
    """
    inversions: list[ImpliedVol] = []
    smile = implied_smile(pricer, x0, maturity, inversions)

    def curve(k: float) -> tuple[float, float]:
        point = smile(k)
        return point.vol, point.slope

    search = zero_vanna_strike(curve, x0, maturity)
    k_hat = search.strike
    zv, atm = smile(k_hat), smile(x0)
    swap = atm.swap
    skew, skew_se = atm_skew(smile, x0)

    return SwapReport(
        hurst=params.hurst,
        maturity=maturity,
        rho=params.rho,
        vol_swap=swap.value,
        vol_swap_se=swap.std_error,
        iv_zero_vanna=zv.vol,
        iv_zero_vanna_se=zv.vol_se,
        atmi=atm.vol,
        atmi_se=atm.vol_se,
        atm_skew=skew,
        atm_skew_se=skew_se,
        err_zero_vanna=zv.vol - swap.value,
        err_zero_vanna_se=zv.gap_se,
        err_atmi=atm.vol - swap.value,
        err_atmi_se=atm.gap_se,
        k_hat=k_hat,
        zero_vanna_residual=abs(d2(x0, k_hat, zv.vol, maturity)),
        pricer_calls=smile.cache_info().currsize,
        zero_vanna_evals=search.evals,
        zero_vanna_bisected=search.bisected,
        iv_evals=sum(i.evals for i in inversions),
        iv_bisections=sum(i.bisected for i in inversions),
        n_paths=config.n_paths,
        seed=config.seed,
    )


def analysis_record(reports: Iterable[SwapReport]) -> dict[str, object]:
    """How zero_vanna_report solved its cells, for the manifest: the
    zero-vanna search, the ATM skew, how a gap's SE is formed, the solver
    tolerances, and summed over the given reports the strikes priced, the
    search's curve evaluations and bisection fallbacks, and the implied-vol
    inversions' call prices and bisection fallbacks."""
    reports = list(reports)
    return {
        "zero_vanna_search": ZERO_VANNA_SEARCH,
        "atm_skew": ATM_SKEW,
        "gap_se": GAP_SE,
        "iv_tol": IV_TOL,
        "zero_vanna_xtol": ZERO_VANNA_XTOL,
        "pricer_calls": sum(r.pricer_calls for r in reports),
        "zero_vanna_evals": sum(r.zero_vanna_evals for r in reports),
        "bisection_fallbacks": sum(r.zero_vanna_bisected for r in reports),
        "iv_evals": sum(r.iv_evals for r in reports),
        "iv_bisection_fallbacks": sum(r.iv_bisections for r in reports),
    }


def _fit_rate(
    maturities: np.ndarray, gaps: np.ndarray, gap_ses: np.ndarray
) -> RateFit:
    """Fit log|gap| ~ slope * log T + intercept above the noise floor,
    or flag the fit inconclusive if the points above it fail
    check_fit_maturities."""
    usable = np.abs(gaps) > np.maximum(
        NOISE_FLOOR_MULTIPLE * gap_ses, SOLVER_FLOOR
    )
    used = tuple(float(t) for t in maturities[usable])
    try:
        check_fit_maturities(used)
    except ValueError:
        return RateFit(math.nan, math.nan, math.nan, used, inconclusive=True)
    log_t = np.log(used)
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
        maturities=used,
    )


def check_fit_maturities(maturities: Sequence[float]) -> None:
    """Raise ValueError unless the maturities can carry a rate fit: at
    least three, finite, positive, distinct, spanning a factor of 2. The one
    statement of the rule: a conclusive RateFit, the points convergence_study
    fits and a convergence-mode config are all held to it."""
    if len(maturities) < 3:
        raise ValueError("need at least 3 maturities to fit a rate")
    # each checked on its own: min() of a NaN-led list is the NaN
    finite = all(0.0 < t < math.inf for t in maturities)
    if not finite or len(set(maturities)) != len(maturities):
        raise ValueError("maturities must be finite, positive and distinct")
    if max(maturities) / min(maturities) < 2.0:
        raise ValueError("maturities must span at least a factor of 2")


def convergence_study(
    params: ModelParams, reports: Sequence[SwapReport]
) -> dict[str, RateFit]:
    """Fit the maturity decay rate of both strike-vs-swap gaps.

    ``reports`` are already-priced cells of one (hurst, rho) pair, which
    must match ``params``, one per maturity; their maturities are the
    fit's abscissae.  A maturity enters a fit only if its |gap| clears
    max(3 SE, solver tolerance); a fit whose surviving points fail
    check_fit_maturities, however many reports there were, is
    inconclusive.
    """
    for rep in reports:
        if (rep.hurst, rep.rho) != (params.hurst, params.rho):
            raise ValueError(
                f"report (hurst={rep.hurst}, rho={rep.rho}) does not match "
                f"params (hurst={params.hurst}, rho={params.rho})"
            )
    reports = sorted(reports, key=lambda r: r.maturity)
    mats = np.asarray([r.maturity for r in reports], dtype=np.float64)
    if np.any(mats[1:] == mats[:-1]):
        raise ValueError("reports must be distinct cells: a maturity repeats")

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
    "check_fit_maturities",
    "convergence_study",
    "NOISE_FLOOR_MULTIPLE",
    "SOLVER_FLOOR",
    "ZERO_VANNA_SEARCH",
    "ATM_SKEW",
    "GAP_SE",
]
