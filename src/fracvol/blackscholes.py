"""Black-Scholes analytics in log coordinates.

All functions work on the log-spot ``x`` and log-strike ``k`` (strike is
``exp(k)``, spot is ``exp(x)``), with zero interest rate. ``bs_price``
broadcasts like numpy arrays (scalar inputs give a scalar output); ``d2``,
``vega`` and the two solvers take scalars. Every function is a pure
function of its arguments and is safe to call concurrently.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

__all__ = [
    "NoSolutionError",
    "ConvergenceError",
    "bs_price",
    "d2",
    "vega",
    "implied_vol",
    "zero_vanna_strike",
    "ZeroVannaSearch",
]

# Volatility bracket of the implied-vol inversion, and the bracket width
# at which it stops. An inversion error e enters the smile's slope at the
# money as about e/2 (see swapanalysis.implied_smile).
IV_BRACKET = (1e-6, 5.0)
IV_TOL = 1e-14
# Newton step or log-strike bracket width at which the zero-vanna search
# stops.
ZERO_VANNA_XTOL = 1e-12
# Iteration budget of every root find.
ROOT_MAX_ITER = 100


class NoSolutionError(ValueError):
    """Target price admits no implied volatility (outside arbitrage bounds)."""


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations.

    Attributes
    ----------
    best : float
        Best iterate found before giving up.
    residual : float
        Residual at the best iterate.
    """

    def __init__(self, message: str, best: float, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


def _check_finite(**vals) -> None:
    for name, v in vals.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")


def bs_price(x, k, sigma, tau):
    """European call price: ``exp(x) N(d1) - exp(k) N(d2)``.

    Handles the degenerate edge ``sigma * sqrt(tau) == 0`` by returning the
    intrinsic value ``max(exp(x) - exp(k), 0)``, which is the continuous
    limit. Always lies in ``[(e^x - e^k)+, e^x)``.
    """
    scalar = all(np.isscalar(v) for v in (x, k, sigma, tau))
    x, k, sigma, tau = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, k, sigma, tau))
    )
    _check_finite(x=x, k=k, sigma=sigma, tau=tau)
    if np.any(sigma < 0.0) or np.any(tau < 0.0):
        raise ValueError("sigma and tau must be nonnegative")
    srt = sigma * np.sqrt(tau)
    live = srt > 0.0
    price = _call(x, np.exp(x), k, np.where(live, srt, 1.0), live)
    return float(price) if scalar else price


def _call(x, ex, k, srt_safe, live, with_slope=False):
    """Call price on checked inputs, the one copy of the formula.

    ex is ``exp(x)``; live marks the total vols ``sigma sqrt(tau)`` that are
    positive, and srt_safe holds them there and 1 elsewhere, where the
    price is the intrinsic value. Everything that does not depend on k
    comes in precomputed, so a caller pricing many strikes on the same
    arrays checks and prepares them once.

    with_slope returns the price and its log-strike slope
    ``dC/dk = -exp(k) N(d2)``, from the same N(d2); where the price is
    intrinsic the slope is ``-exp(k) 1{ex > exp(k)}``.
    """
    ek = np.exp(k)
    d_1 = (x - k) / srt_safe + 0.5 * srt_safe
    n_2 = ndtr(d_1 - srt_safe)
    price = np.where(live, ex * ndtr(d_1) - ek * n_2, np.maximum(ex - ek, 0.0))
    if not with_slope:
        return price
    return price, -ek * np.where(live, n_2, ex > ek)


def _total_vol(x: float, k: float, sigma: float, tau: float) -> float:
    _check_finite(x=x, k=k, sigma=sigma, tau=tau)
    srt = sigma * math.sqrt(max(tau, 0.0))
    if not srt > 0.0:
        raise ValueError("sigma * sqrt(tau) must be positive")
    return srt


def d2(x: float, k: float, sigma: float, tau: float) -> float:
    """``d1 - sigma sqrt(tau)``. Vanishes exactly at ``k = x - sigma^2 tau / 2``."""
    srt = _total_vol(x, k, sigma, tau)
    return (x - k) / srt - 0.5 * srt


def vega(x: float, k: float, sigma: float, tau: float) -> float:
    """Price sensitivity to volatility: ``exp(x) N'(d1) sqrt(tau)``. Strictly positive."""
    srt = _total_vol(x, k, sigma, tau)
    d_1 = (x - k) / srt + 0.5 * srt
    pdf = math.exp(-0.5 * d_1 * d_1) / math.sqrt(2.0 * math.pi)
    return math.exp(x) * pdf * math.sqrt(tau)


def implied_vol(target_price: float, x: float, k: float, tau: float) -> float:
    """Invert the call price for volatility by a Brent root find to IV_TOL.

    Raises NoSolutionError if ``target_price`` lies outside the arbitrage
    bounds ``((e^x - e^k)+, e^x)`` or no vol in IV_BRACKET matches it.
    """
    _check_finite(target_price=target_price, x=x, k=k, tau=tau)
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    lower = max(math.exp(x) - math.exp(k), 0.0)
    upper = math.exp(x)
    if not lower < target_price < upper:
        raise NoSolutionError(
            f"target price {target_price} outside arbitrage bounds ({lower}, {upper})"
        )
    lo, hi = IV_BRACKET
    args = (target_price, x, np.exp(x), k, np.sqrt(tau))
    # brentq prices both ends itself and raises ValueError when they share
    # a sign; only on that failure path are they priced again, to tell a
    # missing root from any other ValueError
    try:
        root, info = brentq(
            _price_gap,
            lo,
            hi,
            args,
            IV_TOL,
            maxiter=ROOT_MAX_ITER,
            full_output=True,
            disp=False,
        )
    except ValueError:
        if np.sign(_price_gap(lo, *args)) == np.sign(_price_gap(hi, *args)):
            raise NoSolutionError(
                f"no volatility in bracket [{lo}, {hi}] matches price {target_price}"
            ) from None
        raise
    if not info.converged:
        raise ConvergenceError(
            f"implied vol: {info.flag}", best=root, residual=_price_gap(root, *args)
        )
    return root


def _price_gap(
    sigma: float, target: float, x: float, ex: float, k: float, sqrt_tau: float
) -> float:
    """Price at sigma less the target, straight through _call: implied_vol
    has checked the inputs, and exp(x) and sqrt(tau) come precomputed."""
    srt = sigma * sqrt_tau
    live = srt > 0.0
    return float(_call(x, ex, k, srt if live else 1.0, live)) - target


class ZeroVannaSearch(NamedTuple):
    """A zero-vanna strike and what finding it took: the curve evaluations
    and whether any Newton step left the bracket, so that it bisected."""

    strike: float
    evals: int
    bisected: bool


def zero_vanna_strike(
    iv_curve: Callable[[float], tuple[float, float]], x: float, tau: float
) -> ZeroVannaSearch:
    """Log-strike where the smile's d2 vanishes: ``d2(x, k, I(k), tau) = 0``.

    iv_curve maps k to the smile and its slope, ``(I(k), I'(k))``. A
    safeguarded Newton search finds the root of ``r(k) = d2(x, k, I(k),
    tau)``, with ``r'(k) = -1 / (I sqrt(tau)) - I'(k) d1 / I``, on the
    bracket ``[x - 2 I(x)^2 tau, x]``. At the right end
    ``r(x) = -I(x) sqrt(tau) / 2`` is always negative; at the left end r is
    positive for any smile close to its ATM level (for a flat smile it is
    ``3 I sqrt(tau) / 2``). Newton starts at ``x - I(x)^2 tau / 2``, the
    root of a flat smile, and each evaluation narrows the bracket by the
    sign of r. A Newton step that would leave the bracket (or a
    non-finite or zero r') is replaced by bisection; the first time, the
    left end is evaluated once to confirm the sign change.

    The search stops once the Newton step or the bracket is narrower than
    ZERO_VANNA_XTOL, never on the residual: an implied-vol curve inverted
    to IV_TOL is rough at that scale in k, so a residual rule can sit
    below its resolution and never be met. The returned strike is one the
    curve was evaluated at.

    Raises NoSolutionError when r has no sign change on the bracket (the
    smile has no zero-vanna strike near the money), ConvergenceError after
    ROOT_MAX_ITER evaluations past the ATM one, and ValueError if the curve
    returns a non-positive or non-finite vol.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    sqrt_tau = math.sqrt(tau)
    sig_x = _curve_d2(iv_curve, x, x, sqrt_tau)[0]
    evals, bisected, lo_checked = 1, False, False
    lo, hi = x - 2.0 * sig_x * sig_x * tau, x
    k = x - 0.5 * sig_x * sig_x * tau
    best = (math.inf, k)
    for _ in range(ROOT_MAX_ITER):
        _, r, dr = _curve_d2(iv_curve, x, k, sqrt_tau)
        evals += 1
        best = min(best, (abs(r), k))
        if r > 0.0:
            lo, lo_checked = k, True
        else:
            hi = k
        # NaN fails every comparison below, so it takes the bisection path
        step = -r / dr if math.isfinite(dr) and dr != 0.0 else math.nan
        if r == 0.0 or abs(step) < ZERO_VANNA_XTOL or hi - lo < ZERO_VANNA_XTOL:
            return ZeroVannaSearch(k, evals, bisected)
        if lo < k + step < hi:
            k += step
            continue
        if not lo_checked:
            evals += 1
            if not _curve_d2(iv_curve, x, lo, sqrt_tau)[1] > 0.0:
                raise NoSolutionError(
                    f"zero-vanna strike: d2 does not change sign on [{lo}, {x}]; "
                    "the smile has no zero-vanna strike"
                )
            lo_checked = True
        k, bisected = 0.5 * (lo + hi), True
    raise ConvergenceError(
        f"zero-vanna strike: no convergence in {ROOT_MAX_ITER} iterations",
        best=best[1],
        residual=best[0],
    )


def _curve_d2(
    iv_curve: Callable[[float], tuple[float, float]],
    x: float,
    k: float,
    sqrt_tau: float,
) -> tuple[float, float, float]:
    """``(I(k), r(k), r'(k))`` for ``r(k) = d2(x, k, I(k), tau)``."""
    vol, vol_slope = iv_curve(k)
    if not (math.isfinite(vol) and vol > 0.0):
        raise ValueError(f"iv_curve returned vol {vol} at k={k}")
    srt = vol * sqrt_tau
    d_1 = (x - k) / srt + 0.5 * srt
    return vol, d_1 - srt, -1.0 / srt - vol_slope * d_1 / vol
