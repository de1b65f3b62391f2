"""Black-Scholes analytics in log coordinates.

All functions work on the log-spot ``x`` and log-strike ``k`` (strike is
``exp(k)``, spot is ``exp(x)``), with zero interest rate. Inputs broadcast
like numpy arrays; scalar inputs give scalar outputs. Every function is a
pure function of its arguments and is safe to call concurrently.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

__all__ = [
    "NoSolutionError",
    "ConvergenceError",
    "bs_price",
    "d1",
    "d2",
    "vega",
    "implied_vol",
    "zero_vanna_strike",
]

DEFAULT_IV_BRACKET = (1e-6, 5.0)
DEFAULT_IV_TOL = 1e-10
DEFAULT_IV_MAX_ITER = 200
# Width of the log-strike bracket at which the zero-vanna search stops.
ZERO_VANNA_XTOL = 1e-12


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


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _check_finite(**vals) -> None:
    for name, v in vals.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")


def _as_scalar_or_array(out, scalar: bool):
    return float(out) if scalar else out


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
    srt_safe = np.where(live, srt, 1.0)
    d_1 = (x - k) / srt_safe + 0.5 * srt_safe
    d_2 = d_1 - srt_safe
    ex, ek = np.exp(x), np.exp(k)
    price = np.where(live, ex * ndtr(d_1) - ek * ndtr(d_2), np.maximum(ex - ek, 0.0))
    return _as_scalar_or_array(price, scalar)


def _moneyness_terms(x, k, sigma, tau):
    scalar = all(np.isscalar(v) for v in (x, k, sigma, tau))
    x, k, sigma, tau = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, k, sigma, tau))
    )
    _check_finite(x=x, k=k, sigma=sigma, tau=tau)
    srt = sigma * np.sqrt(tau)
    if np.any(srt <= 0.0):
        raise ValueError("sigma * sqrt(tau) must be positive")
    return x, k, srt, scalar


def d1(x, k, sigma, tau):
    """``(x - k) / (sigma sqrt(tau)) + sigma sqrt(tau) / 2``. Needs sigma, tau > 0."""
    x, k, srt, scalar = _moneyness_terms(x, k, sigma, tau)
    return _as_scalar_or_array((x - k) / srt + 0.5 * srt, scalar)


def d2(x, k, sigma, tau):
    """``d1 - sigma sqrt(tau)``. Vanishes exactly at ``k = x - sigma^2 tau / 2``."""
    x, k, srt, scalar = _moneyness_terms(x, k, sigma, tau)
    return _as_scalar_or_array((x - k) / srt - 0.5 * srt, scalar)


def vega(x, k, sigma, tau):
    """Price sensitivity to volatility: ``exp(x) N'(d1) sqrt(tau)``. Strictly positive."""
    x, k, srt, scalar = _moneyness_terms(x, k, sigma, tau)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), x.shape)
    d_1 = (x - k) / srt + 0.5 * srt
    return _as_scalar_or_array(np.exp(x) * _norm_pdf(d_1) * np.sqrt(tau), scalar)


def implied_vol(
    target_price: float,
    x: float,
    k: float,
    tau: float,
    bracket: tuple[float, float] = DEFAULT_IV_BRACKET,
    tol: float = DEFAULT_IV_TOL,
    max_iter: int = DEFAULT_IV_MAX_ITER,
) -> float:
    """Invert the call price for volatility by bisection.

    Parameters
    ----------
    target_price : float
        Call price to invert. Must lie strictly inside the arbitrage bounds
        ``((e^x - e^k)+, e^x)``.
    bracket : (float, float)
        Volatility bracket; the root must produce a sign change over it.
    tol : float
        Absolute tolerance on the returned volatility.
    max_iter : int
        Bisection budget; exceeding it raises ConvergenceError carrying the
        best iterate.

    Deterministic: same inputs always give the same output.
    """
    _check_finite(target_price=target_price, x=x, k=k, tau=tau)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket_lo must be below bracket_hi")
    lower = max(math.exp(x) - math.exp(k), 0.0)
    upper = math.exp(x)
    if not lower < target_price < upper:
        raise NoSolutionError(
            f"target price {target_price} outside arbitrage bounds ({lower}, {upper})"
        )
    f_lo = bs_price(x, k, lo, tau) - target_price
    f_hi = bs_price(x, k, hi, tau) - target_price
    if f_lo > 0.0 or f_hi < 0.0:
        raise NoSolutionError(
            f"no volatility in bracket [{lo}, {hi}] matches price {target_price}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if 0.5 * (hi - lo) < tol:
            return mid
        if bs_price(x, k, mid, tau) - target_price <= 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection did not reach tol={tol} in {max_iter} iterations",
        best=mid,
        residual=bs_price(x, k, mid, tau) - target_price,
    )


def zero_vanna_strike(iv_curve: Callable[[float], float], x: float, tau: float) -> float:
    """Log-strike where the smile's d2 vanishes: ``d2(x, k, I(k), tau) = 0``.

    Brent's method finds the root of ``r(k) = d2(x, k, I(k), tau)`` on the
    bracket ``[x - 2 I(x)^2 tau, x]``. At the right end
    ``r(x) = -I(x) sqrt(tau) / 2`` is always negative; at the left end r is
    positive for any smile close to its ATM level (for a flat smile it is
    ``3 I sqrt(tau) / 2``). The search stops once the k bracket is narrower
    than ZERO_VANNA_XTOL, never on the residual: an implied-vol curve
    inverted by bisection is a step function of k, so a residual rule can
    sit below its resolution and never be met. The returned strike is one
    the curve was evaluated at.

    Raises NoSolutionError when r has no sign change on the bracket (the
    smile has no zero-vanna strike near the money), ConvergenceError if
    Brent's method runs out of iterations, and ValueError if the curve
    returns a non-positive or non-finite vol.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    sig_x = iv_curve(x)
    if not (math.isfinite(sig_x) and sig_x > 0.0):
        raise ValueError(f"iv_curve returned vol {sig_x} at k={x}")
    lo = x - 2.0 * sig_x * sig_x * tau
    if _curve_d2(lo, iv_curve, x, tau) < 0.0:
        raise NoSolutionError(
            f"zero-vanna strike: d2 does not change sign on [{lo}, {x}]; "
            "the smile has no zero-vanna strike"
        )
    # the curve goes in through args, not a closure: brentq wraps its
    # function in a self-referencing closure that outlives the call until
    # the cyclic GC runs, and would keep the pricer's path arrays alive
    k, info = brentq(
        _curve_d2,
        lo,
        x,
        args=(iv_curve, x, tau),
        xtol=ZERO_VANNA_XTOL,
        full_output=True,
        disp=False,
    )
    if not info.converged:
        raise ConvergenceError(
            f"zero-vanna strike: {info.flag}",
            best=k,
            residual=_curve_d2(k, iv_curve, x, tau),
        )
    return k


def _curve_d2(k: float, iv_curve: Callable[[float], float], x: float, tau: float) -> float:
    return d2(x, k, iv_curve(k), tau)
