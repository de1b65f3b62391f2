"""Black-Scholes analytics in log coordinates.

All functions work on the log-spot ``x`` and log-strike ``k`` (strike is
``exp(k)``, spot is ``exp(x)``), with zero interest rate. ``bs_price``
broadcasts like numpy arrays (scalar inputs give a scalar output); ``d2``,
``vega`` and the two solvers take scalars. Every function is a pure
function of its arguments and is safe to call concurrently.
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
    "d2",
    "vega",
    "implied_vol",
    "zero_vanna_strike",
]

# Volatility bracket of the implied-vol inversion, and the bracket width
# at which it stops.
IV_BRACKET = (1e-6, 5.0)
IV_TOL = 1e-10
# Width of the log-strike bracket at which the zero-vanna search stops.
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


def _call(x, ex, k, srt_safe, live):
    """Call price on checked inputs, the one copy of the formula.

    ex is ``exp(x)``; live marks the total vols ``sigma sqrt(tau)`` that are
    positive, and srt_safe holds them there and 1 elsewhere, where the
    price is the intrinsic value. Everything that does not depend on k
    comes in precomputed, so a caller pricing many strikes on the same
    arrays checks and prepares them once.
    """
    ek = np.exp(k)
    d_1 = (x - k) / srt_safe + 0.5 * srt_safe
    price = ex * ndtr(d_1) - ek * ndtr(d_1 - srt_safe)
    return np.where(live, price, np.maximum(ex - ek, 0.0))


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


def _root(
    f: Callable[..., float],
    lo: float,
    hi: float,
    args: tuple,
    xtol: float,
    what: str,
    no_root: str,
) -> float:
    """Brent root of ``f(., *args)`` on ``[lo, hi]``, to a bracket narrower than xtol.

    This is the one sign-change check of both solvers. brentq evaluates
    both ends first and raises ValueError when they share a sign; only on
    that failure path are the ends evaluated again, to tell a missing root
    (raised as NoSolutionError with the message no_root) from any other
    ValueError.

    f takes its data through args, not a closure: brentq wraps its function
    in a self-referencing closure that outlives the call until the cyclic
    GC runs, and would keep a pricer's path arrays alive.
    """
    try:
        root, info = brentq(
            f, lo, hi, args, xtol, maxiter=ROOT_MAX_ITER, full_output=True, disp=False
        )
    except ValueError:
        if np.sign(f(lo, *args)) == np.sign(f(hi, *args)):
            raise NoSolutionError(no_root) from None
        raise
    if not info.converged:
        raise ConvergenceError(
            f"{what}: {info.flag}", best=root, residual=f(root, *args)
        )
    return root


def implied_vol(target_price: float, x: float, k: float, tau: float) -> float:
    """Invert the call price for volatility by a Brent root find to IV_TOL.

    Raises NoSolutionError if ``target_price`` lies outside the arbitrage
    bounds ``((e^x - e^k)+, e^x)`` or no vol in IV_BRACKET matches it.
    """
    _check_finite(target_price=target_price, x=x, k=k, tau=tau)
    lower = max(math.exp(x) - math.exp(k), 0.0)
    upper = math.exp(x)
    if not lower < target_price < upper:
        raise NoSolutionError(
            f"target price {target_price} outside arbitrage bounds ({lower}, {upper})"
        )
    lo, hi = IV_BRACKET
    no_root = f"no volatility in bracket [{lo}, {hi}] matches price {target_price}"
    args = (target_price, x, k, tau)
    return _root(_price_gap, lo, hi, args, IV_TOL, "implied vol", no_root)


def _price_gap(sigma: float, target: float, x: float, k: float, tau: float) -> float:
    return bs_price(x, k, sigma, tau) - target


def zero_vanna_strike(iv_curve: Callable[[float], float], x: float, tau: float) -> float:
    """Log-strike where the smile's d2 vanishes: ``d2(x, k, I(k), tau) = 0``.

    Brent's method finds the root of ``r(k) = d2(x, k, I(k), tau)`` on the
    bracket ``[x - 2 I(x)^2 tau, x]``. At the right end
    ``r(x) = -I(x) sqrt(tau) / 2`` is always negative; at the left end r is
    positive for any smile close to its ATM level (for a flat smile it is
    ``3 I sqrt(tau) / 2``). The search stops once the k bracket is narrower
    than ZERO_VANNA_XTOL, never on the residual: an implied-vol curve
    inverted to IV_TOL is rough at that scale in k, so a residual rule can
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
    no_root = (
        f"zero-vanna strike: d2 does not change sign on [{lo}, {x}]; "
        "the smile has no zero-vanna strike"
    )
    args = (iv_curve, x, tau)
    return _root(_curve_d2, lo, x, args, ZERO_VANNA_XTOL, "zero-vanna strike", no_root)


def _curve_d2(k: float, iv_curve: Callable[[float], float], x: float, tau: float) -> float:
    return d2(x, k, iv_curve(k), tau)
