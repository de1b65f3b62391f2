"""Black-Scholes analytics in log coordinates.

All functions work on the log-spot ``x`` and log-strike ``k`` (strike is
``exp(k)``, spot is ``exp(x)``), with zero interest rate. ``bs_price``
broadcasts like numpy arrays (scalar inputs give a scalar output); ``d2``,
``vega`` and the two solvers, which share one safeguarded search (Newton
steps for the implied vol, smile-model steps for the zero-vanna strike),
take scalars.
Every function is pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr

__all__ = [
    "NoSolutionError",
    "ConvergenceError",
    "bs_price",
    "d2",
    "vega",
    "implied_vol",
    "ImpliedVol",
    "zero_vanna_strike",
    "ZeroVannaSearch",
]

# Volatility bracket of the implied-vol inversion, and the Newton step or
# bracket width at which it stops. An inversion error e enters the smile's
# slope at the money as about e/2 (see swapanalysis.implied_smile).
IV_BRACKET = (1e-6, 5.0)
IV_TOL = 1e-14
# Step or log-strike bracket width at which the zero-vanna search stops.
ZERO_VANNA_XTOL = 1e-12
# Newton iterations on the zero-vanna search's smile model, and the step
# at which they stop: far below ZERO_VANNA_XTOL, so the model's root is
# settled when the search judges its step.
MODEL_MAX_ITER = 20
MODEL_XTOL = 1e-3 * ZERO_VANNA_XTOL
# Iteration budget of both searches.
ROOT_MAX_ITER = 100


class NoSolutionError(ValueError):
    """Target price admits no implied volatility (outside arbitrage bounds)."""


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; ``best`` is its best iterate
    and ``residual`` the absolute residual there, both also in the message."""

    def __init__(self, message: str, best: float, residual: float):
        super().__init__(f"{message}; best iterate {best!r}, residual {residual!r}")
        self.best = best
        self.residual = residual


def _check_finite(**vals) -> None:
    for name, v in vals.items():
        # the solvers pass floats, for which numpy's check costs tenfold
        finite = math.isfinite(v) if isinstance(v, float) else np.all(np.isfinite(v))
        if not finite:
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
    ex = np.exp(x)
    price = _call(x, ex, k, np.where(live, srt, 1.0))[0]
    price = np.where(live, price, np.maximum(ex - np.exp(k), 0.0))
    return float(price) if scalar else price


def _call(x, ex, k, srt, out=None):
    """Call price and its log-strike slope ``dC/dk = -exp(k) N(d2)``, from
    one N(d2), on checked inputs.

    ex is ``exp(x)`` and srt the total vol ``sigma sqrt(tau)``, which must
    be positive: a zero total vol is bs_price's to map to the intrinsic
    value. Everything that does not depend on k comes in precomputed, so
    a caller pricing many strikes on the same arrays prepares them once.
    out, if given, is two float arrays of the inputs' broadcast shape that
    receive the price and the slope. The formula has two branches: an
    allocating one for scalars and bs_price, and one in place for the
    pricers' workspaces. They run the same operations in the same order,
    so their results agree to the bit
    (test_in_place_kernel_matches_the_allocating_one). The allocating one
    stays because on scalars it is over ten times faster: run in
    place, the implied-vol layer of a smile_dense run takes twice as long.
    """
    ek = np.exp(k)
    if out is None:
        d_1 = (x - k) / srt + 0.5 * srt
        n_2 = ndtr(d_1 - srt)
        return ex * ndtr(d_1) - ek * n_2, -ek * n_2
    price, slope = out
    np.subtract(x, k, out=price)
    price /= srt
    np.multiply(srt, 0.5, out=slope)
    price += slope  # d1
    np.subtract(price, srt, out=slope)
    ndtr(slope, out=slope)  # N(d2)
    ndtr(price, out=price)
    price *= ex
    slope *= ek
    price -= slope
    np.negative(slope, out=slope)
    return price, slope


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
    return _vega(x, k, _total_vol(x, k, sigma, tau), math.sqrt(tau))


def _vega(x: float, k: float, srt: float, sqrt_tau: float) -> float:
    d_1 = (x - k) / srt + 0.5 * srt
    pdf = math.exp(-0.5 * d_1 * d_1) / math.sqrt(2.0 * math.pi)
    return math.exp(x) * pdf * sqrt_tau


class ImpliedVol(NamedTuple):
    """An implied vol and what inverting for it took: the call prices and
    whether any Newton step left the bracket, so that it bisected."""

    vol: float
    evals: int
    bisected: bool


def implied_vol(target_price: float, x: float, k: float, tau: float) -> ImpliedVol:
    """Invert the call price for volatility to IV_TOL by Newton on the log
    price, whose slope in vol is vega / C, from the larger of
    ``sqrt(2 |x - k| / tau)``, the price's inflection point in vol
    (Manaster and Koehler, J. Finance 37, 1982), and ``C sqrt(2 pi / tau)
    / e^x``, the at-the-money approximation (Brenner and Subrahmanyam,
    Financial Analysts J. 44, 1988). A deep-wing price of 1e-90 takes about
    ten prices; a price that underflows to 0 lies below the target.
    Returns the vol with the call prices the search took and whether it
    bisected.

    Raises NoSolutionError if ``target_price`` lies outside the arbitrage
    bounds ``((e^x - e^k)+, e^x)`` or no vol in IV_BRACKET matches it,
    ConvergenceError after ROOT_MAX_ITER prices, and ValueError unless tau
    is positive.
    """
    _check_finite(target_price=target_price, x=x, k=k, tau=tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lower = max(math.exp(x) - math.exp(k), 0.0)
    upper = math.exp(x)
    if not lower < target_price < upper:
        raise NoSolutionError(
            f"target price {target_price} outside arbitrage bounds ({lower}, {upper})"
        )
    lo, hi = IV_BRACKET
    ex, sqrt_tau = np.exp(x), math.sqrt(tau)
    log_target = math.log(target_price)

    def log_price_gap(sigma: float) -> tuple[float, float]:
        srt = sigma * sqrt_tau
        price = float(_call(x, ex, k, srt)[0])
        if not price > 0.0:
            return -math.inf, math.nan
        gap = math.log(price) - log_target
        slope = _vega(x, k, srt, sqrt_tau) / price
        # NaN, so that the search bisects, where vega underflows
        step = -gap / slope if math.isfinite(slope) and slope != 0.0 else math.nan
        return gap, step

    inflection = math.sqrt(2.0 * abs(x - k) / tau)
    at_the_money = target_price * math.sqrt(2.0 * math.pi / tau) / ex
    # strictly inside: a start on a bracket end closes the bracket unchecked
    start = min(max(inflection, at_the_money, 2.0 * lo), 0.5 * hi)
    no_root = f"no volatility in bracket [{lo}, {hi}] matches price {target_price}"
    search = _newton(log_price_gap, lo, hi, start, IV_TOL, "implied vol", no_root)
    return ImpliedVol(*search)


def _newton(f, lo, hi, start, xtol, name, no_root):
    """``(root, evals, bisected)`` of an increasing f on [lo, hi], where
    ``f(v)`` returns f(v) and a proposed step toward the root, by a
    safeguarded search.

    Each evaluation narrows the bracket by the sign of f. A proposed step
    that would leave the bracket (or is not finite) bisects instead; the
    first time, each end whose sign no evaluation has shown is evaluated
    once to confirm the sign change. The search stops once the step or the
    bracket is narrower than xtol, never on the residual: an f computed
    from rounded prices is rough at that scale, so a residual rule can sit
    below its resolution and never be met. The root is a point f was
    evaluated at.

    Raises NoSolutionError(no_root) when f does not change sign on the
    bracket, and ConvergenceError after ROOT_MAX_ITER steps.
    """
    checked = [False, False]
    v, evals, bisected = start, 0, False
    best = (math.inf, v)
    for _ in range(ROOT_MAX_ITER):
        value, step = f(v)
        evals += 1
        best = min(best, (abs(value), v))
        if value < 0.0:
            lo, checked[0] = v, True
        else:
            hi, checked[1] = v, True
        # NaN fails every comparison below, so it takes the bisection path
        if value == 0.0 or abs(step) < xtol or hi - lo < xtol:
            return v, evals, bisected
        if lo < v + step < hi:
            v += step
            continue
        for side, (end, sign) in enumerate(((lo, -1.0), (hi, 1.0))):
            if not checked[side]:
                evals += 1
                if not sign * f(end)[0] > 0.0:
                    raise NoSolutionError(no_root)
        checked = [True, True]
        v, bisected = 0.5 * (lo + hi), True
    raise ConvergenceError(
        f"{name}: no convergence in {ROOT_MAX_ITER} iterations",
        best=best[1],
        residual=best[0],
    )


class ZeroVannaSearch(NamedTuple):
    """A zero-vanna strike and what finding it took: the curve evaluations
    and whether any step left the bracket, so that it bisected."""

    strike: float
    evals: int
    bisected: bool


def zero_vanna_strike(
    iv_curve: Callable[[float], tuple[float, float]], x: float, tau: float
) -> ZeroVannaSearch:
    """Log-strike where the smile's d2 vanishes: ``d2(x, k, I(k), tau) = 0``.

    iv_curve maps k to the smile and its slope, ``(I(k), I'(k))``. Since
    ``d2 = g(k) / (I sqrt(tau))`` with ``g(k) = x - k - I(k)^2 tau / 2``,
    d2's root is g's. The safeguarded search finds it to ZERO_VANNA_XTOL
    on ``[x - 2 I(x)^2 tau, x]``, narrowing the bracket by the sign of d2.
    Each step goes to g's root on a model of the smile (_model_step): the
    first, from x, on the ATM tangent line; every later one on the cubic
    Hermite interpolant of the last two priced (I, I'). A model step that
    is not finite bisects, like one that leaves the bracket. ``d2(x) =
    -I(x) sqrt(tau) / 2`` is always negative; at the left end d2 is
    positive for any smile close to its ATM level (``3 I sqrt(tau) / 2``
    for a flat one). On a straight smile the tangent start is exact: the
    search prices the ATM strike and the root.

    Raises NoSolutionError when d2 has no sign change on the bracket (the
    smile has no zero-vanna strike near the money), ConvergenceError after
    ROOT_MAX_ITER evaluations, the ATM one among them, and ValueError if
    tau, or a vol the curve returns, is not positive and finite.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    sqrt_tau = math.sqrt(tau)
    # the last two (k, I(k), I'(k)) the curve returned
    priced: list[tuple[float, float, float]] = []

    def minus_d2(k: float) -> tuple[float, float]:
        vol, vol_slope = iv_curve(k)
        if not (math.isfinite(vol) and vol > 0.0):
            raise ValueError(f"iv_curve returned vol {vol} at k={k}")
        srt = vol * sqrt_tau
        d_1 = (x - k) / srt + 0.5 * srt
        priced[:] = [*priced[-1:], (k, vol, vol_slope)]
        return srt - d_1, _model_step(priced, x, tau)

    # the bracket's left end needs I(x): the search starts from that price
    at_the_money = minus_d2(x)
    sig_x = priced[0][1]
    lo = x - 2.0 * sig_x * sig_x * tau
    search = _newton(
        lambda k: at_the_money if k == x else minus_d2(k),
        lo,
        x,
        x,
        ZERO_VANNA_XTOL,
        "zero-vanna strike",
        f"zero-vanna strike: d2 does not change sign on [{lo}, {x}]; "
        "the smile has no zero-vanna strike",
    )
    return ZeroVannaSearch(*search)


def _model_step(
    priced: list[tuple[float, float, float]], x: float, tau: float
) -> float:
    """The step from the last priced strike k1 to the root of
    ``g(k) = x - k - M(k)^2 tau / 2``, where the smile model M is the cubic
    Hermite interpolant of the priced (k, I, I'), or the tangent line at
    k1 when only one is priced (or both at k1). Newton's iteration on g
    from k1, whose first step is Newton's on g itself since M matches I
    and I' there; NaN unless it settles within MODEL_MAX_ITER steps."""
    k1, vol, vol_slope = priced[-1]
    k0, vol0, slope0 = priced[0]
    c2 = c3 = 0.0
    h = k0 - k1
    if h * h > 0.0:
        # M(k1 + u) = I + I' u + c2 u^2 + c3 u^3 through (I0, I0') at u = h
        a = (vol0 - vol - vol_slope * h) / (h * h)
        b = (slope0 - vol_slope) / h
        c3 = (b - 2.0 * a) / h
        c2 = 3.0 * a - b
    u = 0.0
    for _ in range(MODEL_MAX_ITER):
        model = vol + u * (vol_slope + u * (c2 + u * c3))
        model_slope = vol_slope + u * (2.0 * c2 + 3.0 * c3 * u)
        # -g'(k1 + u); Python floats raise on a division by zero
        descent = 1.0 + tau * model * model_slope
        if descent == 0.0:
            return math.nan
        du = (x - k1 - u - 0.5 * tau * model * model) / descent
        u += du
        # a NaN du stops here too, and returns NaN
        if not abs(du) > MODEL_XTOL:
            return u
    return math.nan
