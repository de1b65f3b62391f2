"""Tests for the log-coordinate Black-Scholes analytics."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvol import blackscholes
from fracvol.blackscholes import (
    ConvergenceError,
    NoSolutionError,
    bs_price,
    d2,
    implied_vol,
    vega,
    zero_vanna_strike,
)

# Reference values computed with mpmath at 50 digits, rounded to float64.
ATM_PRICE_02_1Y = 0.07965567455405796  # x=0, k=0, sigma=0.2, tau=1
ATM_VEGA_02_1Y = 0.3969525474770118
# Root of 0.125 k^2 + 0.9 k + 0.02 = 0 (affine smile I(k) = 0.2 - 0.5 k).
AFFINE_ZERO_VANNA_K = -0.022291236000336486

FINITE_X = st.floats(-0.5, 0.5)
FINITE_K = st.floats(-0.6, 0.6)
VOLS = st.floats(0.05, 1.5)
TAUS = st.floats(0.05, 5.0)
# (x, k, sigma, tau) with zero vol, zero tau or a non-finite input
ZERO_OR_NAN_TOTAL_VOL = [
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.2, 0.0),
    (0.0, math.nan, 0.2, 1.0),
]


class TestBsPrice:
    def test_atm_reference_value(self):
        assert bs_price(0.0, 0.0, 0.2, 1.0) == pytest.approx(ATM_PRICE_02_1Y, abs=1e-15)

    def test_atm_closed_form(self):
        # ATM with x=k the price is 2 N(sigma sqrt(tau)/2) - 1 times exp(x).
        from scipy.special import ndtr

        for sig, tau in [(0.2, 1.0), (0.4, 0.25), (1.0, 2.0)]:
            expected = 2.0 * ndtr(0.5 * sig * math.sqrt(tau)) - 1.0
            assert bs_price(0.0, 0.0, sig, tau) == pytest.approx(expected, rel=1e-14)

    def test_deep_itm_approaches_spot_minus_strike(self):
        assert bs_price(0.0, -30.0, 0.2, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vol_returns_intrinsic(self):
        assert bs_price(0.0, -0.1, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-0.1))
        assert bs_price(0.0, 0.1, 0.0, 1.0) == 0.0
        assert bs_price(0.0, -0.1, 0.2, 0.0) == pytest.approx(1.0 - math.exp(-0.1))

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_subnormal_total_vol_returns_intrinsic(self):
        # (x - k) / (sigma sqrt(tau)) overflows to +-inf off the money
        for k in (-0.1, 0.0, 0.1):
            expected = max(1.0 - math.exp(k), 0.0)
            assert bs_price(0.0, k, 1e-160, 1e-300) == pytest.approx(expected, abs=1e-15)

    def test_broadcasting(self):
        ks = np.array([-0.2, 0.0, 0.2])
        out = bs_price(0.0, ks, 0.2, 1.0)
        assert out.shape == (3,)
        for i, k in enumerate(ks):
            assert out[i] == bs_price(0.0, float(k), 0.2, 1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            bs_price(0.0, 0.0, -0.1, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            bs_price(math.nan, 0.0, 0.2, 1.0)

    @given(x=FINITE_X, k=FINITE_K, sigma=VOLS, tau=TAUS)
    @settings(max_examples=200)
    def test_arbitrage_bounds(self, x, k, sigma, tau):
        p = bs_price(x, k, sigma, tau)
        # Bounds are strict in exact arithmetic; allow one-ulp float slack.
        slack = 5e-16 * math.exp(x)
        assert max(math.exp(x) - math.exp(k), 0.0) - slack <= p < math.exp(x) + slack

    @given(x=FINITE_X, k=FINITE_K, tau=TAUS, lo=VOLS, hi=VOLS)
    @settings(max_examples=200)
    def test_monotone_in_vol(self, x, k, tau, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        assert bs_price(x, k, lo, tau) <= bs_price(x, k, hi, tau) + 1e-15

    @given(x=FINITE_X, k=FINITE_K, sigma=VOLS, tau=TAUS)
    @settings(max_examples=100)
    def test_price_decreasing_in_strike(self, x, k, sigma, tau):
        assert bs_price(x, k, sigma, tau) >= bs_price(x, k + 0.01, sigma, tau) - 1e-15


class TestGreeks:
    def test_vega_reference_value(self):
        assert vega(0.0, 0.0, 0.2, 1.0) == pytest.approx(ATM_VEGA_02_1Y, abs=1e-15)

    @given(x=FINITE_X, k=FINITE_K, sigma=VOLS, tau=TAUS)
    @settings(max_examples=100)
    def test_vega_matches_finite_difference(self, x, k, sigma, tau):
        h = 1e-6
        fd = (bs_price(x, k, sigma + h, tau) - bs_price(x, k, sigma - h, tau)) / (2 * h)
        assert vega(x, k, sigma, tau) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_d2_vanishes_at_zero_vanna_strike(self):
        x, sig, tau = 0.1, 0.25, 2.0
        k_hat = x - 0.5 * sig * sig * tau
        assert abs(d2(x, k_hat, sig, tau)) < 1e-14

    def test_greeks_reject_zero_vol(self):
        for fn in (d2, vega):
            for args in ZERO_OR_NAN_TOTAL_VOL:
                with pytest.raises(ValueError):
                    fn(*args)


class TestImpliedVol:
    def test_recovers_known_vol(self):
        price = bs_price(0.0, 0.0, 0.2, 1.0)
        assert implied_vol(price, 0.0, 0.0, 1.0) == pytest.approx(0.2, abs=1e-10)

    @given(x=FINITE_X, k=FINITE_K, sigma=st.floats(0.05, 1.0), tau=TAUS)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x, k, sigma, tau):
        # Far in the wings the price carries almost no vol information in
        # float64 (vega underflows relative to price rounding), so restrict
        # to quotes with |d1|, |d2| <= 5.
        d_1 = (x - k) / (sigma * math.sqrt(tau)) + 0.5 * sigma * math.sqrt(tau)
        if abs(d_1) > 5.0 or abs(d2(x, k, sigma, tau)) > 5.0:
            return
        price = bs_price(x, k, sigma, tau)
        assert implied_vol(price, x, k, tau) == pytest.approx(sigma, abs=1e-9)

    def test_rejects_price_below_intrinsic(self):
        with pytest.raises(NoSolutionError):
            implied_vol(0.05, 0.0, -0.1, 1.0)  # intrinsic is ~0.0952

    def test_rejects_price_above_spot(self):
        with pytest.raises(NoSolutionError):
            implied_vol(1.5, 0.0, 0.0, 1.0)

    def test_rejects_price_outside_bracket(self):
        price = bs_price(0.0, 0.0, 6.0, 1.0)  # above the top of IV_BRACKET
        with pytest.raises(NoSolutionError, match="no volatility in bracket"):
            implied_vol(price, 0.0, 0.0, 1.0)

    def test_convergence_error_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(blackscholes, "ROOT_MAX_ITER", 2)
        price = bs_price(0.0, 0.0, 0.2, 1.0)
        with pytest.raises(ConvergenceError) as err:
            implied_vol(price, 0.0, 0.0, 1.0)
        assert err.value.best == pytest.approx(0.2, abs=0.5)
        assert math.isfinite(err.value.residual)

    def test_near_atm_inversion_prices_at_most_16_times(self, monkeypatch):
        # a bisection of IV_BRACKET down to IV_TOL takes 37 prices
        calls = []
        real = blackscholes._call
        price = bs_price(0.01, -0.03, 0.27, 1.3)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(blackscholes, "_call", counted)
        assert implied_vol(price, 0.01, -0.03, 1.3) == pytest.approx(0.27, abs=1e-10)
        assert len(calls) <= 16

    def test_near_atm_inversion_prices_each_bracket_end_once(self, monkeypatch):
        # brentq prices both ends of IV_BRACKET itself; a sign pre-check
        # would price them a second time
        calls = []
        real = blackscholes._call
        price = bs_price(0.01, -0.03, 0.27, 1.3)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(blackscholes, "_call", counted)
        implied_vol(price, 0.01, -0.03, 1.3)
        assert len(calls) == 9
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_nonpositive_tau_before_pricing(self, monkeypatch, tau):
        calls = []
        real = blackscholes._call

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(blackscholes, "_call", counted)
        with pytest.raises(ValueError, match="tau"):
            implied_vol(0.05, 0.0, 0.0, tau)
        assert calls == []

    def test_deterministic(self):
        price = bs_price(0.01, -0.03, 0.27, 1.3)
        a = implied_vol(price, 0.01, -0.03, 1.3)
        b = implied_vol(price, 0.01, -0.03, 1.3)
        assert a == b


@st.composite
def smiles_with_a_root(draw):
    """(x, sig0, slope, tau) of an affine smile I(k) = sig0 + slope (k - x)
    that has a zero-vanna strike.

    With u = k - x the fixed point k = x - I(k)^2 tau / 2 is a quadratic in
    u whose discriminant is 1 + 2 tau sig0 slope, so a root exists only
    when that is nonnegative.  Keep it at least 0.05 so the root is not a
    tangency.
    """
    x = draw(st.floats(-0.2, 0.2))
    sig0 = draw(st.floats(0.1, 0.6))
    tau = draw(st.floats(0.1, 3.0))
    slope = draw(st.floats(max(-0.4, -0.95 / (2.0 * tau * sig0)), 0.4))
    return x, sig0, slope, tau


def clipped_affine(sig0, slope, x, floor=0.01):
    """(I, I') of the smile max(sig0 + slope (k - x), floor)."""

    def curve(k):
        vol = sig0 + slope * (k - x)
        return (vol, slope) if vol > floor else (floor, 0.0)

    return curve


class TestZeroVannaStrike:
    def test_constant_curve_exact(self):
        x, sig, tau = 0.02, 0.22, 1.5
        k_hat, evals, bisected = zero_vanna_strike(lambda k: (sig, 0.0), x, tau)
        assert k_hat == pytest.approx(x - 0.5 * sig * sig * tau, abs=1e-12)
        # the Newton start is the flat smile's root
        assert evals == 2 and not bisected

    def test_affine_curve_reference_root(self):
        # I(k) = 0.2 - 0.5 k, x = 0, tau = 1. Fixed point solves the
        # quadratic 0.125 k^2 + 0.9 k + 0.02 = 0 (root nearer zero).
        search = zero_vanna_strike(lambda k: (0.2 - 0.5 * k, -0.5), 0.0, 1.0)
        assert search.strike == pytest.approx(AFFINE_ZERO_VANNA_K, abs=1e-10)
        # Newton converges quadratically from the flat smile's root
        assert search.evals <= 6 and not search.bisected

    def test_residual_below_tolerance(self):
        def curve(k):
            return 0.25 + 0.3 * (k - 0.01) ** 2, 0.6 * (k - 0.01)

        x, tau = 0.01, 2.0
        k_hat = zero_vanna_strike(curve, x, tau).strike
        assert abs(d2(x, k_hat, curve(k_hat)[0], tau)) < 1e-10

    @given(smile=smiles_with_a_root())
    @settings(max_examples=100, deadline=None)
    def test_smooth_smiles_leave_tiny_residual(self, smile):
        x, sig0, slope, tau = smile
        curve = clipped_affine(sig0, slope, x)
        k_hat = zero_vanna_strike(curve, x, tau).strike
        assert abs(d2(x, k_hat, curve(k_hat)[0], tau)) < 1e-9

    def test_smile_without_root_raises_no_solution(self):
        # 1 + 2 tau sig0 slope = -0.125 < 0: k = x - I(k)^2 tau / 2 has no
        # real root, and d2 is negative across the whole bracket.
        curve = clipped_affine(sig0=0.5, slope=-0.375, x=0.0)
        with pytest.raises(NoSolutionError, match="no zero-vanna strike"):
            zero_vanna_strike(curve, 0.0, 3.0)

    def test_step_smile_below_residual_resolution_converges(self):
        # Two vol levels 5 / 2^35 apart (about 1.5e-10), with the jump
        # midway between their two zero-d2 strikes: a fixed point on
        # k alternates between the levels with |d2| ~ 2e-10 forever. The
        # smile's slope is zero on both sides, so each Newton step jumps
        # to the other level's root; the search falls back to bisection
        # and the bracket closes on the jump.
        x, tau = 0.0, 2.0
        sig_lo, step = 0.20077559900602, 1.455e-10
        sig_hi = sig_lo + step
        k_jump = x - 0.25 * (sig_lo**2 + sig_hi**2) * tau
        evals = []

        def curve(k):
            evals.append(k)
            return (sig_lo if k < k_jump else sig_hi), 0.0

        k_hat, reported, bisected = zero_vanna_strike(curve, x, tau)
        assert len(evals) == reported <= 60
        assert bisected
        assert abs(d2(x, k_hat, curve(k_hat)[0], tau)) < 1e-8
        assert abs(k_hat - k_jump) < 1e-11

    def test_non_finite_slope_bisects(self):
        # a strike whose vega underflows has no usable I'; the search
        # bisects past it instead of dividing by zero
        def curve(k):
            return 0.2 - 0.5 * k, math.nan

        search = zero_vanna_strike(curve, 0.0, 1.0)
        assert search.bisected
        assert search.strike == pytest.approx(AFFINE_ZERO_VANNA_K, abs=1e-11)

    def test_returns_an_evaluated_strike(self):
        evals = []

        def curve(k):
            evals.append(k)
            return 0.25 + 0.3 * (k - 0.01) ** 2, 0.6 * (k - 0.01)

        search = zero_vanna_strike(curve, 0.01, 2.0)
        assert search.strike in evals
        assert search.evals == len(evals)

    def test_convergence_error_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(blackscholes, "ROOT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            zero_vanna_strike(lambda k: (0.2 - 0.5 * k, -0.5), 0.0, 1.0)
        assert err.value.best == pytest.approx(AFFINE_ZERO_VANNA_K, abs=0.1)
        assert math.isfinite(err.value.residual)

    def test_releases_the_curve_on_return(self):
        # a curve closes over a pricer and its path arrays; nothing may
        # hold it once the search is over, not even a reference cycle
        class Curve:
            def __call__(self, k):
                return 0.2 - 0.5 * k, -0.5

        curve = Curve()
        ref = weakref.ref(curve)
        gc.disable()
        try:
            zero_vanna_strike(curve, 0.0, 1.0)
            del curve
            assert ref() is None
        finally:
            gc.enable()

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            zero_vanna_strike(lambda k: (0.2, 0.0), 0.0, 0.0)

    def test_rejects_nonpositive_curve(self):
        with pytest.raises(ValueError):
            zero_vanna_strike(lambda k: (-0.1, 0.0), 0.0, 1.0)
