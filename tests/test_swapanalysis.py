"""Tests for implied-vol reports and rate fits.

Reference values marked with their origin:
  - analytic/synthetic oracles are computed in-line,
  - simulated anchors were cross-checked against independent runs at
    larger path counts before the tolerances were pinned.
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr

from fracvol import swapanalysis
from fracvol.blackscholes import (
    IV_TOL,
    ZERO_VANNA_XTOL,
    NoSolutionError,
    bs_price,
    d2,
    vega,
)
from fracvol.fbm import TimeGrid
from fracvol.mcpricer import (
    McConfig,
    PriceEstimate,
    StrikeEstimate,
    simulate_functionals,
    strike_pricer,
)
from fracvol.swapanalysis import (
    ATM_SKEW,
    GAP_SE,
    ZERO_VANNA_SEARCH,
    RateFit,
    SmilePoint,
    SwapReport,
    analysis_record,
    atm_skew,
    convergence_study,
    implied_smile,
    zero_vanna_report,
)
from fracvol.volmodel import ModelParams

X0 = 0.0
SIGMA0 = 0.2
NU = 0.4

# Flat lognormal vol at H=0.5, T=1: swap strike and zero-vanna IV agree
# to well under a vol point (independent large-run value 0.2026).
H05_REFERENCE_VOL = 0.2026
# Rough negative-correlation cell under the coarse midpoint kernel at
# 500 steps/year (independent large-run values, in vol units).
ROUGH_REFERENCE = {"vol_swap": 0.2158, "iv_zero_vanna": 0.2049, "atmi": 0.1987}


def simulate_cell(params, x0, maturity, n_steps, config) -> SwapReport:
    """One cell end to end: simulate its maturity, bind the pricer and
    report it on the shared functionals."""
    (funcs,) = simulate_functionals(TimeGrid(maturity, n_steps), params, config)
    pricer = strike_pricer(funcs, params, x0, maturity)
    return zero_vanna_report(pricer, funcs, params, x0, maturity, config)


def strike_slope(x0, k, vol, vol_slope, maturity):
    """dC/dk of C(k) = BS(x0, k, I(k)): -e^k N(d2) + vega I'(k)."""
    return -math.exp(k) * float(ndtr(d2(x0, k, vol, maturity))) + vega(
        x0, k, vol, maturity
    ) * vol_slope


def analytic_pricer(vol_of_k, x0, maturity, slope_of_k=lambda k: 0.0):
    """Exact pricer for a known smile I(k) with slope I'(k): zero SE, no MC
    noise; its swap leg is the ATM vol, also exact."""

    def pricer(k: float) -> StrikeEstimate:
        vol = vol_of_k(k)
        return StrikeEstimate(
            value=float(bs_price(x0, k, vol, maturity)),
            std_error=0.0,
            n_paths=1,
            slope=strike_slope(x0, k, vol, slope_of_k(k), maturity),
            slope_se=0.0,
            cov=0.0,
            swap=PriceEstimate(vol_of_k(x0), 0.0, 1),
            swap_cov=0.0,
        )

    return pricer


@pytest.fixture(scope="module")
def rep_h05():
    params = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=0.5)
    config = McConfig(n_paths=100_000, seed=401)
    return simulate_cell(params, X0, 1.0, 250, config)


@pytest.fixture(scope="module")
def rep_rough_neg():
    params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.1)
    config = McConfig(n_paths=100_000, seed=402, scheme="midpoint_convolution")
    return simulate_cell(params, X0, 1.0, 500, config)


class TestIvCurve:
    def test_constant_vol_curve_is_flat(self):
        params = ModelParams(sigma0=SIGMA0, nu=0.0, rho=0.0, hurst=0.5)
        config = McConfig(n_paths=2_000, seed=410)
        rep = simulate_cell(params, X0, 1.0, 50, config)
        assert abs(rep.iv_zero_vanna - SIGMA0) < 1e-9
        assert abs(rep.atmi - SIGMA0) < 1e-9
        assert rep.vol_swap == pytest.approx(SIGMA0, abs=1e-12)

    def test_flat_curve_from_analytic_pricer(self):
        pricer = analytic_pricer(lambda k: SIGMA0, X0, 2.0)
        for k in np.linspace(-0.3, 0.3, 7):
            point = implied_smile(pricer, X0, 2.0)(float(k))
            assert point.vol == pytest.approx(SIGMA0, abs=1e-9)
            assert abs(point.slope) < 1e-12
            assert point.vol_se == point.slope_se == 0.0

    def test_slope_recovers_the_smile_slope(self):
        # a quadratic smile: I'(k) comes back from the price slope alone
        def vol_of_k(k):
            return SIGMA0 - 0.2 * k + 0.5 * k * k

        pricer = analytic_pricer(vol_of_k, X0, 1.0, lambda k: -0.2 + k)
        smile = implied_smile(pricer, X0, 1.0)
        for k in (-0.2, -0.05, 0.0, 0.1):
            point = smile(k)
            assert point.vol == pytest.approx(vol_of_k(k), abs=1e-12)
            assert point.slope == pytest.approx(-0.2 + k, abs=1e-10)

    def test_slope_se_is_the_delta_method_se(self):
        # vol SE: the price's over vega. Slope SE: I' = (C' + e^k N(d2)) /
        # vega moves with the vol, dI = dC / vega, through d2 and vega:
        # dI' = (dC' - a dC) / vega, a = d1 / (I sqrt T) + I' d1 d2 / I.
        # Gap SE: I - S with dI = dC / vega, paired through Cov(C, S)
        se_price, se_slope, cov = 3e-4, 5e-4, -1e-7
        swap, swap_cov = PriceEstimate(0.24, 2e-4, 100), 4e-8
        vol, vol_slope, k, maturity = 0.25, -0.1, 0.05, 1.5

        def pricer(k: float) -> StrikeEstimate:
            price = float(bs_price(X0, k, vol, maturity))
            slope = strike_slope(X0, k, vol, vol_slope, maturity)
            return StrikeEstimate(
                price, se_price, 100, slope, se_slope, cov, swap, swap_cov
            )

        point = implied_smile(pricer, X0, maturity)(k)
        sensitivity = vega(X0, k, vol, maturity)
        d_2 = d2(X0, k, vol, maturity)
        d_1 = d_2 + vol * math.sqrt(maturity)
        a = d_1 / (vol * math.sqrt(maturity)) + vol_slope * d_1 * d_2 / vol
        slope_var = se_slope**2 - 2.0 * a * cov + a * a * se_price**2
        assert point.vol_se == pytest.approx(se_price / sensitivity, rel=1e-9)
        assert point.slope == pytest.approx(vol_slope, rel=1e-9)
        assert point.slope_se == pytest.approx(
            math.sqrt(slope_var) / sensitivity, rel=1e-9
        )
        gap_var = (
            se_price**2 / sensitivity**2
            - 2.0 * swap_cov / sensitivity
            + swap.std_error**2
        )
        assert point.swap == swap
        assert point.gap_se == pytest.approx(math.sqrt(gap_var), rel=1e-9)

    def test_zero_vega_gives_nan_slope(self, monkeypatch):
        # no ZeroDivisionError: the slope is NaN and every SE infinite
        monkeypatch.setattr(swapanalysis, "vega", lambda *args: 0.0)
        pricer = analytic_pricer(lambda k: SIGMA0, X0, 1.0)
        point = implied_smile(pricer, X0, 1.0)(0.1)
        assert point.vol == pytest.approx(SIGMA0, abs=1e-12)
        assert math.isnan(point.slope)
        assert point.vol_se == point.slope_se == point.gap_se == math.inf

    def test_uninvertible_price_raises(self):
        def pricer(k: float) -> StrikeEstimate:
            # above the e^x upper arbitrage bound
            swap = PriceEstimate(SIGMA0, 0.0, 10)
            return StrikeEstimate(2.0, 0.0, 10, -0.5, 0.0, 0.0, swap, 0.0)

        with pytest.raises(NoSolutionError, match="arbitrage bounds"):
            implied_smile(pricer, X0, 1.0)(0.1)

    def test_each_strike_priced_once(self):
        strikes = []
        flat = analytic_pricer(lambda k: SIGMA0, X0, 1.0)

        def pricer(k: float) -> StrikeEstimate:
            strikes.append(k)
            return flat(k)

        smile = implied_smile(pricer, X0, 1.0)
        assert smile(0.05) == smile(0.05)
        assert strikes == [0.05]

    def test_rejects_nonpositive_maturity(self):
        pricer = analytic_pricer(lambda k: SIGMA0, X0, 1.0)
        for maturity in (0.0, -1.0):
            with pytest.raises(ValueError):
                implied_smile(pricer, X0, maturity)(0.0)

    def test_uncorrelated_curve_more_symmetric_than_skewed(self):
        grid = TimeGrid(1.0, 64)
        config = McConfig(n_paths=20_000, seed=420)
        delta = 0.05
        asymmetry = {}
        params0 = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=0.5)
        (funcs,) = simulate_functionals(grid, params0, config)
        for rho in (0.0, -0.8):
            params = ModelParams(sigma0=SIGMA0, nu=NU, rho=rho, hurst=0.5)
            smile = implied_smile(strike_pricer(funcs, params, X0, 1.0), X0, 1.0)
            lo = smile(X0 - delta).vol
            hi = smile(X0 + delta).vol
            asymmetry[rho] = abs(hi - lo)
        # mixing over a symmetric vol law cancels the asymmetry exactly
        assert asymmetry[0.0] < 1e-12
        assert asymmetry[-0.8] > 1e-3


class TestAtmSkew:
    def test_linear_smile_recovers_slope(self):
        slope = 0.1
        pricer = analytic_pricer(
            lambda k: SIGMA0 + slope * (k - X0), X0, 1.0, lambda k: slope
        )
        skew, se = atm_skew(implied_smile(pricer, X0, 1.0), X0)
        assert skew == pytest.approx(slope, abs=1e-12)
        assert se == 0.0

    def test_reads_any_smile_function(self):
        def smile(k: float) -> SmilePoint:
            swap = PriceEstimate(SIGMA0, 0.0, 1)
            return SmilePoint(SIGMA0 + 0.1 * (k - X0), 0.0, 0.1, 2e-4, swap, 0.0)

        assert atm_skew(smile, X0) == (0.1, 2e-4)

    def test_constant_vol_skew_is_zero(self):
        pricer = analytic_pricer(lambda k: SIGMA0, X0, 1.0)
        skew, _ = atm_skew(implied_smile(pricer, X0, 1.0), X0)
        assert abs(skew) < 1e-12

    def test_zero_rho_skew_within_noise(self, rep_h05):
        # zero by symmetry: what is left is rounding
        assert abs(rep_h05.atm_skew) < 1e-12

    def test_zero_rho_skew_se_is_rounding(self, rep_h05):
        # at the money the vol's own noise cancels the price slope's
        assert rep_h05.atm_skew_se < 1e-9

    def test_negative_rho_skew_negative_and_flattening(self):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.1)
        skews = {}
        for maturity in (0.25, 1.0, 3.0):
            config = McConfig(n_paths=60_000, seed=403)
            rep = simulate_cell(params, X0, maturity, 250, config)
            assert rep.atm_skew < -3.0 * rep.atm_skew_se, (
                f"skew not significantly negative at T={maturity}"
            )
            skews[maturity] = rep.atm_skew
        assert abs(skews[0.25]) > abs(skews[1.0]) > abs(skews[3.0])


class TestSwapReport:
    def test_prices_each_strike_once(self):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.5, hurst=0.5)
        config = McConfig(n_paths=256, seed=430)
        (funcs,) = simulate_functionals(TimeGrid(1.0, 8), params, config)
        smile = analytic_pricer(
            lambda k: SIGMA0 - 0.1 * (k - X0), X0, 1.0, lambda k: -0.1
        )
        strikes = []

        def pricer(k: float) -> StrikeEstimate:
            strikes.append(k)
            return smile(k)

        rep = zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
        # the search evaluates the ATM strike and k_hat; the report and
        # the skew reuse them
        assert X0 in strikes and rep.k_hat in strikes
        assert len(strikes) == len(set(strikes))
        assert rep.pricer_calls == rep.zero_vanna_evals == len(strikes)
        assert rep.atm_skew == pytest.approx(-0.1, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.8, 0.0])
    def test_monte_carlo_report_prices_at_most_five_strikes(self, rho):
        # Newton from the flat smile's root on the pathwise slope: the ATM
        # strike and at most four iterates, and no strike for the skew
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=rho, hurst=0.1)
        config = McConfig(n_paths=20_000, seed=432)
        (funcs,) = simulate_functionals(TimeGrid(1.0, 50), params, config)
        price = strike_pricer(funcs, params, X0, 1.0)
        strikes = []

        def pricer(k: float) -> StrikeEstimate:
            strikes.append(k)
            return price(k)

        rep = zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
        assert len(set(strikes)) == len(strikes) == rep.pricer_calls <= 5
        assert not rep.zero_vanna_bisected
        assert rep.zero_vanna_residual < 1e-8

    def test_zero_vega_strike_bisects_or_fails_typed(self, monkeypatch):
        # vega zero away from the money: every Newton step lacks I', so the
        # search bisects; vega zero at the money: the skew is NaN and the
        # report is refused with a ValueError, never a ZeroDivisionError
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.5, hurst=0.5)
        config = McConfig(n_paths=256, seed=433)
        (funcs,) = simulate_functionals(TimeGrid(1.0, 8), params, config)
        pricer = analytic_pricer(
            lambda k: SIGMA0 - 0.1 * (k - X0), X0, 1.0, lambda k: -0.1
        )
        real_vega = swapanalysis.vega

        def vega_zero_off_the_money(x, k, sigma, tau):
            return real_vega(x, k, sigma, tau) if k == X0 else 0.0

        monkeypatch.setattr(swapanalysis, "vega", vega_zero_off_the_money)
        rep = zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
        assert rep.zero_vanna_bisected
        assert rep.zero_vanna_residual < 1e-8
        monkeypatch.setattr(swapanalysis, "vega", lambda *args: 0.0)
        with pytest.raises(ValueError, match="atm_skew"):
            zero_vanna_report(pricer, funcs, params, X0, 1.0, config)

    def test_analysis_record_sums_the_reports(self, rep_h05, rep_rough_neg):
        record = analysis_record([rep_h05, rep_rough_neg])
        assert record == {
            "zero_vanna_search": ZERO_VANNA_SEARCH,
            "atm_skew": ATM_SKEW,
            "gap_se": GAP_SE,
            "iv_tol": IV_TOL,
            "zero_vanna_xtol": ZERO_VANNA_XTOL,
            "pricer_calls": rep_h05.pricer_calls + rep_rough_neg.pricer_calls,
            "zero_vanna_evals": rep_h05.zero_vanna_evals
            + rep_rough_neg.zero_vanna_evals,
            "bisection_fallbacks": int(rep_h05.zero_vanna_bisected)
            + int(rep_rough_neg.zero_vanna_bisected),
            "iv_evals": rep_h05.iv_evals + rep_rough_neg.iv_evals,
            "iv_bisection_fallbacks": rep_h05.iv_bisections
            + rep_rough_neg.iv_bisections,
        }

    def test_report_does_not_keep_its_pricer_alive(self):
        # the report's memoized smile and the root finder's closures must
        # not outlive the call: a pricer holds the simulation's path arrays
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.5, hurst=0.5)
        config = McConfig(n_paths=256, seed=431)
        (funcs,) = simulate_functionals(TimeGrid(1.0, 8), params, config)
        pricer = strike_pricer(funcs, params, X0, 1.0)
        alive = weakref.ref(pricer)
        gc.disable()
        try:
            zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
            del pricer
            assert alive() is None
        finally:
            gc.enable()

    def test_h05_matches_reference(self, rep_h05):
        assert rep_h05.vol_swap == pytest.approx(H05_REFERENCE_VOL, abs=1e-3)
        assert rep_h05.iv_zero_vanna == pytest.approx(H05_REFERENCE_VOL, abs=1e-3)
        assert rep_h05.atmi == pytest.approx(H05_REFERENCE_VOL, abs=1e-3)

    def test_rough_negative_rho_matches_reference(self, rep_rough_neg):
        for field, target in ROUGH_REFERENCE.items():
            value = getattr(rep_rough_neg, field)
            assert value == pytest.approx(target, abs=1.5e-3), field

    def test_zero_vanna_residual_tiny(self, rep_h05, rep_rough_neg):
        for rep in (rep_h05, rep_rough_neg):
            assert rep.zero_vanna_residual < 1e-8
            # residual zero means k_hat solves k = x0 - I(k)^2 T / 2
            fixed_point = X0 - 0.5 * rep.iv_zero_vanna**2 * rep.maturity
            assert rep.k_hat == pytest.approx(fixed_point, abs=1e-8)

    def test_zero_vanna_closer_than_atm(self, rep_h05, rep_rough_neg):
        for rep in (rep_h05, rep_rough_neg):
            combined = math.hypot(rep.err_zero_vanna_se, rep.err_atmi_se)
            assert abs(rep.err_zero_vanna) <= abs(rep.err_atmi) + 2.0 * combined

    def test_uncorrelated_gap_tiny_at_short_maturity(self):
        # with rho=0 the zero-vanna vol tracks the swap strike to well
        # under 0.05 vol points out to a year, for smooth and rough H
        for hurst in (0.1, 0.5):
            params = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=hurst)
            for maturity in (0.5, 1.0):
                config = McConfig(n_paths=100_000, seed=406)
                rep = simulate_cell(params, X0, maturity, 250, config)
                assert abs(rep.err_zero_vanna) < 5e-4, (
                    f"H={hurst} T={maturity}: gap {rep.err_zero_vanna:.6f}"
                )

    def test_error_fields_consistent(self):
        # the swap leg is the ATM estimate's; each gap's SE is paired:
        # sqrt(Var C / vega^2 - 2 Cov(C, S) / vega + Var S) at its strike
        config = McConfig(n_paths=20_000, seed=412)
        for rho in (-0.8, 0.0):
            params = ModelParams(sigma0=SIGMA0, nu=NU, rho=rho, hurst=0.3)
            (funcs,) = simulate_functionals(TimeGrid(1.0, 50), params, config)
            price = strike_pricer(funcs, params, X0, 1.0)
            estimates = {}

            def pricer(k: float) -> StrikeEstimate:
                estimates[k] = price(k)
                return estimates[k]

            rep = zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
            swap = estimates[X0].swap
            assert (rep.vol_swap, rep.vol_swap_se) == (swap.value, swap.std_error)
            assert rep.err_zero_vanna == pytest.approx(
                rep.iv_zero_vanna - rep.vol_swap, abs=1e-15
            )
            assert rep.err_atmi == pytest.approx(rep.atmi - rep.vol_swap, abs=1e-15)
            for k, vol, gap_se in (
                (rep.k_hat, rep.iv_zero_vanna, rep.err_zero_vanna_se),
                (X0, rep.atmi, rep.err_atmi_se),
            ):
                est, sensitivity = estimates[k], vega(X0, k, vol, 1.0)
                paired = (
                    est.std_error**2 / sensitivity**2
                    - 2.0 * est.swap_cov / sensitivity
                    + swap.std_error**2
                )
                assert gap_se == pytest.approx(math.sqrt(paired), rel=1e-9)

    def test_report_deterministic(self):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.5, hurst=0.3)
        config = McConfig(n_paths=5_000, seed=411)
        first = simulate_cell(params, X0, 0.5, 64, config)
        second = simulate_cell(params, X0, 0.5, 64, config)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_metadata_carried(self, rep_h05):
        assert rep_h05.n_paths == 100_000
        assert rep_h05.seed == 401
        assert rep_h05.rho == 0.0
        assert rep_h05.hurst == 0.5
        assert rep_h05.maturity == 1.0

    def test_validation_rejects_bad_fields(self, rep_h05):
        good = dataclasses.asdict(rep_h05)
        bad = dict(good, vol_swap=-0.1)
        with pytest.raises(ValueError, match="vol_swap"):
            SwapReport(**bad)
        bad = dict(good, err_atmi=math.nan)
        with pytest.raises(ValueError, match="err_atmi"):
            SwapReport(**bad)


def synthetic_report(maturity, err, err_se):
    """Minimal valid report carrying prescribed gap values."""
    return SwapReport(
        hurst=0.3,
        maturity=maturity,
        rho=-0.8,
        vol_swap=0.2,
        vol_swap_se=0.0,
        iv_zero_vanna=0.2 + err,
        iv_zero_vanna_se=err_se,
        atmi=0.2 + err,
        atmi_se=err_se,
        atm_skew=0.0,
        atm_skew_se=0.0,
        err_zero_vanna=err,
        err_zero_vanna_se=err_se,
        err_atmi=err,
        err_atmi_se=err_se,
        k_hat=-0.02,
        zero_vanna_residual=0.0,
        pricer_calls=4,
        zero_vanna_evals=4,
        zero_vanna_bisected=False,
        iv_evals=16,
        iv_bisections=0,
        n_paths=1,
        seed=0,
    )


class TestPairedGaps:
    """The gap SEs pair the implied vol with the swap leg of the same
    regression, so they must be honest across seeds and, where the two
    legs move together, far below the legs' quadrature SE."""

    def test_paired_se_matches_the_spread_across_seeds(self):
        # 32 seeds: the seed-to-seed SD of each gap over the RMS reported
        # SE lies in the 99.9 % chi-square band for 31 degrees of freedom.
        # The four ratios read 0.87-0.98 at these seeds and 0.74-1.27 over
        # five other seed bases; the widest is the zero-vanna gap at
        # rho = 0, whose SE leaves out the noise k_hat itself carries.
        grid = TimeGrid(1.0, 50)
        gaps = {}
        for seed in range(900, 932):
            config = McConfig(n_paths=8_192, seed=seed)
            params = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=0.3)
            (funcs,) = simulate_functionals(grid, params, config)
            for rho in (-0.8, 0.0):
                params = ModelParams(sigma0=SIGMA0, nu=NU, rho=rho, hurst=0.3)
                pricer = strike_pricer(funcs, params, X0, 1.0)
                rep = zero_vanna_report(pricer, funcs, params, X0, 1.0, config)
                for field in ("err_zero_vanna", "err_atmi"):
                    pair = (getattr(rep, field), getattr(rep, field + "_se"))
                    gaps.setdefault((rho, field), []).append(pair)
        for key, pairs in gaps.items():
            gap, se = np.asarray(pairs).T
            ratio = gap.std(ddof=1) / math.sqrt(np.mean(se**2))
            assert 0.61 <= ratio <= 1.43, f"{key}: SD / SE = {ratio:.3f}"

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5])
    def test_uncorrelated_zero_vanna_gap_far_below_quadrature(self, hurst):
        # at rho = 0 the call leg and the swap leg move together, so the
        # pairing cancels most of both legs' noise: 30-190x at T = 1 (at
        # 20,000 paths, 50 steps; about 13x at H = 0.1, T = 3)
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=hurst)
        rep = simulate_cell(params, X0, 1.0, 50, McConfig(n_paths=20_000, seed=7))
        quadrature = math.hypot(rep.iv_zero_vanna_se, rep.vol_swap_se)
        assert rep.err_zero_vanna_se * 20.0 <= quadrature


class TestRateFit:
    def test_validation(self):
        with pytest.raises(ValueError, match="maturities"):
            RateFit(slope=1.0, intercept=0.0, r_squared=0.9, maturities=(1.0, 2.0))
        with pytest.raises(ValueError, match="r_squared"):
            RateFit(
                slope=1.0, intercept=0.0, r_squared=1.5, maturities=(1.0, 2.0, 3.0)
            )
        fit = RateFit(
            slope=math.nan,
            intercept=math.nan,
            r_squared=math.nan,
            maturities=(),
            inconclusive=True,
        )
        assert fit.inconclusive

    def test_recovers_exact_power_law(self):
        maturities = [0.5, 1.0, 2.0, 4.0]
        reports = [synthetic_report(t, 0.01 * t**0.6, 1e-9) for t in maturities]
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)
        fits = convergence_study(params, reports)
        for fit in fits.values():
            assert fit.slope == pytest.approx(0.6, abs=1e-9)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
            assert fit.maturities == (0.5, 1.0, 2.0, 4.0)
            assert not fit.inconclusive

    @given(
        slope=st.floats(0.1, 1.9),
        scale=st.floats(1e-4, 1e-2),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_random_power_laws(self, slope, scale):
        maturities = [0.25, 0.5, 1.0, 2.0, 4.0]
        reports = [synthetic_report(t, scale * t**slope, 0.0) for t in maturities]
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)
        fits = convergence_study(params, reports)
        assert fits["err_zero_vanna"].slope == pytest.approx(slope, abs=1e-7)

    def test_noise_floor_filters_points(self):
        maturities = [0.5, 1.0, 2.0, 4.0]
        errs = [0.0001, 0.004, 0.006, 0.009]
        ses = [0.0001, 1e-6, 1e-6, 1e-6]  # first point below 3 SE floor
        reports = [
            synthetic_report(t, e, s) for t, e, s in zip(maturities, errs, ses)
        ]
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)
        fits = convergence_study(params, reports)
        assert fits["err_zero_vanna"].maturities == (1.0, 2.0, 4.0)
        assert not fits["err_zero_vanna"].inconclusive

    def test_all_below_floor_is_inconclusive_not_error(self):
        maturities = [0.5, 1.0, 2.0]
        reports = [synthetic_report(t, 1e-5, 1e-4) for t in maturities]
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)
        fits = convergence_study(params, reports)
        for fit in fits.values():
            assert fit.inconclusive
            assert math.isnan(fit.slope)

    def test_zero_vol_of_vol_is_inconclusive(self):
        params = ModelParams(sigma0=SIGMA0, nu=0.0, rho=0.0, hurst=0.5)
        config = McConfig(n_paths=2_000, seed=412)
        reports = [simulate_cell(params, X0, t, 32, config) for t in (0.5, 1.0, 2.0)]
        fits = convergence_study(params, reports)
        for fit in fits.values():
            assert fit.inconclusive

    def test_rough_rate_near_two_h(self):
        # H=0.3: the zero-vanna gap shrinks like T^(2H) toward short
        # maturities; with common random numbers the fitted slope at this
        # scale is 0.75, inside the 2H +/- 0.3 band.
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)
        config = McConfig(n_paths=200_000, seed=404)
        reports = [
            simulate_cell(params, X0, t, 250, config) for t in (0.5, 1.0, 2.0, 3.0)
        ]
        fit = convergence_study(params, reports)["err_zero_vanna"]
        assert not fit.inconclusive
        assert len(fit.maturities) >= 3
        assert 0.3 <= fit.slope <= 0.9
        assert fit.r_squared > 0.9

    def test_validation_errors(self):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=0.3)

        def reports(*maturities):
            return [synthetic_report(t, 0.01, 0.0) for t in maturities]

        with pytest.raises(ValueError, match="at least 3"):
            convergence_study(params, reports(1.0, 2.0))
        with pytest.raises(ValueError, match="distinct"):
            convergence_study(params, reports(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="factor of 2"):
            convergence_study(params, reports(1.0, 1.2, 1.5))
        other = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=0.5)
        with pytest.raises(ValueError, match="does not match"):
            convergence_study(other, reports(1.0, 2.0, 4.0))
