"""Tests for the Monte Carlo pricing engine."""
import math
import tracemalloc

import numpy as np
import pytest

from fracvol.blackscholes import bs_price, implied_vol
from fracvol.fbm import (
    B_STREAM,
    TimeGrid,
    block_rng,
    cholesky_oracle,
    kernel_weights,
    sample_paths,
)
from fracvol.mcpricer import (
    McConfig,
    PriceEstimate,
    _mean_se,
    _terminal_log_return,
    simulate_functionals,
    strike_pricer,
    variance_swap_strike,
    vol_swap_strike,
)
from fracvol.volmodel import (
    ModelParams,
    PathFunctionals,
    integrated_variance_mean,
    path_functionals,
    variance_swap_oracle,
    vol_paths,
)

SIGMA0 = 0.2
NU = 0.4


def combined_se(a: PriceEstimate, b: PriceEstimate) -> float:
    return math.hypot(a.std_error, b.std_error)


def plain_direct_price(funcs, params, x0: float, k: float) -> PriceEstimate:
    """Direct Euler payoff mean without the terminal-spot control."""
    ret = _terminal_log_return(funcs, params.rho)
    return _mean_se(np.maximum(np.exp(x0 + ret) - math.exp(k), 0.0))


def mixing_values(funcs, rho: float, x0: float, k: float, maturity: float):
    """Per-path conditional call values and the shifted spot x_hat."""
    y = funcs.integrated_variance
    x_hat = x0 + rho * funcs.int_sigma_dw - 0.5 * rho * rho * y
    cond_vol = np.sqrt((1.0 - rho * rho) * y / maturity)
    return bs_price(x_hat, k, cond_vol, maturity), x_hat


def regression_estimate(values, spot, x0: float, funcs) -> PriceEstimate:
    """values less the least-squares fit on the centred spot and Y
    controls, each taken against its exact mean; the residuals' SE counts
    the mean and both betas as fitted."""
    controls = np.column_stack(
        [spot - math.exp(x0), funcs.integrated_variance - funcs.integrated_variance_mean]
    )
    centred = controls - controls.mean(axis=0)
    beta = np.linalg.lstsq(centred, values - values.mean(), rcond=None)[0]
    return _mean_se(values - controls @ beta, ddof=3)


@pytest.fixture(scope="module")
def funcs_h05():
    grid = TimeGrid(1.0, 250)
    params = ModelParams(SIGMA0, NU, 0.0, 0.5)
    config = McConfig(n_paths=100_000, seed=101)
    return grid, params, simulate_functionals(grid, params, config)


@pytest.fixture(scope="module")
def funcs_h01_t3():
    grid = TimeGrid(3.0, 250)
    params = ModelParams(SIGMA0, NU, 0.0, 0.1)
    config = McConfig(n_paths=100_000, seed=103)
    return grid, params, simulate_functionals(grid, params, config)


class TestConfigValidation:
    def test_rejects_bad_npaths(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed"):
            McConfig(n_paths=10, seed=-1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, seed=1, scheme="euler")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, seed=1, estimator="qmc")

    def test_rejects_negative_se(self):
        with pytest.raises(ValueError):
            PriceEstimate(value=1.0, std_error=-0.1, n_paths=10)


class TestConditionalEstimator:
    def test_zero_nu_zero_rho_is_exact(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=200, seed=1))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert est.value == pytest.approx(bs_price(0.0, 0.0, SIGMA0, 1.0), abs=1e-12)
        # Y is constant and the shifted spot is x0: both controls drop
        assert est.std_error == 0.0

    def test_zero_nu_correlated_recombines_to_bs(self):
        # With constant vol the conditional values still vary path to path
        # through rho * sigma0 * W_T, but their mean is the plain BS price.
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, -0.8, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=100_000, seed=2))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_degenerate_rho_one(self):
        # |rho| = 1: the conditional law is a point mass; the estimator
        # averages intrinsic values and still targets the BS price.
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 1.0, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=100_000, seed=3))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_atm_iv_matches_reference_table(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        iv = implied_vol(est.value, 0.0, 0.0, 1.0)
        assert abs(iv - 0.2026) < 0.0015

    def test_rejects_bad_maturity(self, funcs_h05):
        grid, params, funcs = funcs_h05
        with pytest.raises(ValueError, match="maturity"):
            strike_pricer(funcs, params, 0.0, 0.0)(0.0)


class TestDirectEstimator:
    def test_zero_nu_matches_bs(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        config = McConfig(n_paths=50_000, seed=4, estimator="direct_euler")
        funcs = simulate_functionals(grid, params, config)
        est = plain_direct_price(funcs, params, 0.0, 0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_terminal_control_reduces_se_and_keeps_mean(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        config = McConfig(n_paths=100_000, seed=5, estimator="direct_euler")
        funcs = simulate_functionals(grid, params, config)
        est_plain = plain_direct_price(funcs, params, 0.0, 0.0)
        est_cv = strike_pricer(
            funcs, params, 0.0, 1.0, estimator="direct_euler"
        )(0.0)
        assert est_cv.std_error < est_plain.std_error
        assert abs(est_cv.value - est_plain.value) < 3.0 * combined_se(
            est_plain, est_cv
        )

    def test_martingale_terminal_spot(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, -0.8, 0.3)
        config = McConfig(n_paths=100_000, seed=6, estimator="direct_euler")
        funcs = simulate_functionals(grid, params, config)
        spot = np.exp(_terminal_log_return(funcs, params.rho))
        se = spot.std(ddof=1) / math.sqrt(spot.shape[0])
        assert abs(spot.mean() - 1.0) < 3.0 * se

    def test_streaming_matches_materialized(self):
        # Rebuild int sigma dB from one materialized batch with the B
        # stream drawn per block: the streaming driver must match it bit
        # for bit, so its B draws are block-aligned with the W draws, and
        # so must the Euler log-return the pricer builds from it.
        grid = TimeGrid(1.0, 64)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(
            n_paths=3000, seed=7, block_size=1000, estimator="direct_euler"
        )
        funcs = simulate_functionals(grid, params, config)
        w = kernel_weights(grid, 0.3)
        batch = sample_paths(grid, w, 3000, seed=7, block_size=1000)
        vols = vol_paths(batch, params, grid)
        whole = path_functionals(vols, batch, grid)
        ito_b = np.empty(3000)
        for b, row in enumerate(range(0, 3000, 1000)):
            rows = slice(row, row + 1000)
            db = block_rng(7, B_STREAM, b).standard_normal((1000, 64))
            ito_b[rows] = np.einsum("ij,ij->i", vols[rows], db * math.sqrt(grid.dt))
        assert np.array_equal(funcs.int_sigma_db, ito_b)
        orth = math.sqrt(1.0 - params.rho**2)
        expected = (
            -0.5 * whole.integrated_variance
            + params.rho * whole.int_sigma_dw
            + orth * ito_b
        )
        assert np.array_equal(_terminal_log_return(funcs, params.rho), expected)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("rho", [0.0, -0.8])
    def test_estimator_equivalence_grid(self, hurst, rho):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, rho, hurst)
        cond_funcs = simulate_functionals(
            grid, params, McConfig(n_paths=40_000, seed=11)
        )
        direct_funcs = simulate_functionals(
            grid,
            params,
            McConfig(n_paths=40_000, seed=12, estimator="direct_euler"),
        )
        direct = strike_pricer(
            direct_funcs, params, 0.0, 1.0, estimator="direct_euler"
        )
        cond = strike_pricer(cond_funcs, params, 0.0, 1.0)
        for k in (-0.1, 0.0, 0.1):
            a = cond(k)
            b = direct(k)
            assert abs(a.value - b.value) < 3.0 * combined_se(a, b), (hurst, rho, k)

    def test_conditional_beats_direct_variance_at_zero_rho(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        config = McConfig(n_paths=50_000, seed=13, estimator="direct_euler")
        funcs = simulate_functionals(grid, params, config)
        cond = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        direct = plain_direct_price(funcs, params, 0.0, 0.0)
        assert cond.std_error < direct.std_error


class TestControlVariates:
    @pytest.mark.parametrize(
        "scheme", ["convolution", "midpoint_convolution", "cholesky_oracle"]
    )
    def test_recorded_mean_of_y_is_exact(self, scheme):
        # H = 0.1 on 10 steps: the midpoint kernel loses so much variance
        # that taking its W^H variance as t^{2H} / (2H) misses by over
        # 200 SE, so the check can tell the two formulas apart.
        grid = TimeGrid(1.0, 10)
        params = ModelParams(SIGMA0, NU, 0.0, 0.1)
        config = McConfig(n_paths=100_000, seed=5, scheme=scheme)
        funcs = simulate_functionals(grid, params, config)
        y = funcs.integrated_variance
        se = y.std(ddof=1) / math.sqrt(y.shape[0])
        assert abs(y.mean() - funcs.integrated_variance_mean) < 4.0 * se
        exact_law = integrated_variance_mean(
            params, grid, grid.times[:-1] ** 0.2 / 0.2
        )
        if scheme == "midpoint_convolution":
            assert abs(y.mean() - exact_law) > 4.0 * se
        else:
            assert funcs.integrated_variance_mean == pytest.approx(exact_law, rel=1e-12)

    def test_mean_of_y_matches_the_variance_swap_oracle(self):
        grid = TimeGrid(1.0, 250)
        params = ModelParams(SIGMA0, NU, 0.0, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=16, seed=1))
        # the left-point sum of a smooth integrand is O(dt) below it
        oracle = variance_swap_oracle(params, 1.0)
        assert funcs.integrated_variance_mean == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("rho", [-0.8, 0.0])
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_controls_cut_the_se_and_keep_the_mean(self, rho, estimator):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, rho, 0.1)
        config = McConfig(n_paths=50_000, seed=29, estimator=estimator)
        funcs = simulate_functionals(grid, params, config)
        if estimator == "direct_euler":
            plain = plain_direct_price(funcs, params, 0.0, 0.0)
        else:
            plain = _mean_se(mixing_values(funcs, rho, 0.0, 0.0, 1.0)[0])
        est = strike_pricer(funcs, params, 0.0, 1.0, estimator=estimator)(0.0)
        assert est.std_error * 1.5 <= plain.std_error
        assert abs(est.value - plain.value) < 3.0 * plain.std_error

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_unit_correlation_prices_intrinsic_values(self, rho):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, NU, rho, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=20_000, seed=3))
        x_hat = rho * funcs.int_sigma_dw - 0.5 * funcs.integrated_variance
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        for k in (-0.05, 0.0, 0.05):
            intrinsic = np.maximum(np.exp(x_hat) - math.exp(k), 0.0)
            expected = regression_estimate(intrinsic, np.exp(x_hat), 0.0, funcs)
            assert pricer(k).value == pytest.approx(expected.value, rel=1e-12)

    @pytest.mark.parametrize("n_paths", [1, 2])
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_tiny_batches_price(self, n_paths, estimator):
        # two paths leave the two controls' Gram matrix singular and the
        # regression no degree of freedom: the fit would pass through both
        # paths and report an SE of rounding, so the plain estimate stands
        grid = TimeGrid(1.0, 16)
        params = ModelParams(SIGMA0, NU, -0.8, 0.1)
        config = McConfig(n_paths=n_paths, seed=1, estimator=estimator)
        funcs = simulate_functionals(grid, params, config)
        est = strike_pricer(funcs, params, 0.0, 1.0, estimator=estimator)(0.0)
        if estimator == "direct_euler":
            plain = plain_direct_price(funcs, params, 0.0, 0.0)
        else:
            plain = _mean_se(mixing_values(funcs, params.rho, 0.0, 0.0, 1.0)[0])
        assert est.value == pytest.approx(plain.value, rel=1e-12)
        assert est.std_error == pytest.approx(plain.std_error, rel=1e-12, abs=0.0)
        if n_paths == 2:
            assert est.std_error > 1e-6
        assert est.n_paths == n_paths

    @pytest.mark.parametrize("field", ["integrated_variance", "int_sigma_dw"])
    def test_non_finite_paths_are_rejected(self, field):
        # a NaN control must not pass for a constant one and be dropped
        arrays = {"integrated_variance": np.full(4, 0.04), "int_sigma_dw": np.zeros(4)}
        arrays[field][1] = np.nan
        funcs = PathFunctionals(**arrays, integrated_variance_mean=0.04)
        params = ModelParams(SIGMA0, NU, 0.0, 0.3)
        with pytest.raises(ValueError, match="finite"):
            strike_pricer(funcs, params, 0.0, 1.0)

    def test_functionals_without_the_mean_of_y_are_rejected(self):
        grid = TimeGrid(1.0, 8)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        batch = sample_paths(grid, kernel_weights(grid, 0.3), 64, seed=1)
        funcs = path_functionals(vol_paths(batch, params, grid), batch, grid)
        with pytest.raises(ValueError, match="mean of the integrated variance"):
            strike_pricer(funcs, params, 0.0, 1.0)


class TestSwapStrikes:
    def test_zero_nu_vol_swap_exact(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        funcs = simulate_functionals(grid, params, McConfig(n_paths=100, seed=14))
        est = vol_swap_strike(funcs, 1.0)
        assert est.value == pytest.approx(SIGMA0, abs=1e-12)
        assert est.std_error < 1e-12
        var_est = variance_swap_strike(funcs, 1.0)
        assert var_est.value == pytest.approx(SIGMA0**2, abs=1e-12)

    def test_vol_swap_reference_h05(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = vol_swap_strike(funcs, grid.maturity)
        assert abs(est.value - 0.2026) < 0.001

    def test_vol_swap_rough_h_brackets(self, funcs_h01_t3):
        # No closed form for E[sqrt(Y/T)] at rough H; bracket it instead:
        # sigma0 <= vol swap (exp term >= 1 on average after Jensen both
        # ways is not tight, so use the hard bounds) <= sqrt(E[Y/T]).
        grid, params, funcs = funcs_h01_t3
        est = vol_swap_strike(funcs, grid.maturity)
        upper = math.sqrt(variance_swap_oracle(params, grid.maturity))
        assert est.value < upper
        assert est.value > 0.0
        # Cross-scheme consistency at rough H on a common coarse grid: the
        # convolution scheme must agree with the exact-law sampler.
        coarse = TimeGrid(3.0, 64)
        conv = simulate_functionals(
            coarse, params, McConfig(n_paths=30_000, seed=41)
        )
        oracle = simulate_functionals(
            coarse, params,
            McConfig(n_paths=30_000, seed=43, scheme="cholesky_oracle"),
        )
        a = vol_swap_strike(conv, 3.0)
        b = vol_swap_strike(oracle, 3.0)
        assert abs(a.value - b.value) < 3.0 * combined_se(a, b)

    def test_midpoint_scheme_reproduces_reference_row(self):
        # Reference tables for rough H were generated with a midpoint
        # kernel evaluation at 500 steps per year; that variant loses
        # variance like n^{-2H} and only matches on the generating grid.
        # Reference: vol swap 20.48% at (H=0.1, T=0.25), 21.58% at T=1.
        params = ModelParams(SIGMA0, NU, 0.0, 0.1)
        for maturity, steps, target in ((0.25, 125, 0.2048), (1.0, 500, 0.2158)):
            grid = TimeGrid(maturity, steps)
            config = McConfig(
                n_paths=100_000, seed=47, scheme="midpoint_convolution"
            )
            funcs = simulate_functionals(grid, params, config)
            est = vol_swap_strike(funcs, maturity)
            assert abs(est.value - target) < 0.001, maturity

    def test_variance_swap_matches_oracle(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = variance_swap_strike(funcs, grid.maturity)
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(est.value - oracle) < 3.0 * est.std_error

    def test_variance_swap_matches_oracle_rough(self, funcs_h01_t3):
        grid, params, funcs = funcs_h01_t3
        est = variance_swap_strike(funcs, grid.maturity)
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(est.value - oracle) < 3.0 * est.std_error

    def test_jensen_gap_every_run(self, funcs_h05, funcs_h01_t3):
        for grid, params, funcs in (funcs_h05, funcs_h01_t3):
            vs = vol_swap_strike(funcs, grid.maturity)
            var = variance_swap_strike(funcs, grid.maturity)
            assert vs.value <= math.sqrt(var.value)


class TestBlockBuffers:
    """simulate_functionals streams every block through three reused
    buffers; the per-path functionals must not notice."""

    BLOCK = 256

    @pytest.mark.parametrize(
        "hurst, scheme",
        [
            (0.3, "convolution"),
            (0.5, "convolution"),
            (0.1, "midpoint_convolution"),
            (0.3, "cholesky_oracle"),
        ],
    )
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_matches_unfused_composition(self, hurst, scheme, estimator):
        # Two full blocks and a partial one, against vol_paths and
        # path_functionals on the materialized paths, each array fresh.
        grid = TimeGrid(1.0, 24)
        params = ModelParams(SIGMA0, NU, -0.5, hurst)
        n_paths = 2 * self.BLOCK + 37
        config = McConfig(
            n_paths=n_paths,
            seed=19,
            scheme=scheme,
            estimator=estimator,
            block_size=self.BLOCK,
        )
        funcs = simulate_functionals(grid, params, config)

        if scheme == "cholesky_oracle":
            # the oracle draws every path as block 0
            block = n_paths
            batch = cholesky_oracle(grid, hurst, n_paths, seed=19)
        else:
            block = self.BLOCK
            midpoint = scheme == "midpoint_convolution"
            w = kernel_weights(grid, hurst, "midpoint" if midpoint else "variance_exact")
            batch = sample_paths(grid, w, n_paths, seed=19, block_size=block)
        vols = vol_paths(batch, params, grid)
        whole = path_functionals(vols, batch, grid)
        assert np.array_equal(funcs.integrated_variance, whole.integrated_variance)
        assert np.array_equal(funcs.int_sigma_dw, whole.int_sigma_dw)
        if estimator == "conditional_mixing":
            assert funcs.int_sigma_db is None
            return
        ito_b = np.empty(n_paths)
        for b, row in enumerate(range(0, n_paths, block)):
            rows = slice(row, row + block)
            shape = vols[rows].shape
            db = block_rng(19, B_STREAM, b).standard_normal(shape) * math.sqrt(grid.dt)
            ito_b[rows] = np.einsum("ij,ij->i", vols[rows], db)
        assert np.array_equal(funcs.int_sigma_db, ito_b)

    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_peak_memory_is_three_block_buffers(self, estimator):
        block_size, n_steps = 4096, 64
        block_bytes = block_size * n_steps * 8
        grid = TimeGrid(1.0, n_steps)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(
            n_paths=4 * block_size + 1000,
            seed=23,
            estimator=estimator,
            block_size=block_size,
        )
        tracemalloc.start()
        try:
            simulate_functionals(grid, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * block_bytes, peak / block_bytes


class TestDeterminism:
    def test_identical_config_identical_estimates(self):
        grid = TimeGrid(1.0, 64)
        params = ModelParams(SIGMA0, NU, -0.8, 0.3)
        config = McConfig(n_paths=5000, seed=15, estimator="direct_euler")
        a = simulate_functionals(grid, params, config)
        b = simulate_functionals(grid, params, config)
        assert np.array_equal(a.integrated_variance, b.integrated_variance)
        assert np.array_equal(a.int_sigma_dw, b.int_sigma_dw)
        assert np.array_equal(a.int_sigma_db, b.int_sigma_db)

    def test_se_scales_with_paths(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        small = simulate_functionals(grid, params, McConfig(n_paths=10_000, seed=16))
        large = simulate_functionals(grid, params, McConfig(n_paths=40_000, seed=16))
        se_small = vol_swap_strike(small, 1.0).std_error
        se_large = vol_swap_strike(large, 1.0).std_error
        # Quadrupling the paths should halve the SE, within sampling slack.
        assert se_large == pytest.approx(se_small / 2.0, rel=0.15)

    def test_cholesky_scheme_end_to_end(self):
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, 0.0, 0.3)
        config = McConfig(n_paths=20_000, seed=17, scheme="cholesky_oracle")
        funcs = simulate_functionals(grid, params, config)
        est = vol_swap_strike(funcs, 1.0)
        conv = simulate_functionals(
            grid, params, McConfig(n_paths=20_000, seed=18)
        )
        conv_est = vol_swap_strike(conv, 1.0)
        assert abs(est.value - conv_est.value) < 3.0 * combined_se(est, conv_est)


class TestStrikePricer:
    def test_conditional_closure_matches_direct_call(self, funcs_h05):
        # The mixing formula and the two-control regression written out:
        # shifted spot, reduced vol, at a correlation the rho-free
        # functionals were not simulated with.
        grid, _, funcs = funcs_h05
        params = ModelParams(SIGMA0, NU, -0.5, 0.5)
        pricer = strike_pricer(funcs, params, 0.0, grid.maturity)
        for k in (-0.05, 0.0, 0.05):
            values, x_hat = mixing_values(funcs, params.rho, 0.0, k, grid.maturity)
            expected = regression_estimate(values, np.exp(x_hat), 0.0, funcs)
            est = pricer(k)
            assert est.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.std_error == pytest.approx(expected.std_error, rel=1e-9)
            assert est.n_paths == expected.n_paths

    def test_direct_closure_matches_regression(self):
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=20_000, seed=37, estimator="direct_euler")
        funcs = simulate_functionals(grid, params, config)
        pricer = strike_pricer(funcs, params, 0.0, 1.0, estimator="direct_euler")
        spot = np.exp(_terminal_log_return(funcs, params.rho))
        for k in (-0.05, 0.0, 0.05):
            payoff = np.maximum(spot - math.exp(k), 0.0)
            expected = regression_estimate(payoff, spot, 0.0, funcs)
            est = pricer(k)
            assert est.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.std_error == pytest.approx(expected.std_error, rel=1e-9)

    def test_direct_requires_terminal(self, funcs_h05):
        grid, params, funcs = funcs_h05
        with pytest.raises(ValueError):
            strike_pricer(funcs, params, 0.0, grid.maturity, estimator="direct_euler")

    def test_rejects_unknown_estimator(self, funcs_h05):
        grid, params, funcs = funcs_h05
        with pytest.raises(ValueError):
            strike_pricer(funcs, params, 0.0, grid.maturity, estimator="qmc")
