"""Tests for the Monte Carlo pricing engine."""
import gc
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from fracvol import fbm, volmodel
from fracvol.blackscholes import bs_price, implied_vol
from fracvol.fbm import (
    B_STREAM,
    ORACLE_STREAM,
    TILE_BYTES,
    W_STREAM,
    GaussianPathBatch,
    TimeGrid,
    _convolution_matrix,
    _triangular_product,
    block_rng,
    cholesky_factor,
    exact_level_variance,
    kernel_weights,
    level_variance,
    sample_paths,
    tile_rows,
)
from fracvol.mcpricer import (
    CONTROLS,
    McConfig,
    PriceEstimate,
    StrikeEstimate,
    _bind_controls,
    _regress,
    pricer_workspace,
    simulate_functionals,
    strike_pricer,
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


def plain_mean(values: np.ndarray) -> PriceEstimate:
    """Sample mean with its SE, no control; SE 0 on a single value."""
    n = values.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PriceEstimate(value=float(values.mean()), std_error=se, n_paths=n)


def swap_leg(funcs, params, maturity: float) -> PriceEstimate:
    """The controlled vol-swap leg that the pricer of (funcs, rho) carries."""
    return strike_pricer(funcs, params, 0.0, maturity)(0.0).swap


def euler_log_return(funcs, rho: float) -> np.ndarray:
    """Left-point Euler X_T - x0 = -Y/2 + rho int sigma dW
    + sqrt(1 - rho^2) sqrt(Y) z, per path, as the pricer builds it: the draw
    x_hat - v/2 + sqrt(v) z of the conditional law, v = (1 - rho^2) Y."""
    y = funcs.integrated_variance
    x_hat = rho * funcs.int_sigma_dw - 0.5 * rho * rho * y
    v = y * (1.0 - rho * rho)
    return x_hat - 0.5 * (1.0 - rho * rho) * y + np.sqrt(v) * funcs.independent_normal


def plain_direct_price(funcs, params, x0: float, k: float) -> PriceEstimate:
    """Direct Euler payoff mean without the terminal-spot control."""
    ret = euler_log_return(funcs, params.rho)
    return plain_mean(np.maximum(np.exp(x0 + ret) - math.exp(k), 0.0))


def mixing_values(funcs, rho: float, x0: float, k: float, maturity: float):
    """Per-path conditional call values and the shifted spot x_hat."""
    y = funcs.integrated_variance
    x_hat = x0 + rho * funcs.int_sigma_dw - 0.5 * rho * rho * y
    cond_vol = np.sqrt((1.0 - rho * rho) * y / maturity)
    return bs_price(x_hat, k, cond_vol, maturity), x_hat


def oracle_controls(spot, x0: float, funcs, rho: float) -> np.ndarray:
    """The CONTROLS per path, one column each, against their exact means:
    the spot less e^{x0}, Y less E[Y], and the exponential martingale
    exp(lam int sigma dW - lam^2 Y / 2) - 1 with lam = -2 |rho|."""
    lam = -2.0 * abs(rho)
    y, ito = funcs.integrated_variance, funcs.int_sigma_dw
    return np.column_stack(
        [
            spot - math.exp(x0),
            y - funcs.integrated_variance_mean,
            np.exp(lam * ito - 0.5 * lam * lam * y) - 1.0,
        ]
    )


def regression_residuals(
    values, spot, x0: float, funcs, rho: float
) -> tuple[np.ndarray, int]:
    """values less the least-squares fit on the centred controls, each
    taken against its exact mean, and the residuals' degrees of freedom:
    n less the mean and each live control's beta."""
    controls = oracle_controls(spot, x0, funcs, rho)
    centred = controls - controls.mean(axis=0)
    beta, _, rank, _ = np.linalg.lstsq(centred, values - values.mean(), rcond=None)
    return values - controls @ beta, values.shape[0] - 1 - rank


def regression_estimate(values, spot, x0: float, funcs, rho: float) -> PriceEstimate:
    """The mean of regression_residuals with its SE."""
    residuals, dof = regression_residuals(values, spot, x0, funcs, rho)
    n = residuals.shape[0]
    se = float(residuals.std(ddof=n - dof) / math.sqrt(n))
    return PriceEstimate(value=float(residuals.mean()), std_error=se, n_paths=n)


def control_weights(spot, x0: float, funcs, rho: float) -> np.ndarray:
    """Per-path weights w with regression_estimate(v).value == w @ v for
    every v: v-bar less beta times the controls' mean, with beta linear
    in v. They do not depend on the strike. rho != 0, so that every
    control is live."""
    controls = oracle_controls(spot, x0, funcs, rho)
    centred = controls - controls.mean(axis=0)
    beta_of_v = np.linalg.solve(centred.T @ centred, centred.T)
    return 1.0 / spot.shape[0] - controls.mean(axis=0) @ beta_of_v


@pytest.fixture(scope="module")
def funcs_h05():
    grid = TimeGrid(1.0, 250)
    params = ModelParams(SIGMA0, NU, 0.0, 0.5)
    config = McConfig(n_paths=100_000, seed=101)
    (funcs,) = simulate_functionals(grid, params, config)
    return grid, params, funcs


@pytest.fixture(scope="module")
def funcs_h01_t3():
    grid = TimeGrid(3.0, 250)
    params = ModelParams(SIGMA0, NU, 0.0, 0.1)
    config = McConfig(n_paths=100_000, seed=103)
    (funcs,) = simulate_functionals(grid, params, config)
    return grid, params, funcs


class TestConfigValidation:
    def test_rejects_bad_npaths(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=0, seed=1)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="^block_size"):
            McConfig(n_paths=10, seed=1, block_size=0)

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
        swap = PriceEstimate(value=0.2, std_error=0.0, n_paths=10)
        with pytest.raises(ValueError, match="^slope_se"):
            StrikeEstimate(1.0, 0.1, 10, -0.5, -0.1, cov=0.0, swap=swap, swap_cov=0.0)

    def test_rejects_nan_se(self):
        with pytest.raises(ValueError, match="^std_error"):
            PriceEstimate(value=1.0, std_error=math.nan, n_paths=10)
        swap = PriceEstimate(value=0.2, std_error=0.0, n_paths=10)
        with pytest.raises(ValueError, match="^slope_se"):
            StrikeEstimate(1.0, 0.1, 10, -0.5, math.nan, cov=0.0, swap=swap, swap_cov=0.0)


class TestConditionalEstimator:
    def test_zero_nu_zero_rho_is_exact(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=200, seed=1))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert est.value == pytest.approx(bs_price(0.0, 0.0, SIGMA0, 1.0), abs=1e-12)
        # Y is constant and the shifted spot is x0: both controls drop
        assert est.std_error == 0.0

    def test_zero_nu_correlated_recombines_to_bs(self):
        # With constant vol the conditional values still vary path to path
        # through rho * sigma0 * W_T, but their mean is the plain BS price.
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, -0.8, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=100_000, seed=2))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_degenerate_rho_one(self):
        # |rho| = 1: the conditional law is a point mass; the estimator
        # averages intrinsic values and still targets the BS price.
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 1.0, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=100_000, seed=3))
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_atm_iv_matches_reference_table(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        iv = implied_vol(est.value, 0.0, 0.0, 1.0).vol
        assert abs(iv - 0.2026) < 0.0015

    def test_rejects_bad_maturity(self, funcs_h05):
        grid, params, funcs = funcs_h05
        for maturity in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"maturity .* got {maturity}"):
                strike_pricer(funcs, params, 0.0, maturity)


class TestDirectEstimator:
    def test_zero_nu_matches_bs(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        config = McConfig(n_paths=50_000, seed=4, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        est = plain_direct_price(funcs, params, 0.0, 0.0)
        assert abs(est.value - bs_price(0.0, 0.0, SIGMA0, 1.0)) < 3.0 * est.std_error

    def test_terminal_control_reduces_se_and_keeps_mean(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        config = McConfig(n_paths=100_000, seed=5, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        est_plain = plain_direct_price(funcs, params, 0.0, 0.0)
        est_cv = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert est_cv.std_error < est_plain.std_error
        assert abs(est_cv.value - est_plain.value) < 3.0 * combined_se(
            est_plain, est_cv
        )

    def test_martingale_terminal_spot(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, -0.8, 0.3)
        config = McConfig(n_paths=100_000, seed=6, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        spot = np.exp(euler_log_return(funcs, params.rho))
        se = spot.std(ddof=1) / math.sqrt(spot.shape[0])
        assert abs(spot.mean() - 1.0) < 3.0 * se

    def test_streaming_matches_materialized(self):
        # Rebuild the functionals from one materialized batch and one
        # normal per path from block 0 of the B stream, whatever the block
        # size: the streaming driver must match them bit for bit, and the
        # draw the pricer builds from them is the Euler log-return.
        grid = TimeGrid(1.0, 64)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(
            n_paths=3000, seed=7, block_size=1000, estimator="direct_euler"
        )
        (funcs,) = simulate_functionals(grid, params, config)
        w = kernel_weights(grid, 0.3)
        batch = sample_paths(grid, w, 3000, seed=7, block_size=1000)
        vols = vol_paths(batch, params, grid)
        y, ito = path_functionals(vols, batch, grid)
        z = block_rng(7, B_STREAM, 0).standard_normal(3000)
        assert np.array_equal(funcs.integrated_variance, y)
        assert np.array_equal(funcs.int_sigma_dw, ito)
        assert np.array_equal(funcs.independent_normal, z)
        orth = math.sqrt(1.0 - params.rho**2)
        expected = -0.5 * y + params.rho * ito + orth * np.sqrt(y) * z
        np.testing.assert_allclose(
            euler_log_return(funcs, params.rho), expected, rtol=0, atol=1e-15
        )

    def test_one_normal_leg_has_the_law_of_the_increment_sum(self):
        # The old construction: int sigma dB as the left-point sum of the
        # vols against a B-increment field the test draws itself, passed
        # to the pricer as the normal int sigma dB / sqrt(Y). Its
        # controlled call prices must agree with the pricer on one normal
        # z per path from an independent simulation, and z must be a
        # standard normal uncorrelated with int sigma dW.
        grid = TimeGrid(1.0, 50)
        n_paths = 50_000
        base = ModelParams(SIGMA0, NU, 0.0, 0.1)
        w = kernel_weights(grid, base.hurst)
        batch = sample_paths(grid, w, n_paths, seed=41)
        vols = vol_paths(batch, base, grid)
        y, ito = path_functionals(vols, batch, grid)
        db = np.random.default_rng(42).standard_normal(vols.shape)
        euler = PathFunctionals(
            integrated_variance=y,
            int_sigma_dw=ito,
            independent_normal=np.einsum("ij,ij->i", vols, db)
            * math.sqrt(grid.dt)
            / np.sqrt(y),
            integrated_variance_mean=integrated_variance_mean(
                base, grid, level_variance(grid, w)
            ),
        )
        config = McConfig(n_paths=n_paths, seed=43, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, base, config)
        for rho in (0.0, -0.8):
            params = ModelParams(SIGMA0, NU, rho, base.hurst)
            old = strike_pricer(euler, params, 0.0, 1.0)
            new = strike_pricer(funcs, params, 0.0, 1.0)
            for k in (-0.1, 0.0, 0.1):
                a, b = old(k), new(k)
                assert abs(a.value - b.value) < 3.0 * combined_se(a, b), (rho, k)

        z = funcs.independent_normal
        bound = 4.0 / math.sqrt(n_paths)
        assert abs(z.mean()) < bound
        centred = (z - z.mean()) ** 2
        assert abs(z.var(ddof=1) - 1.0) < 4.0 * centred.std(ddof=1) / math.sqrt(n_paths)
        assert abs(np.corrcoef(z, funcs.int_sigma_dw)[0, 1]) < bound

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("rho", [0.0, -0.8])
    def test_estimator_equivalence_grid(self, hurst, rho):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, rho, hurst)
        (cond_funcs,) = simulate_functionals(
            grid, params, McConfig(n_paths=40_000, seed=11)
        )
        (direct_funcs,) = simulate_functionals(
            grid,
            params,
            McConfig(n_paths=40_000, seed=12, estimator="direct_euler"),
        )
        direct = strike_pricer(direct_funcs, params, 0.0, 1.0)
        cond = strike_pricer(cond_funcs, params, 0.0, 1.0)
        for k in (-0.1, 0.0, 0.1):
            a = cond(k)
            b = direct(k)
            assert abs(a.value - b.value) < 3.0 * combined_se(a, b), (hurst, rho, k)

    def test_conditional_beats_direct_variance_at_zero_rho(self):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        config = McConfig(n_paths=50_000, seed=13, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        # mixing on the same paths: the pricer reads the law off the
        # functionals, so drop the normal only direct Euler draws with
        mixed = replace(funcs, independent_normal=None)
        cond = strike_pricer(mixed, params, 0.0, 1.0)(0.0)
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
        (funcs,) = simulate_functionals(grid, params, config)
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
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=16, seed=1))
        # the left-point sum of a smooth integrand is O(dt) below it
        oracle = variance_swap_oracle(params, 1.0)
        assert funcs.integrated_variance_mean == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize(
        "scheme, estimator",
        [
            ("convolution", "conditional_mixing"),
            ("midpoint_convolution", "conditional_mixing"),
            ("cholesky_oracle", "conditional_mixing"),
            ("convolution", "direct_euler"),
        ],
    )
    def test_exponential_martingale_has_mean_zero(self, scheme, estimator):
        # sigma_j is adapted and dW_j exactly Normal(0, dt) given the past
        # under every scheme, so each left-point factor of the control has
        # conditional mean 1; on 10 steps, at two maturities read off one
        # draw, and at both signs of rho
        grid = TimeGrid(1.0, 10)
        params = ModelParams(SIGMA0, NU, 0.0, 0.1)
        config = McConfig(n_paths=100_000, seed=17, scheme=scheme, estimator=estimator)
        row = CONTROLS.index("exponential_martingale")
        for funcs in simulate_functionals(grid, params, config, (0.5, 2.0)):
            for rho in (-0.8, 0.6):
                spot = np.exp(mixing_values(funcs, rho, 0.0, 0.0, 1.0)[1])
                out = np.empty((2 * len(CONTROLS), funcs.n_paths))
                controls, means, _ = _bind_controls(spot, 0.0, rho, funcs, out)
                assert controls.shape[0] == len(CONTROLS)
                se = controls[row].std(ddof=1) / math.sqrt(config.n_paths)
                assert abs(means[row]) < 3.0 * se

    @pytest.mark.parametrize("rho", [-0.8, 0.0])
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_controls_cut_the_se_and_keep_the_mean(self, rho, estimator):
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, rho, 0.1)
        config = McConfig(n_paths=50_000, seed=29, estimator=estimator)
        (funcs,) = simulate_functionals(grid, params, config)
        if estimator == "direct_euler":
            plain = plain_direct_price(funcs, params, 0.0, 0.0)
        else:
            plain = plain_mean(mixing_values(funcs, rho, 0.0, 0.0, 1.0)[0])
        est = strike_pricer(funcs, params, 0.0, 1.0)(0.0)
        assert est.std_error * 1.5 <= plain.std_error
        assert abs(est.value - plain.value) < 3.0 * plain.std_error

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_unit_correlation_prices_intrinsic_values(self, rho):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, NU, rho, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=20_000, seed=3))
        x_hat = rho * funcs.int_sigma_dw - 0.5 * funcs.integrated_variance
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        for k in (-0.05, 0.0, 0.05):
            intrinsic = np.maximum(np.exp(x_hat) - math.exp(k), 0.0)
            expected = regression_estimate(intrinsic, np.exp(x_hat), 0.0, funcs, rho)
            assert pricer(k).value == pytest.approx(expected.value, rel=1e-12)
            # a point mass: the slope is -e^k on the paths in the money
            in_money = -math.exp(k) * (np.exp(x_hat) > math.exp(k))
            slope = regression_estimate(in_money, np.exp(x_hat), 0.0, funcs, rho)
            assert pricer(k).slope == pytest.approx(slope.value, rel=1e-12)
            assert pricer(k).slope_se == pytest.approx(slope.std_error, rel=1e-9)

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_unit_correlation_estimators_price_one_law(self, rho):
        # at |rho| = 1, v = 0 and the Euler draw x_hat - v/2 + sqrt(v) z is
        # exactly x_hat, so both estimators price the same intrinsic
        # values bit for bit
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, NU, rho, 0.3)
        config = McConfig(n_paths=20_000, seed=5, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        mixing = strike_pricer(
            replace(funcs, independent_normal=None), params, 0.0, 1.0
        )
        direct = strike_pricer(funcs, params, 0.0, 1.0)
        for k in (-0.05, 0.0, 0.05):
            assert mixing(k) == direct(k)

    @pytest.mark.parametrize("n_paths", [1, 2])
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_tiny_batches_price(self, n_paths, estimator):
        # two paths leave the controls' Gram matrix singular and the
        # regression no degree of freedom: the fit would pass through both
        # paths and report an SE of rounding, so the plain estimate stands
        grid = TimeGrid(1.0, 16)
        params = ModelParams(SIGMA0, NU, -0.8, 0.1)
        config = McConfig(n_paths=n_paths, seed=1, estimator=estimator)
        (funcs,) = simulate_functionals(grid, params, config)
        if estimator == "direct_euler":
            # below every terminal spot, so no payoff is zero and the plain
            # SE at two paths is positive whatever the draw
            k = float(euler_log_return(funcs, params.rho).min()) - 0.1
            plain = plain_direct_price(funcs, params, 0.0, k)
        else:
            k = 0.0
            plain = plain_mean(mixing_values(funcs, params.rho, 0.0, k, 1.0)[0])
        est = strike_pricer(funcs, params, 0.0, 1.0)(k)
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
        # the Y control needs the exact E[Y], so functionals cannot be
        # built without it: a tile's bare arrays are no PathFunctionals
        grid = TimeGrid(1.0, 8)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        batch = sample_paths(grid, kernel_weights(grid, 0.3), 64, seed=1)
        y, ito = path_functionals(vol_paths(batch, params, grid), batch, grid)
        with pytest.raises(TypeError, match="integrated_variance_mean"):
            PathFunctionals(integrated_variance=y, int_sigma_dw=ito)


class TestSwapStrikes:
    def test_zero_nu_vol_swap_exact(self):
        # the Y control is constant and dropped; at rho != 0 the spot
        # control stays live and must not move a constant swap leg
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, 0.0, 0.0, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=100, seed=14))
        for rho in (-0.5, 0.0):
            est = swap_leg(funcs, replace(params, rho=rho), 1.0)
            assert est.value == pytest.approx(SIGMA0, abs=1e-12)
            assert est.std_error <= 1e-12
        var_est = plain_mean(funcs.integrated_variance / 1.0)
        assert var_est.value == pytest.approx(SIGMA0**2, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.8, 0.0])
    def test_swap_leg_rides_the_price_regression(self, funcs_h05, rho):
        # the swap leg goes through the same controls as the price, and
        # swap_cov is the two residuals' cross-product per degree of
        # freedom and path
        grid, _, funcs = funcs_h05
        params = ModelParams(SIGMA0, NU, rho, 0.5)
        pricer = strike_pricer(funcs, params, 0.0, grid.maturity)
        spot = np.exp(mixing_values(funcs, rho, 0.0, 0.0, grid.maturity)[1])
        swap = np.sqrt(funcs.integrated_variance / grid.maturity)
        expected = regression_estimate(swap, spot, 0.0, funcs, rho)
        swap_residuals, dof = regression_residuals(swap, spot, 0.0, funcs, rho)
        n = swap.shape[0]
        for k in (-0.05, 0.0, 0.05):
            est = pricer(k)
            assert est.swap.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.swap.std_error == pytest.approx(expected.std_error, rel=1e-9)
            values = mixing_values(funcs, rho, 0.0, k, grid.maturity)[0]
            residuals = regression_residuals(values, spot, 0.0, funcs, rho)[0]
            centred = residuals - residuals.mean()
            cov = centred @ (swap_residuals - swap_residuals.mean()) / dof / n
            assert est.swap_cov == pytest.approx(cov, rel=1e-9)

    @pytest.mark.parametrize("hurst", [0.1, 0.3])
    @pytest.mark.parametrize("rho", [-0.8, 0.0])
    def test_controlled_swap_near_the_plain_mean(self, hurst, rho):
        # both estimate E[sqrt(Y/T)] on the same paths; the controls only
        # remove noise, so the two agree within the plain mean's noise
        grid = TimeGrid(1.0, 100)
        params = ModelParams(SIGMA0, NU, rho, hurst)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=50_000, seed=31))
        plain = plain_mean(np.sqrt(funcs.integrated_variance))
        controlled = swap_leg(funcs, params, 1.0)
        assert abs(controlled.value - plain.value) < 3.0 * plain.std_error
        assert controlled.std_error < plain.std_error

    def test_vol_swap_reference_h05(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = swap_leg(funcs, params, grid.maturity)
        assert abs(est.value - 0.2026) < 0.001

    def test_vol_swap_rough_h_brackets(self, funcs_h01_t3):
        # No closed form for E[sqrt(Y/T)] at rough H; bracket it instead:
        # sigma0 <= vol swap (exp term >= 1 on average after Jensen both
        # ways is not tight, so use the hard bounds) <= sqrt(E[Y/T]).
        grid, params, funcs = funcs_h01_t3
        est = swap_leg(funcs, params, grid.maturity)
        upper = math.sqrt(variance_swap_oracle(params, grid.maturity))
        assert est.value < upper
        assert est.value > 0.0
        # Cross-scheme consistency at rough H on a common coarse grid: the
        # convolution scheme must agree with the exact-law sampler.
        coarse = TimeGrid(3.0, 64)
        (conv,) = simulate_functionals(
            coarse, params, McConfig(n_paths=30_000, seed=41)
        )
        (oracle,) = simulate_functionals(
            coarse, params,
            McConfig(n_paths=30_000, seed=43, scheme="cholesky_oracle"),
        )
        a = swap_leg(conv, params, 3.0)
        b = swap_leg(oracle, params, 3.0)
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
            (funcs,) = simulate_functionals(grid, params, config)
            est = swap_leg(funcs, params, maturity)
            assert abs(est.value - target) < 0.001, maturity

    def test_variance_swap_matches_oracle(self, funcs_h05):
        grid, params, funcs = funcs_h05
        est = plain_mean(funcs.integrated_variance / grid.maturity)
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(est.value - oracle) < 3.0 * est.std_error

    def test_variance_swap_matches_oracle_rough(self, funcs_h01_t3):
        grid, params, funcs = funcs_h01_t3
        est = plain_mean(funcs.integrated_variance / grid.maturity)
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(est.value - oracle) < 3.0 * est.std_error

    def test_jensen_gap_every_run(self, funcs_h05, funcs_h01_t3):
        for grid, params, funcs in (funcs_h05, funcs_h01_t3):
            vs = plain_mean(np.sqrt(funcs.integrated_variance / grid.maturity))
            var = plain_mean(funcs.integrated_variance / grid.maturity)
            assert vs.value <= math.sqrt(var.value)


class TestBlockBuffers:
    """simulate_functionals streams every block through reused tile
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
        (funcs,) = simulate_functionals(grid, params, config)

        if scheme == "cholesky_oracle":
            law = cholesky_factor(grid, hurst)
        else:
            midpoint = scheme == "midpoint_convolution"
            law = kernel_weights(
                grid, hurst, "midpoint" if midpoint else "variance_exact"
            )
        batch = sample_paths(grid, law, n_paths, seed=19, block_size=self.BLOCK)
        vols = vol_paths(batch, params, grid)
        y, ito = path_functionals(vols, batch, grid)
        assert np.array_equal(funcs.integrated_variance, y)
        assert np.array_equal(funcs.int_sigma_dw, ito)
        if estimator == "conditional_mixing":
            assert funcs.independent_normal is None
            return
        z = block_rng(19, B_STREAM, 0).standard_normal(n_paths)
        assert np.array_equal(funcs.independent_normal, z)

    @pytest.mark.parametrize("scheme", ["convolution", "cholesky_oracle"])
    def test_matches_serial_tile_draws(self, scheme):
        # Blocks of several tiles, each taken in several vol chunks, at
        # three maturities: bit for bit the functionals of a serial draw,
        # made tile by tile on this thread into fresh arrays, with each
        # whole tile's vols at once.
        n_steps, block, hurst = 250, 2500, 0.1
        unit = TimeGrid(1.0, n_steps)
        params = ModelParams(SIGMA0, NU, -0.5, hurst)
        maturities = (0.5, 1.0, 2.0)
        n_paths = 2 * block + 700
        config = McConfig(n_paths=n_paths, seed=29, scheme=scheme, block_size=block)
        funcs = simulate_functionals(unit, params, config, maturities)

        oracle = scheme == "cholesky_oracle"
        if oracle:
            law, stream, width = cholesky_factor(unit, hurst), ORACLE_STREAM, 2 * n_steps
        else:
            law = _convolution_matrix(kernel_weights(unit, hurst))
            stream, width = W_STREAM, n_steps
        step = tile_rows(width)
        assert step < block
        tiles = []
        for b, start in enumerate(range(0, n_paths, block)):
            rng = block_rng(29, stream, b)
            block_rows = min(block, n_paths - start)
            for offset in range(0, block_rows, step):
                z = rng.standard_normal((min(step, block_rows - offset), width))
                if oracle:
                    z = _triangular_product(law, z)
                    tiles.append(GaussianPathBatch(dw=z[:, :n_steps], wh=z[:, n_steps:]))
                else:
                    dw = z * math.sqrt(unit.dt)
                    wh = _triangular_product(law, dw.copy())
                    tiles.append(GaussianPathBatch(dw=dw, wh=wh))
        for maturity, f in zip(maturities, funcs):
            scaled = replace(params, nu=NU * maturity**hurst)
            y, ito = zip(
                *(path_functionals(vol_paths(t, scaled, unit), t, unit) for t in tiles)
            )
            assert np.array_equal(f.integrated_variance, np.concatenate(y) * maturity)
            assert np.array_equal(f.int_sigma_dw, np.concatenate(ito) * math.sqrt(maturity))

    def test_an_error_stops_the_draw_helper(self, monkeypatch):
        # An error in a draw or in the vols, on the calling thread or on
        # the helper, is raised as itself, and the helper is gone; the
        # traceback holds simulate_functionals' frame all the same. The
        # workers look the functions up on fbm and volmodel at each call.
        gc.collect()
        baseline = threading.active_count()
        make_rng = fbm.block_rng
        make_vols = volmodel._vols_with_drift
        for where in ("draw", "vols"):
            for on_helper in (False, True):
                failure = FloatingPointError(f"{where}, on the helper: {on_helper}")

                def on_this_worker():
                    helper = threading.current_thread() is not threading.main_thread()
                    return helper == on_helper

                class FaultyGenerator:
                    def __init__(self, rng):
                        self.rng = rng

                    def standard_normal(self, out):
                        if on_this_worker():
                            raise failure
                        return self.rng.standard_normal(out=out)

                def faulty_vols(*args):
                    if on_this_worker():
                        raise failure
                    return make_vols(*args)

                with pytest.MonkeyPatch.context() as patch:
                    if where == "draw":
                        patch.setattr(
                            fbm, "block_rng", lambda *key: FaultyGenerator(make_rng(*key))
                        )
                    else:
                        patch.setattr(volmodel, "_vols_with_drift", faulty_vols)
                    config = McConfig(n_paths=1000, seed=1, block_size=256)
                    with pytest.raises(FloatingPointError) as info:
                        simulate_functionals(
                            TimeGrid(1.0, 24), ModelParams(SIGMA0, NU, 0.0, 0.3), config
                        )
                assert info.value is failure
                # info still holds the traceback
                assert info.tb is not None and threading.active_count() == baseline

    @pytest.mark.parametrize(
        "scheme, estimator",
        [
            ("convolution", "conditional_mixing"),
            ("convolution", "direct_euler"),
            ("cholesky_oracle", "conditional_mixing"),
        ],
        ids=["conditional_mixing", "direct_euler", "cholesky_oracle"],
    )
    def test_peak_memory_is_a_few_tile_buffers(self, scheme, estimator):
        # One full 65,536-path block at 250 steps: each of the two tile
        # workers holds a draw tile, a product tile (the convolution's wh,
        # or the oracle's dw and wh) and a quarter-tile of vols, so the
        # peak is a few tiles plus the O(n_paths) functionals (and, for
        # direct Euler, one normal per path), not the 393 MB of three
        # block-sized buffers. The oracle also holds its (2n)^2 covariance
        # and factor, where it once held the whole block's 2n normals per
        # path and their product.
        n_paths, n_steps = 65_536, 250
        grid = TimeGrid(1.0, n_steps)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(
            n_paths=n_paths, seed=23, scheme=scheme, estimator=estimator
        )
        tracemalloc.start()
        try:
            simulate_functionals(grid, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        functionals = 3 * n_paths * 8
        law = 2 * (2 * n_steps) ** 2 * 8 if scheme == "cholesky_oracle" else 0
        assert peak < 6 * TILE_BYTES + law + functionals, peak / TILE_BYTES


class TestHurstGroups:
    """One simulation of several H values draws once: each H's
    functionals are bit for bit those of a run at that H alone."""

    @pytest.mark.parametrize(
        "scheme, estimator",
        [
            ("convolution", "conditional_mixing"),
            ("midpoint_convolution", "conditional_mixing"),
            ("cholesky_oracle", "conditional_mixing"),
            ("convolution", "direct_euler"),
        ],
    )
    def test_group_equals_one_h_runs(self, scheme, estimator):
        # H = 1/2 takes the cumsum; two blocks of several tiles each
        grid = TimeGrid(1.0, 100)
        group = (0.1, 0.5, 0.3)
        maturities = (0.5, 2.0)
        params = ModelParams(SIGMA0, NU, -0.5, 0.7)
        block = 3 * tile_rows(200) + 5
        config = McConfig(
            n_paths=2 * block, seed=41, scheme=scheme, estimator=estimator,
            block_size=block,
        )
        funcs = simulate_functionals(grid, params, config, maturities, hurst=group)
        assert len(funcs) == len(group) * len(maturities)
        for h_index, hurst in enumerate(group):
            alone = simulate_functionals(
                grid, replace(params, hurst=hurst), config, maturities
            )
            for got, want in zip(funcs[2 * h_index : 2 * h_index + 2], alone):
                assert np.array_equal(got.integrated_variance, want.integrated_variance)
                assert np.array_equal(got.int_sigma_dw, want.int_sigma_dw)
                assert got.integrated_variance_mean == want.integrated_variance_mean
                if estimator == "direct_euler":
                    assert np.array_equal(got.independent_normal, want.independent_normal)
                else:
                    assert got.independent_normal is None

    def test_rejects_an_empty_group(self):
        config = McConfig(n_paths=10, seed=1)
        params = ModelParams(SIGMA0, NU, 0.0, 0.3)
        with pytest.raises(ValueError, match="hurst must be"):
            simulate_functionals(TimeGrid(1.0, 8), params, config, hurst=())
        with pytest.raises(ValueError, match="hurst must lie"):
            simulate_functionals(TimeGrid(1.0, 8), params, config, hurst=(0.3, 1.0))


class TestMaturityRescaling:
    """One unit-maturity draw read at several maturities equals a separate
    simulation on each TimeGrid(T, n) from the same normals."""

    MATURITIES = (0.05, 0.5, 2.0)
    N_STEPS = 40
    BLOCK = 256
    N_PATHS = 2 * 256 + 37

    def reference(self, maturity, params, scheme, estimator):
        """Per-maturity functionals and E[Y] built from sample_paths, with
        the scheme's law, on TimeGrid(maturity, n), the way the
        per-maturity simulation draws them."""
        grid = TimeGrid(maturity, self.N_STEPS)
        if scheme == "cholesky_oracle":
            law = cholesky_factor(grid, params.hurst)
            variance = exact_level_variance(grid, params.hurst)
        else:
            midpoint = scheme == "midpoint_convolution"
            law = kernel_weights(
                grid, params.hurst, "midpoint" if midpoint else "variance_exact"
            )
            variance = level_variance(grid, law)
        batch = sample_paths(grid, law, self.N_PATHS, seed=31, block_size=self.BLOCK)
        vols = vol_paths(batch, params, grid)
        y, ito = path_functionals(vols, batch, grid)
        arrays = {"y": y, "ito": ito}
        if estimator == "direct_euler":
            arrays["z"] = block_rng(31, B_STREAM, 0).standard_normal(self.N_PATHS)
        return arrays, integrated_variance_mean(params, grid, variance)

    def simulate(self, params, scheme, estimator):
        config = McConfig(
            n_paths=self.N_PATHS,
            seed=31,
            scheme=scheme,
            estimator=estimator,
            block_size=self.BLOCK,
        )
        grid = TimeGrid(1.0, self.N_STEPS)
        return simulate_functionals(grid, params, config, self.MATURITIES)

    @staticmethod
    def arrays(funcs):
        out = {"y": funcs.integrated_variance, "ito": funcs.int_sigma_dw}
        if funcs.independent_normal is not None:
            out["z"] = funcs.independent_normal
        return out

    @pytest.mark.parametrize(
        "hurst, scheme, tol",
        [
            (0.1, "convolution", 1e-13),
            (0.5, "convolution", 1e-13),
            (0.3, "midpoint_convolution", 1e-13),
            (0.3, "cholesky_oracle", 1e-12),
        ],
    )
    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_matches_per_maturity_simulation(self, hurst, scheme, tol, estimator):
        params = ModelParams(SIGMA0, NU, -0.5, hurst)
        per_maturity = self.simulate(params, scheme, estimator)
        assert len(per_maturity) == len(self.MATURITIES)
        for maturity, funcs in zip(self.MATURITIES, per_maturity):
            expected, mean = self.reference(maturity, params, scheme, estimator)
            got = self.arrays(funcs)
            assert got.keys() == expected.keys()
            for name, want in expected.items():
                rms = math.sqrt(np.mean(want**2))
                err = np.max(np.abs(got[name] - want))
                assert err <= tol * rms, (maturity, name, err / rms)
            assert funcs.integrated_variance_mean == pytest.approx(mean, rel=tol)

    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_oracle_at_half_agrees_in_law(self, estimator):
        # At H = 1/2 the joint covariance is singular and its jittered
        # factor differs in the last digits between maturities, so the
        # rescaled draw is checked in law: Y against its exact mean and
        # the Ito sums against zero.
        params = ModelParams(SIGMA0, NU, -0.5, 0.5)
        for maturity, funcs in zip(
            self.MATURITIES, self.simulate(params, "cholesky_oracle", estimator)
        ):
            exact = integrated_variance_mean(
                params,
                TimeGrid(maturity, self.N_STEPS),
                exact_level_variance(TimeGrid(maturity, self.N_STEPS), 0.5),
            )
            assert funcs.integrated_variance_mean == pytest.approx(exact, rel=1e-13)
            for name, values in self.arrays(funcs).items():
                target = exact if name == "y" else 0.0
                se = values.std(ddof=1) / math.sqrt(values.shape[0])
                assert abs(values.mean() - target) < 4.0 * se, (maturity, name)

    def test_one_normal_array_serves_every_maturity(self):
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        per_maturity = self.simulate(params, "convolution", "direct_euler")
        normal = per_maturity[0].independent_normal
        assert normal.shape == (self.N_PATHS,)
        assert all(f.independent_normal is normal for f in per_maturity)

    def test_rejects_bad_maturities(self):
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=10, seed=1)
        for maturities in ((), (0.5, 0.0), (math.nan,), (math.inf,)):
            with pytest.raises(ValueError, match="maturities"):
                simulate_functionals(TimeGrid(1.0, 8), params, config, maturities)


class TestDeterminism:
    def test_identical_config_identical_estimates(self):
        grid = TimeGrid(1.0, 64)
        params = ModelParams(SIGMA0, NU, -0.8, 0.3)
        config = McConfig(n_paths=5000, seed=15, estimator="direct_euler")
        (a,) = simulate_functionals(grid, params, config)
        (b,) = simulate_functionals(grid, params, config)
        assert np.array_equal(a.integrated_variance, b.integrated_variance)
        assert np.array_equal(a.int_sigma_dw, b.int_sigma_dw)
        assert np.array_equal(a.independent_normal, b.independent_normal)

    def test_se_scales_with_paths(self):
        grid = TimeGrid(1.0, 50)
        params = ModelParams(SIGMA0, NU, 0.0, 0.5)
        (small,) = simulate_functionals(grid, params, McConfig(n_paths=10_000, seed=16))
        (large,) = simulate_functionals(grid, params, McConfig(n_paths=40_000, seed=16))
        se_small = swap_leg(small, params, 1.0).std_error
        se_large = swap_leg(large, params, 1.0).std_error
        # Quadrupling the paths should halve the SE, within sampling slack.
        assert se_large == pytest.approx(se_small / 2.0, rel=0.15)

    def test_cholesky_scheme_end_to_end(self):
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, 0.0, 0.3)
        config = McConfig(n_paths=20_000, seed=17, scheme="cholesky_oracle")
        (funcs,) = simulate_functionals(grid, params, config)
        est = swap_leg(funcs, params, 1.0)
        (conv,) = simulate_functionals(
            grid, params, McConfig(n_paths=20_000, seed=18)
        )
        conv_est = swap_leg(conv, params, 1.0)
        assert abs(est.value - conv_est.value) < 3.0 * combined_se(est, conv_est)


class TestStrikePricer:
    def test_conditional_closure_matches_direct_call(self, funcs_h05):
        # The mixing formula and the regression on CONTROLS written out:
        # shifted spot, reduced vol, at a correlation the rho-free
        # functionals were not simulated with.
        grid, _, funcs = funcs_h05
        params = ModelParams(SIGMA0, NU, -0.5, 0.5)
        pricer = strike_pricer(funcs, params, 0.0, grid.maturity)
        for k in (-0.05, 0.0, 0.05):
            values, x_hat = mixing_values(funcs, params.rho, 0.0, k, grid.maturity)
            spot = np.exp(x_hat)
            expected = regression_estimate(values, spot, 0.0, funcs, params.rho)
            est = pricer(k)
            assert est.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.std_error == pytest.approx(expected.std_error, rel=1e-9)
            assert est.n_paths == expected.n_paths

    def test_direct_closure_matches_regression(self):
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=20_000, seed=37, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        spot = np.exp(euler_log_return(funcs, params.rho))
        for k in (-0.05, 0.0, 0.05):
            payoff = np.maximum(spot - math.exp(k), 0.0)
            expected = regression_estimate(payoff, spot, 0.0, funcs, params.rho)
            est = pricer(k)
            assert est.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.std_error == pytest.approx(expected.std_error, rel=1e-9)

    def test_direct_functionals_price_as_a_point_mass(self):
        # the estimator is chosen at simulation: functionals that carry
        # int sigma dB price as the Euler point mass with no further
        # argument, bit for bit the regression on its intrinsic values
        grid = TimeGrid(1.0, 16)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=4_000, seed=36, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        spot = np.exp(0.0 + euler_log_return(funcs, params.rho))
        out = np.empty((2 * len(CONTROLS), funcs.n_paths))
        bound = _bind_controls(spot, 0.0, params.rho, funcs, out)
        for k in (-0.05, 0.0, 0.05):
            ek = math.exp(k)
            payoff = np.maximum(spot - ek, 0.0)
            (price, slope), cov, _ = _regress([payoff, -ek * (spot > ek)], *bound)
            est = pricer(k)
            assert (est.value, est.std_error) == (price.value, price.std_error)
            assert (est.slope, est.slope_se) == (slope.value, slope.std_error)
            assert est.cov == cov[0, 1]

    def test_mixing_slope_is_the_derivative_of_the_controlled_price(self):
        # The controlled price is w @ v(k) with strike-free weights w, so
        # a central difference differs from the slope w @ v'(k) by at most
        # h^2 / 6 sum |w_i| max |v_i^(3)|. Per path, with s the conditional
        # total vol, v^(3) = -e^k N(d2) + 2 e^k phi(d2) / s + e^k d2 phi(d2) / s^2,
        # so |v^(3)| <= e^k (1 + 2 phi(0) / s + max|d phi(d)| / s^2).
        # Rounding adds at most 64 ulps of a price below 1 over h.
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        (funcs,) = simulate_functionals(grid, params, McConfig(n_paths=20_000, seed=38))
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        x_hat = mixing_values(funcs, params.rho, 0.0, 0.0, 1.0)[1]
        weights = np.abs(control_weights(np.exp(x_hat), 0.0, funcs, params.rho)).sum()
        s_min = math.sqrt((1.0 - params.rho**2) * funcs.integrated_variance.min())
        h = 1e-4
        for k in (-0.05, 0.0, 0.05):
            third = math.exp(k + h) * (
                1.0 + 2.0 * 0.3989423 / s_min + 0.2419708 / s_min**2
            )
            tol = h * h / 6.0 * weights * third + 64 * np.finfo(float).eps / h
            difference = (pricer(k + h).value - pricer(k - h).value) / (2.0 * h)
            assert abs(pricer(k).slope - difference) <= tol

    def test_euler_slope_is_the_derivative_of_the_controlled_price(self):
        # Per path the payoff is (S - e^k)+, so off the kinks a central
        # difference gives -e^k sinh(h) / h on the paths in the money: it
        # differs from the slope by at most e^k (sinh(h) / h - 1) sum |w_i|.
        # A path with log S within h of k adds at most 2 e^(k+h) |w_i|; a
        # step this short leaves few such paths, if any.
        grid = TimeGrid(1.0, 32)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=20_000, seed=39, estimator="direct_euler")
        (funcs,) = simulate_functionals(grid, params, config)
        pricer = strike_pricer(funcs, params, 0.0, 1.0)
        log_spot = euler_log_return(funcs, params.rho)
        weights = np.abs(control_weights(np.exp(log_spot), 0.0, funcs, params.rho))
        h = 1e-7
        for k in (-0.05, 0.0, 0.05):
            kinks = weights[np.abs(log_spot - k) <= h].sum()
            tol = (
                math.exp(k) * (math.sinh(h) / h - 1.0) * weights.sum()
                + 2.0 * math.exp(k + h) * kinks
                + 64 * np.finfo(float).eps / h
            )
            difference = (pricer(k + h).value - pricer(k - h).value) / (2.0 * h)
            assert abs(pricer(k).slope - difference) <= tol

    def test_slope_rides_the_price_regression(self, funcs_h05):
        # the slope row goes through the same controls as the price
        grid, _, funcs = funcs_h05
        params = ModelParams(SIGMA0, NU, -0.5, 0.5)
        pricer = strike_pricer(funcs, params, 0.0, grid.maturity)
        x_hat = mixing_values(funcs, params.rho, 0.0, 0.0, grid.maturity)[1]
        cond_vol = np.sqrt((1.0 - params.rho**2) * funcs.integrated_variance)
        for k in (-0.05, 0.0, 0.05):
            d_2 = (x_hat - k) / cond_vol - 0.5 * cond_vol
            slope = -math.exp(k) * ndtr(d_2)
            expected = regression_estimate(slope, np.exp(x_hat), 0.0, funcs, params.rho)
            est = pricer(k)
            assert est.slope == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert est.slope_se == pytest.approx(expected.std_error, rel=1e-9)


class TestPricerWorkspace:
    @pytest.mark.parametrize(
        "estimator, rho",
        [
            ("conditional_mixing", -0.6),
            ("direct_euler", -0.6),
            # the intrinsic closure of the mixing point mass
            ("conditional_mixing", 1.0),
        ],
    )
    def test_rebinding_matches_a_fresh_pricer(self, estimator, rho):
        # a workspace that last held another maturity and rho leaves
        # nothing behind: every estimate equals a fresh pricer's bit for bit
        grid = TimeGrid(1.0, 16)
        params = ModelParams(SIGMA0, NU, rho, 0.3)
        config = McConfig(n_paths=4_096, seed=41, estimator=estimator)
        short, long = simulate_functionals(grid, params, config, (0.5, 2.0))
        out = pricer_workspace(long)
        previous = strike_pricer(long, replace(params, rho=0.3), 0.0, 2.0, out=out)
        previous(-0.1)
        rebound = strike_pricer(short, params, 0.0, 0.5, out=out)
        fresh = strike_pricer(short, params, 0.0, 0.5)
        for k in (-0.05, 0.0, 0.05):
            assert rebound(k) == fresh(k)

    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    @pytest.mark.parametrize("layout", ["paths", "rows", "dtype", "order"])
    def test_rejects_a_workspace_of_another_layout(self, estimator, layout):
        grid = TimeGrid(1.0, 8)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=256, seed=3, estimator=estimator)
        (funcs,) = simulate_functionals(grid, params, config)
        rows, n_paths = pricer_workspace(funcs).shape
        out = {
            "paths": lambda: np.empty((rows, n_paths + 1)),
            "rows": lambda: np.empty((rows - 1, n_paths)),
            "dtype": lambda: np.empty((rows, n_paths), dtype=np.float32),
            "order": lambda: np.empty((rows, n_paths), order="F"),
        }[layout]()
        with pytest.raises(ValueError, match="out must be"):
            strike_pricer(funcs, params, 0.0, 1.0, out=out)

    def test_both_laws_share_one_layout(self):
        # direct Euler draws its spot from the log spot and total vol rows
        # that mixing prices on, so both need the same rows
        grid = TimeGrid(1.0, 8)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        shapes = [
            pricer_workspace(
                simulate_functionals(grid, params, McConfig(256, 3, estimator=e))[0]
            ).shape
            for e in ("conditional_mixing", "direct_euler")
        ]
        assert shapes == [(6 + len(CONTROLS), 256)] * 2

    @pytest.mark.parametrize("estimator", ["conditional_mixing", "direct_euler"])
    def test_binding_and_pricing_allocate_no_path_array(self, estimator):
        grid = TimeGrid(1.0, 8)
        params = ModelParams(SIGMA0, NU, -0.5, 0.3)
        config = McConfig(n_paths=20_000, seed=43, estimator=estimator)
        (funcs,) = simulate_functionals(grid, params, config)
        out = pricer_workspace(funcs)
        strike_pricer(funcs, params, 0.0, 1.0, out=out)(0.0)
        tracemalloc.start()
        try:
            pricer = strike_pricer(funcs, params, 0.0, 1.0, out=out)
            for k in (-0.05, 0.0, 0.05):
                pricer(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * config.n_paths
