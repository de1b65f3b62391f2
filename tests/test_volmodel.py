"""Tests for volatility paths and path functionals."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracvol.fbm import TimeGrid, kernel_weights, sample_paths
from fracvol.volmodel import (
    ModelParams,
    PathFunctionals,
    integrated_variance_mean,
    path_functionals,
    variance_swap_oracle,
    vol_paths,
)

# Analytic value of (sigma0^2 / T) * int_0^T exp(nu^2 s) ds at
# sigma0=0.2, nu=0.4, T=1 (H=0.5): 0.04 * (e^0.16 - 1) / 0.16.
VAR_SWAP_H05 = 0.04337771774795256


def make_batch(hurst, maturity=1.0, n_steps=250, n_paths=100_000, seed=5):
    grid = TimeGrid(maturity, n_steps)
    w = kernel_weights(grid, hurst)
    return grid, sample_paths(grid, w, n_paths, seed=seed)


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(sigma0=0.2, nu=0.4, rho=-0.8, hurst=0.3)
        assert p.sigma0 == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma0=0.0, nu=0.4, rho=0.0, hurst=0.3),
            dict(sigma0=0.2, nu=-0.1, rho=0.0, hurst=0.3),
            dict(sigma0=0.2, nu=0.4, rho=-1.5, hurst=0.3),
            dict(sigma0=0.2, nu=0.4, rho=0.0, hurst=1.0),
            dict(sigma0=math.inf, nu=0.4, rho=0.0, hurst=0.5),
            dict(sigma0=0.2, nu=math.nan, rho=0.0, hurst=0.5),
            dict(sigma0=0.2, nu=math.inf, rho=0.0, hurst=0.5),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestVolPaths:
    def test_zero_nu_gives_constant_vol(self):
        grid, batch = make_batch(0.3, n_paths=100, seed=1)
        params = ModelParams(sigma0=0.2, nu=0.0, rho=0.0, hurst=0.3)
        vols = vol_paths(batch, params, grid)
        assert np.all(vols == 0.2)

    def test_first_column_is_sigma0(self):
        grid, batch = make_batch(0.3, n_paths=100, seed=1)
        params = ModelParams(sigma0=0.25, nu=0.4, rho=0.0, hurst=0.3)
        vols = vol_paths(batch, params, grid)
        assert np.all(vols[:, 0] == 0.25)

    def test_positive_everywhere(self):
        grid, batch = make_batch(0.1, n_paths=5_000, seed=2)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.1)
        assert np.all(vol_paths(batch, params, grid) > 0.0)

    def test_mean_matching_at_terminal_left_point(self):
        grid, batch = make_batch(0.3)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.3)
        vols = vol_paths(batch, params, grid)
        last = vols[:, -1]
        se = last.std(ddof=1) / math.sqrt(last.shape[0])
        assert abs(last.mean() - 0.2) < 3.0 * se

    def test_mean_matching_every_grid_point(self):
        grid, batch = make_batch(0.3, n_paths=100_000, seed=8)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.3)
        vols = vol_paths(batch, params, grid)
        means = vols.mean(axis=0)
        ses = vols.std(axis=0, ddof=1) / math.sqrt(vols.shape[0])
        # Column 0 is deterministic (se ~ 0); the absolute floor covers
        # np.mean's summation rounding over 1e5 identical entries.
        assert np.all(np.abs(means - 0.2) <= 3.0 * ses + 1e-12)

    def test_second_moment_matches_lognormal_formula(self):
        for hurst in (0.1, 0.5, 0.9):
            grid, batch = make_batch(hurst, seed=13)
            params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=hurst)
            vols = vol_paths(batch, params, grid)
            sq = np.square(vols[:, -1])
            t_last = grid.times[-2]
            target = 0.04 * math.exp(0.16 * t_last ** (2 * hurst) / (2 * hurst))
            se = sq.std(ddof=1) / math.sqrt(sq.shape[0])
            assert abs(sq.mean() - target) < 3.0 * se

    def test_rho_does_not_enter(self):
        grid, batch = make_batch(0.3, n_paths=100, seed=1)
        a = vol_paths(batch, ModelParams(0.2, 0.4, 0.0, 0.3), grid)
        b = vol_paths(batch, ModelParams(0.2, 0.4, -0.8, 0.3), grid)
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        grid, batch = make_batch(0.3, n_paths=10, seed=1)
        params = ModelParams(0.2, 0.4, 0.0, 0.3)
        with pytest.raises(ValueError):
            vol_paths(batch, params, TimeGrid(1.0, grid.n_steps + 1))
        with pytest.raises(ValueError, match="^out has shape"):
            vol_paths(batch, params, grid, out=np.empty((10, grid.n_steps + 1)))


class TestPathFunctionals:
    def test_zero_nu_closed_forms(self):
        grid, batch = make_batch(0.3, n_paths=500, seed=3)
        params = ModelParams(sigma0=0.2, nu=0.0, rho=0.0, hurst=0.3)
        vols = vol_paths(batch, params, grid)
        y, ito = path_functionals(vols, batch, grid)
        np.testing.assert_allclose(y, 0.04 * grid.maturity, rtol=1e-12)
        np.testing.assert_allclose(ito, 0.2 * batch.dw.sum(axis=1), rtol=1e-12)

    def test_ito_integral_mean_zero(self):
        grid, batch = make_batch(0.3)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.3)
        _, ito = path_functionals(vol_paths(batch, params, grid), batch, grid)
        se = ito.std(ddof=1) / math.sqrt(ito.shape[0])
        assert abs(ito.mean()) < 3.0 * se

    def test_mean_integrated_variance_matches_oracle(self):
        grid, batch = make_batch(0.5)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.5)
        y, _ = path_functionals(vol_paths(batch, params, grid), batch, grid)
        vswap = y / grid.maturity
        se = vswap.std(ddof=1) / math.sqrt(vswap.shape[0])
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(vswap.mean() - oracle) < 3.0 * se

    def test_mean_integrated_variance_rough_case(self):
        grid, batch = make_batch(0.1)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.1)
        y, _ = path_functionals(vol_paths(batch, params, grid), batch, grid)
        vswap = y / grid.maturity
        se = vswap.std(ddof=1) / math.sqrt(vswap.shape[0])
        oracle = variance_swap_oracle(params, grid.maturity)
        assert abs(vswap.mean() - oracle) < 3.0 * se

    def test_shape_mismatch_rejected(self):
        grid, batch = make_batch(0.3, n_paths=10, seed=1)
        vols = np.full((10, grid.n_steps + 1), 0.2)
        with pytest.raises(ValueError):
            path_functionals(vols, batch, grid)
        vols = np.full((10, grid.n_steps), 0.2)
        with pytest.raises(ValueError, match="grid"):
            path_functionals(vols, batch, TimeGrid(1.0, grid.n_steps + 1))

    def test_mean_of_y_needs_one_variance_per_left_point(self):
        grid = TimeGrid(1.0, 8)
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.3)
        with pytest.raises(ValueError, match="level_variance"):
            integrated_variance_mean(params, grid, np.ones(grid.n_steps + 1))

    def test_functionals_validation(self):
        with pytest.raises(ValueError):
            PathFunctionals(
                integrated_variance=np.array([0.1, -0.2]),
                int_sigma_dw=np.array([0.0, 0.0]),
                integrated_variance_mean=0.1,
            )
        y = np.array([0.1, 0.2])
        for ito, normal in ((np.zeros(3), None), (np.zeros(2), np.zeros(3))):
            with pytest.raises(ValueError, match="identical shapes"):
                PathFunctionals(y, ito, 0.1, independent_normal=normal)


class TestVarianceSwapOracle:
    def test_zero_nu(self):
        params = ModelParams(sigma0=0.2, nu=0.0, rho=0.0, hurst=0.3)
        assert variance_swap_oracle(params, 2.0) == 0.2**2

    def test_h_half_analytic(self):
        # At H = 1/2 the integral is elementary: (e^{nu^2 T} - 1) / (nu^2 T).
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.5)
        assert variance_swap_oracle(params, 1.0) == pytest.approx(
            VAR_SWAP_H05, rel=1e-10
        )

    @pytest.mark.parametrize("hurst", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    @pytest.mark.parametrize("nu", [0.1, 0.4, 1.0])
    def test_matches_quadrature(self, hurst, nu):
        # the time average of E[sigma_s^2] by adaptive quadrature
        params = ModelParams(sigma0=0.2, nu=nu, rho=0.0, hurst=hurst)
        for maturity in (0.1, 1.0, 3.0):
            integral, _ = quad(
                lambda s: np.exp(nu**2 * s ** (2 * hurst) / (2 * hurst)),
                0.0,
                maturity,
                epsabs=0.0,
                epsrel=1e-13,
                limit=200,
            )
            assert variance_swap_oracle(params, maturity) == pytest.approx(
                0.2**2 * integral / maturity, rel=1e-10
            )

    def test_rejects_maturity_not_positive_and_finite(self):
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.3)
        for maturity in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"maturity .* got {maturity}"):
                variance_swap_oracle(params, maturity)

    def test_monotone_in_maturity(self):
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.1)
        strikes = [variance_swap_oracle(params, t) for t in (0.25, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(strikes, strikes[1:]))

    @given(
        hurst=st.floats(0.05, 0.95),
        nu=st.floats(0.0, 1.0),
        maturity=st.floats(0.1, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_below_by_spot_variance(self, hurst, nu, maturity):
        # exp(...) >= 1 pointwise, so the strike is at least sigma0^2.
        params = ModelParams(sigma0=0.2, nu=nu, rho=0.0, hurst=hurst)
        assert variance_swap_oracle(params, maturity) >= 0.04 - 1e-15
