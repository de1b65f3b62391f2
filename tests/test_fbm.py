"""Tests for the fractional Brownian motion sampler."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.stats import ks_2samp

from fracvol.fbm import (
    W_STREAM,
    GaussianPathBatch,
    TimeGrid,
    _joint_covariance,
    block_rng,
    cholesky_oracle,
    exact_level_variance,
    iter_path_blocks,
    kernel_weights,
    level_variance,
    sample_paths,
)

HURSTS = st.floats(0.05, 0.95)


def cell_second_moment_oracle(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Independent per-cell oracle: int over [t_j, t_{j+1}] of
    (t_n - r)^(2H-1) dr, by adaptive quadrature, for j = 0..n-1."""
    t = grid.times
    t_n = grid.maturity
    out = np.empty(grid.n_steps)
    for j in range(grid.n_steps):
        if j < grid.n_steps - 1:
            val, _ = quad(lambda r: (t_n - r) ** (2 * hurst - 1), t[j], t[j + 1])
        else:
            # Last cell: integrable singularity at r = t_n for H < 1/2.
            val, _ = quad(
                lambda r: 1.0,
                t[j],
                t[j + 1],
                weight="alg",
                wvar=(0.0, 2 * hurst - 1.0),
            )
        out[j] = val
    return out


class TestTimeGrid:
    @pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_maturity_not_positive_and_finite(self, maturity):
        with pytest.raises(ValueError, match="^maturity"):
            TimeGrid(maturity, 10)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="^n_steps"):
            TimeGrid(1.0, 0)


class TestKernelWeights:
    def test_h_half_weights_are_exactly_one(self):
        w = kernel_weights(TimeGrid(2.0, 100), 0.5)
        assert np.all(w.weights == 1.0)

    def test_single_step_variance(self):
        # One cell over [0, 1] at H=0.1: b0^2 * dt = 1 / (2H) = 5.
        w = kernel_weights(TimeGrid(1.0, 1), 0.1)
        assert w.weights[0] ** 2 * 1.0 == pytest.approx(5.0, abs=1e-14)

    def test_total_variance_h03(self):
        grid = TimeGrid(1.0, 4)
        w = kernel_weights(grid, 0.3)
        total = np.sum(w.weights**2) * grid.dt
        assert total == pytest.approx(1.0 / 0.6, abs=1e-12)

    def test_per_cell_second_moment_matches_quadrature(self):
        # Weight at lag m carries the cell second moment of the kernel;
        # cell j of the final-time integral sits at lag n-1-j.
        grid = TimeGrid(2.0, 8)
        for hurst in (0.1, 0.3, 0.7, 0.9):
            w = kernel_weights(grid, hurst)
            per_cell = (w.weights[::-1] ** 2) * grid.dt
            oracle = cell_second_moment_oracle(grid, hurst)
            np.testing.assert_allclose(per_cell, oracle, rtol=1e-9)

    def test_variance_matching_every_grid_point(self):
        for hurst in (0.1, 0.3, 0.5, 0.7, 0.9):
            grid = TimeGrid(3.0, 250)
            w = kernel_weights(grid, hurst)
            cum = np.cumsum(w.weights**2) * grid.dt
            target = grid.times[1:] ** (2 * hurst) / (2 * hurst)
            assert np.max(np.abs(cum - target)) < 1e-12

    def test_weights_nonnegative_and_decreasing_for_rough_h(self):
        w = kernel_weights(TimeGrid(1.0, 50), 0.2)
        assert np.all(w.weights >= 0.0)
        assert np.all(np.diff(w.weights[1:]) <= 0.0)

    @given(hurst=HURSTS, n_steps=st.integers(1, 300), maturity=st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_variance_matching_property(self, hurst, n_steps, maturity):
        grid = TimeGrid(maturity, n_steps)
        w = kernel_weights(grid, hurst)
        cum = np.cumsum(w.weights**2) * grid.dt
        target = grid.times[1:] ** (2 * hurst) / (2 * hurst)
        np.testing.assert_allclose(cum, target, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_hurst_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            kernel_weights(TimeGrid(1.0, 10), bad)


class TestConvolution:
    def test_matches_per_row_convolve(self):
        # The Toeplitz product must equal an independent causal
        # convolution of each path's increments with the kernel weights.
        for n_steps in (64, 250):
            grid = TimeGrid(1.0, n_steps)
            w = kernel_weights(grid, 0.3)
            batch = sample_paths(grid, w, 64, seed=7)
            expected = np.array(
                [np.convolve(row, w.weights)[:n_steps] for row in batch.dw]
            )
            np.testing.assert_allclose(batch.wh, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("evaluation", ["variance_exact", "midpoint"])
    def test_level_variance_matches_sampled_levels(self, evaluation):
        # H = 0.1 on 10 steps: the midpoint levels fall well short of
        # t^{2H} / (2H), so the per-point variances must follow the weights
        grid = TimeGrid(1.0, 10)
        w = kernel_weights(grid, 0.1, evaluation)
        variance = level_variance(grid, w)
        assert variance[0] == 0.0
        batch = sample_paths(grid, w, 100_000, seed=11)
        sample = batch.wh[:, :-1].var(axis=0, ddof=1)
        se = variance[1:] * math.sqrt(2.0 / batch.n_paths)
        assert np.all(np.abs(sample - variance[1:]) < 4.0 * se)
        exact = exact_level_variance(grid, 0.1)
        if evaluation == "variance_exact":
            np.testing.assert_allclose(variance, exact, rtol=1e-12, atol=0.0)
        else:
            assert np.all(variance[1:] < exact[1:] - 4.0 * se)


class TestSamplePaths:
    def test_h_half_is_bitwise_cumsum(self):
        grid = TimeGrid(1.0, 250)
        w = kernel_weights(grid, 0.5)
        batch = sample_paths(grid, w, 500, seed=11)
        assert np.array_equal(batch.wh, np.cumsum(batch.dw, axis=1))

    def test_increment_distribution(self):
        grid = TimeGrid(2.0, 50)
        w = kernel_weights(grid, 0.3)
        batch = sample_paths(grid, w, 50_000, seed=3)
        var = batch.dw.var(axis=0)
        se = grid.dt * math.sqrt(2.0 / batch.n_paths)
        assert np.all(np.abs(var - grid.dt) < 4.0 * se)

    def test_terminal_variance_within_3se(self):
        grid = TimeGrid(1.0, 250)
        w = kernel_weights(grid, 0.3)
        batch = sample_paths(grid, w, 100_000, seed=5)
        target = 1.0 / 0.6
        sample_var = batch.wh[:, -1].var(ddof=1)
        se = target * math.sqrt(2.0 / batch.n_paths)
        assert abs(sample_var - target) < 3.0 * se

    def test_terminal_cross_covariance_within_3se(self):
        grid = TimeGrid(1.0, 250)
        w = kernel_weights(grid, 0.3)
        batch = sample_paths(grid, w, 100_000, seed=5)
        w_t = batch.dw.sum(axis=1)
        wh_t = batch.wh[:, -1]
        sample_cov = np.cov(wh_t, w_t, ddof=1)[0, 1]
        target = 1.0 / 0.8  # T^{H+1/2} / (H+1/2) at T=1, H=0.3
        var_wh = 1.0 / 0.6
        se = math.sqrt((var_wh * 1.0 + target**2) / batch.n_paths)
        assert abs(sample_cov - target) < 3.0 * se

    def test_deterministic_given_seed_and_blocking(self):
        grid = TimeGrid(1.0, 64)
        w = kernel_weights(grid, 0.2)
        a = sample_paths(grid, w, 1000, seed=9, block_size=128)
        b = sample_paths(grid, w, 1000, seed=9, block_size=128)
        assert np.array_equal(a.dw, b.dw) and np.array_equal(a.wh, b.wh)

    def test_streaming_matches_materialized(self):
        grid = TimeGrid(1.0, 64)
        w = kernel_weights(grid, 0.2)
        full = sample_paths(grid, w, 1000, seed=9, block_size=256)
        row = 0
        for idx, blk in iter_path_blocks(grid, w, 1000, seed=9, block_size=256):
            assert np.array_equal(full.dw[row : row + blk.n_paths], blk.dw)
            assert np.array_equal(full.wh[row : row + blk.n_paths], blk.wh)
            row += blk.n_paths
        assert row == 1000

    @pytest.mark.parametrize("hurst", [0.2, 0.5])
    def test_reused_buffers_match_fresh_blocks(self, hurst):
        # Every block, partial last one included, is written in place into
        # the same two buffers and equals a fresh allocating draw: normals
        # times sqrt(dt), then the Toeplitz product (or cumsum at H = 1/2),
        # bit for bit.
        grid = TimeGrid(1.0, 48)
        w = kernel_weights(grid, hurst)
        blocks = iter_path_blocks(grid, w, 1000, seed=9, block_size=256)
        first = None
        n_blocks = 0
        for idx, blk in blocks:
            if first is None:
                first = blk
            assert np.shares_memory(blk.dw, first.dw)
            assert np.shares_memory(blk.wh, first.wh)
            rows = min(256, 1000 - idx * 256)
            dw = block_rng(9, W_STREAM, idx).standard_normal((rows, 48)) * math.sqrt(grid.dt)
            if hurst == 0.5:
                wh = np.cumsum(dw, axis=1)
            else:
                wh = dw @ toeplitz(w.weights, np.zeros(48)).T
            assert np.array_equal(blk.dw, dw) and np.array_equal(blk.wh, wh)
            n_blocks += 1
        assert n_blocks == 4

    @pytest.mark.parametrize(
        "n_paths,block_size,steps", [(0, 128, 16), (10, 0, 16), (10, 128, 32)]
    )
    def test_checks_arguments_at_the_call(self, n_paths, block_size, steps):
        w = kernel_weights(TimeGrid(1.0, 16), 0.3)
        with pytest.raises(ValueError):
            iter_path_blocks(
                TimeGrid(1.0, steps), w, n_paths, seed=0, block_size=block_size
            )

    def test_blocks_are_order_independent(self):
        # Drawing block 2 alone gives the same rows as drawing all blocks;
        # yielded blocks share buffers, so the kept ones are copies.
        grid = TimeGrid(1.0, 32)
        w = kernel_weights(grid, 0.4)
        blocks = {
            i: blk.dw.copy()
            for i, blk in iter_path_blocks(grid, w, 900, seed=21, block_size=300)
        }
        only_last = [
            blk.dw.copy()
            for i, blk in iter_path_blocks(grid, w, 900, seed=21, block_size=300)
            if i == 2
        ]
        assert np.array_equal(blocks[2], only_last[0])
        assert not np.array_equal(blocks[0], blocks[2])

    def test_rejects_mismatched_weights(self):
        w = kernel_weights(TimeGrid(1.0, 16), 0.3)
        with pytest.raises(ValueError):
            sample_paths(TimeGrid(1.0, 32), w, 10, seed=0)


class TestCholeskyOracle:
    def test_h_half_covariance_is_brownian(self):
        grid = TimeGrid(1.0, 8)
        cov = _joint_covariance(grid, 0.5)
        t = grid.times[1:]
        brownian = np.minimum.outer(t, t)
        n = grid.n_steps
        for block in (cov[:n, :n], cov[:n, n:], cov[n:, :n], cov[n:, n:]):
            np.testing.assert_allclose(block, brownian, atol=1e-10)

    def test_marginal_variance_from_covariance(self):
        grid = TimeGrid(2.0, 16)
        for hurst in (0.1, 0.3, 0.7):
            cov = _joint_covariance(grid, hurst)
            t = grid.times[1:]
            np.testing.assert_allclose(
                np.diag(cov)[grid.n_steps :], t ** (2 * hurst) / (2 * hurst),
                atol=1e-10,
            )

    def test_oracle_sample_moments(self):
        grid = TimeGrid(1.0, 32)
        batch = cholesky_oracle(grid, 0.3, 20_000, seed=17)
        var = batch.wh[:, -1].var(ddof=1)
        target = 1.0 / 0.6
        assert abs(var - target) < 3.0 * target * math.sqrt(2.0 / batch.n_paths)
        dw_var = batch.dw.var(axis=0)
        se = grid.dt * math.sqrt(2.0 / batch.n_paths)
        assert np.all(np.abs(dw_var - grid.dt) < 4.0 * se)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7])
    def test_ks_against_convolution_scheme(self, hurst):
        grid = TimeGrid(1.0, 64)
        w = kernel_weights(grid, hurst)
        conv = sample_paths(grid, w, 10_000, seed=23)
        oracle = cholesky_oracle(grid, hurst, 10_000, seed=29)
        stat = ks_2samp(conv.wh[:, -1], oracle.wh[:, -1])
        assert stat.pvalue > 0.01

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            cholesky_oracle(TimeGrid(1.0, 4096), 0.3, 10, seed=0)


class TestBatchValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianPathBatch(dw=np.zeros((2, 3)), wh=np.zeros((2, 4)))
