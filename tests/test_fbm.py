"""Tests for the fractional Brownian motion sampler."""
import gc
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.linalg.blas import dtrmm
from scipy.stats import ks_2samp

from fracvol import fbm
from fracvol.fbm import (
    ORACLE_STREAM,
    W_STREAM,
    GaussianPathBatch,
    TimeGrid,
    _cholesky_with_jitter,
    _convolution_matrix,
    _joint_covariance,
    _rl_auto_cov,
    _rl_cross_cov,
    _triangular_product,
    block_rng,
    cholesky_factor,
    exact_level_variance,
    for_each_tile,
    iter_path_blocks,
    kernel_weights,
    level_variance,
    sample_paths,
    tile_rows,
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


def rl_auto_cov_quadrature(s: float, t: float, hurst: float) -> float:
    """Independent oracle: int_0^s (s-r)^(H-1/2) (t-r)^(H-1/2) dr, s <= t,
    by adaptive quadrature. The factors singular at r = s go into quad's
    algebraic weight, which integrates them exactly."""
    if s == t:
        smooth, power = (lambda r: 1.0), 2.0 * hurst - 1.0
    else:
        smooth, power = (lambda r: (t - r) ** (hurst - 0.5)), hurst - 0.5
    val, _ = quad(
        smooth,
        0.0,
        s,
        weight="alg",
        wvar=(0.0, power),
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return val


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
        with pytest.raises(ValueError, match="hurst"):
            cholesky_factor(TimeGrid(1.0, 10), bad)

    def test_rejects_unknown_evaluation(self):
        with pytest.raises(ValueError, match="evaluation must be"):
            kernel_weights(TimeGrid(1.0, 10), 0.3, evaluation="x")


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

    @pytest.mark.parametrize("n_steps", [1, 2, 50, 250])
    def test_triangular_product_matches_dense_toeplitz(self, n_steps):
        # The in-place BLAS triangular product equals the dense Toeplitz
        # product up to summation order, on every tile of 128-row blocks
        # (the last one partial), and writes into the tile's own buffer:
        # a copy made by the BLAS wrapper would leave wh holding dw.
        grid = TimeGrid(1.0, n_steps)
        w = kernel_weights(grid, 0.1)
        dense = toeplitz(w.weights, np.zeros(n_steps)).T
        n_tiles = 0
        for _, tile in iter_path_blocks(grid, w, 300, seed=4, block_size=128):
            expected = tile.dw @ dense
            rms = math.sqrt(np.mean(expected**2))
            np.testing.assert_allclose(tile.wh, expected, rtol=0, atol=1e-13 * rms)
            n_tiles += 1
        assert n_tiles == 3 and tile.n_paths == 44
        buffer = np.empty((128, n_steps))
        wh = buffer[:44]
        np.copyto(wh, tile.dw)
        written = _triangular_product(_convolution_matrix(w), wh)
        assert np.shares_memory(written, buffer)
        np.testing.assert_allclose(wh, expected, rtol=0, atol=1e-13 * rms)

    @pytest.mark.parametrize("law", ["convolution", "cholesky"])
    def test_triangular_product_matches_scipy_dtrmm(self, law):
        # The ctypes call runs the BLAS that scipy.linalg.blas.dtrmm wraps,
        # so the two agree bit for bit, at one row, an odd count, a full
        # tile and one row less.
        grid = TimeGrid(1.0, 250)
        if law == "convolution":
            matrix = _convolution_matrix(kernel_weights(grid, 0.1))
        else:
            matrix = cholesky_factor(grid, 0.1)
        width = matrix.shape[0]
        full = tile_rows(width)
        rng = np.random.default_rng(3)
        for rows in (1, 37, full - 1, full):
            z = rng.standard_normal((rows, width))
            want = dtrmm(1.0, matrix, z.copy().T, trans_a=1, overwrite_b=1).T
            got = z.copy()
            assert _triangular_product(matrix, got) is got
            assert np.array_equal(got, want), rows

    def test_triangular_product_checks_layouts(self):
        # BLAS reads raw pointers: every layout it would misread is refused
        matrix = _convolution_matrix(kernel_weights(TimeGrid(1.0, 8), 0.3))
        rows = np.ones((5, 8))
        for bad_matrix in (
            np.ascontiguousarray(matrix),  # C-ordered
            np.asfortranarray(matrix, dtype=np.float32),
            np.asfortranarray(matrix[:, :7]),  # not square
        ):
            with pytest.raises(ValueError, match="matrix must be"):
                _triangular_product(bad_matrix, rows.copy())
        readonly = rows.copy()
        readonly.flags.writeable = False
        for bad_rows in (
            np.ones((8, 10))[:, :8],  # rows not contiguous
            np.ones((8, 5)).T,  # Fortran-ordered
            np.ones((5, 8), dtype=np.float32),
            np.ones((5, 7)),  # another width
            np.ones(8),
            readonly,
        ):
            with pytest.raises(ValueError, match="rows must be"):
                _triangular_product(matrix, bad_rows)

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

    def test_tiles_match_whole_block_draws(self):
        # 4,096-row blocks at 250 steps stream as several tiles each: the
        # W increments, drawn tile by tile from each block's generator,
        # equal one whole-block draw bit for bit, and sample_paths copies
        # the same tiles.
        grid = TimeGrid(1.0, 250)
        w = kernel_weights(grid, 0.1)
        block, n_paths = 4096, 2 * 4096 + 1500
        assert tile_rows(grid.n_steps) < block
        dw = np.empty((n_paths, grid.n_steps))
        wh = np.empty_like(dw)
        tiles_per_block = [0, 0, 0]
        row = 0
        for b, tile in iter_path_blocks(grid, w, n_paths, seed=5, block_size=block):
            rows = slice(row, row + tile.n_paths)
            dw[rows], wh[rows] = tile.dw, tile.wh
            tiles_per_block[b] += 1
            row += tile.n_paths
        assert row == n_paths
        assert min(tiles_per_block) > 1
        for b, start in enumerate(range(0, n_paths, block)):
            rows = slice(start, min(start + block, n_paths))
            whole = block_rng(5, W_STREAM, b).standard_normal(dw[rows].shape)
            assert np.array_equal(dw[rows], whole * math.sqrt(grid.dt))
        full = sample_paths(grid, w, n_paths, seed=5, block_size=block)
        assert np.array_equal(full.dw, dw) and np.array_equal(full.wh, wh)

    @pytest.mark.parametrize("hurst", [0.2, 0.5])
    def test_reused_buffers_match_fresh_blocks(self, hurst):
        # Every block, partial last one included, is written in place: the
        # W increments all go into one draw buffer and every W^H into one
        # product buffer, so each block shares both with the first block
        # and never dw with wh. Each equals a fresh draw into fresh
        # arrays: normals times sqrt(dt), then the same triangular product
        # (or cumsum at H = 1/2), bit for bit. The product itself is
        # checked against the dense Toeplitz GEMM in TestConvolution.
        grid = TimeGrid(1.0, 48)
        w = kernel_weights(grid, hurst)
        blocks = iter_path_blocks(grid, w, 1000, seed=9, block_size=256)
        seen = []
        for idx, blk in blocks:
            assert not np.shares_memory(blk.dw, blk.wh)
            if seen:
                assert np.shares_memory(blk.wh, seen[0].wh)
                assert np.shares_memory(blk.dw, seen[0].dw)
            rows = min(256, 1000 - idx * 256)
            dw = block_rng(9, W_STREAM, idx).standard_normal((rows, 48)) * math.sqrt(grid.dt)
            if hurst == 0.5:
                wh = np.cumsum(dw, axis=1)
            else:
                wh = _triangular_product(_convolution_matrix(w), dw.copy())
            assert np.array_equal(blk.dw, dw) and np.array_equal(blk.wh, wh)
            seen.append(blk)
        assert len(seen) == 4

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
        with pytest.raises(ValueError, match="different grid"):
            level_variance(TimeGrid(1.0, 32), w)


def serial_tiles(grid, law, n_paths, seed, block_size):
    """{first path: (dw, wh)} of iter_path_blocks' tiles, copied."""
    tiles, row = {}, 0
    for _, tile in iter_path_blocks(grid, law, n_paths, seed, block_size):
        tiles[row] = (tile.dw.copy(), tile.wh.copy())
        row += tile.n_paths
    return tiles


def meeting_consumer(consume, timeout=5.0):
    """A for_each_tile consumer that hands every call to consume, but holds
    each worker's first tile until the other worker has one too, so both
    workers take tiles whatever the scheduling. A worker that waits longer
    than timeout fails with threading.BrokenBarrierError."""
    meeting = threading.Barrier(2, timeout=timeout)

    def consumer():
        waiting = [True]

        def worker_consume(h, first, tile):
            if waiting[0]:
                waiting[0] = False
                meeting.wait()
            consume(h, first, tile)

        return worker_consume

    return consumer


class TestForEachTile:
    """for_each_tile draws each tile once, for every law, on two workers:
    every tile is bit for bit the serial iterator's."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["convolution", "cholesky"])
    def test_every_law_gets_the_serial_tiles(self, oracle, monkeypatch):
        # 5 blocks of 3 tiles and a partial block; H = 1/2 takes the
        # cumsum. Shortened switch intervals interleave the two workers
        # as finely as the interpreter allows, and each draw sleeps first,
        # which lets the other worker reach its own draw meanwhile; the
        # lock must still draw each block's tiles in order.
        make_rng = fbm.block_rng

        class SlowGenerator:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                time.sleep(1e-3)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(fbm, "block_rng", lambda *key: SlowGenerator(make_rng(*key)))
        grid = TimeGrid(1.0, 48 if oracle else 96)
        hursts = (0.2, 0.5, 0.3)
        if oracle:
            laws = [cholesky_factor(grid, h) for h in hursts]
        else:
            laws = [kernel_weights(grid, h) for h in hursts]
        step = tile_rows(2 * 48 if oracle else 96)
        block, n_paths = 3 * step, 5 * 3 * step + 100
        got, calls = {}, []
        threads = set()

        def consume(h, first, tile):
            calls.append((h, first))
            threads.add(threading.get_ident())
            got[h, first] = (tile.dw.copy(), tile.wh.copy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for_each_tile(
                grid, laws, n_paths, 13, meeting_consumer(consume), block_size=block
            )
        finally:
            sys.setswitchinterval(interval)
        # the meeting gives each worker a tile; every (tile, law) pair is
        # consumed exactly once, on one of them
        assert len(threads) == 2
        for h, law in enumerate(laws):
            want = serial_tiles(grid, law, n_paths, 13, block)
            assert len(want) == 16
            for first, (dw, wh) in want.items():
                assert np.array_equal(got[h, first][0], dw)
                assert np.array_equal(got[h, first][1], wh)
        assert sorted(calls) == [(h, first) for h in range(3) for first in want]
        if not oracle:
            # one draw serves every law, so each gets the same increments
            # (the oracle's increments are the draw times its factor's
            # increment block, which jitter moves at the degenerate H = 1/2)
            assert all(
                np.array_equal(got[0, first][0], got[h, first][0])
                for h in (1, 2)
                for first in want
            )

    def test_checks_the_laws(self):
        grid = TimeGrid(1.0, 16)
        w = kernel_weights(grid, 0.3)
        with pytest.raises(ValueError, match="all kernel weights or all factors"):
            for_each_tile(grid, [w, cholesky_factor(grid, 0.3)], 10, 0, None)
        with pytest.raises(ValueError, match="at least one law"):
            for_each_tile(grid, [], 10, 0, None)
        with pytest.raises(ValueError, match="different grid"):
            for_each_tile(TimeGrid(1.0, 8), [w], 10, 0, None)


class TestDrawHelper:
    """for_each_tile's tile workers are the calling thread and one helper
    thread that lives only for the call; each takes the next tile, in
    plan order, when it is free. Every (tile, law) pair is consumed
    exactly once, on one of them. An error on either stops both and is
    raised as itself. Where a test needs a worker to hold a tile, its
    consume waits for the other worker, with a timeout, rather than on
    the scheduler."""

    GRID = TimeGrid(1.0, 48)

    def run(self, consume, n_paths=1000, block_size=256):
        # at 48 steps, blocks of 256 paths are one tile each; each
        # worker's first tile waits until the other worker has one
        laws = [kernel_weights(self.GRID, 0.2), kernel_weights(self.GRID, 0.5)]
        consumer = meeting_consumer(consume)
        for_each_tile(self.GRID, laws, n_paths, 9, consumer, block_size)

    @staticmethod
    def on_caller():
        return threading.current_thread() is threading.main_thread()

    @pytest.fixture
    def baseline(self):
        # a helper left by an earlier test, joined midway, would lower it
        gc.collect()
        return threading.active_count()

    def test_helper_stops_when_exhausted(self, baseline):
        seen = []

        def consume(h, first, tile):
            seen.append((first, h, self.on_caller(), threading.active_count()))

        self.run(consume)
        assert sorted((first, h) for first, h, _, _ in seen) == [
            (256 * i, h) for i in range(4) for h in (0, 1)
        ]
        # a tile's laws in law order, on the worker that drew it
        for i in range(4):
            assert [h for first, h, _, _ in seen if first == 256 * i] == [0, 1]
        worker = {first: on_caller for first, h, on_caller, _ in seen if h == 0}
        assert all(worker[first] == on_caller for first, _, on_caller, _ in seen)
        assert set(worker.values()) == {True, False}
        # the helper lives while it consumes; once the plan is exhausted it
        # ends, maybe while the caller consumes its last tile, and is joined
        assert {count for _, _, on_caller, count in seen if not on_caller} == {
            baseline + 1
        }
        assert {count for *_, count in seen} <= {baseline, baseline + 1}
        assert threading.active_count() == baseline

    def test_helper_stops_when_closed_mid_block(self, baseline):
        # one block of eight tiles: the helper's consume fails on its
        # first tile, and the caller's first consume returns only once the
        # helper has ended, so the run ends mid-block after two draws, one
        # per worker, with the caller's one tile consumed
        grid_rows = tile_rows(48)
        drawn, caller_calls = [], []
        make_rng = fbm.block_rng

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                drawn.append(out.shape[0])
                return self.rng.standard_normal(out=out)

        failure = OSError("helper")

        def consume(h, first, tile):
            if not self.on_caller():
                raise failure
            if not caller_calls:
                for thread in threading.enumerate():
                    if thread.name == "fbm-tiles":
                        thread.join(5.0)
            caller_calls.append(h)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                fbm, "block_rng", lambda *key: CountingGenerator(make_rng(*key))
            )
            with pytest.raises(OSError) as info:
                self.run(consume, n_paths=8 * grid_rows, block_size=8 * grid_rows)
        assert info.value is failure
        assert drawn == [grid_rows, grid_rows]
        assert caller_calls == [0, 1]
        assert threading.active_count() == baseline

    def test_helper_stops_when_the_consumer_raises(self, baseline):
        for on_helper in (False, True):
            failure = ArithmeticError(f"consumer on the helper: {on_helper}")

            def consume(h, first, tile):
                if self.on_caller() != on_helper and h == 1:
                    raise failure

            with pytest.raises(ArithmeticError) as info:
                self.run(consume)
            assert info.value is failure
            assert threading.active_count() == baseline

    def test_draw_error_surfaces_as_itself(self, baseline, monkeypatch):
        # block b is tile b. Tiles 0 and 1 go one to each worker; the
        # other worker holds its tile until block 2's draw has failed, so
        # that draw is the drawing worker's, and no tile is consumed after
        make_rng = fbm.block_rng
        for caller_draws in (True, False):
            raised = []
            failed = threading.Event()

            class FaultyGenerator:
                def standard_normal(generator, out):
                    raised.append((FloatingPointError("draw"), self.on_caller()))
                    failed.set()
                    raise raised[-1][0]

            monkeypatch.setattr(
                fbm,
                "block_rng",
                lambda seed, stream, b: (
                    FaultyGenerator() if b == 2 else make_rng(seed, stream, b)
                ),
            )
            consumed = []

            def consume(h, first, tile):
                if self.on_caller() != caller_draws:
                    assert failed.wait(5.0)
                consumed.append(first // 256)

            with pytest.raises(FloatingPointError) as info:
                self.run(consume)
            assert [on_caller for _, on_caller in raised] == [caller_draws]
            assert info.value is raised[0][0]
            assert sorted(consumed) == [0, 0, 1, 1]
            assert threading.active_count() == baseline

    def test_a_stalled_worker_does_not_stall_the_other(self, baseline):
        # four one-tile blocks: the helper holds its first tile until the
        # caller has consumed three, which it can only do by taking every
        # tile the helper leaves while it waits
        three = threading.Event()
        waited, caller_tiles = [], []

        def consume(h, first, tile):
            if not self.on_caller():
                if not waited:
                    waited.append(three.wait(5.0))
            elif h == 1:
                caller_tiles.append(first)
                if len(caller_tiles) == 3:
                    three.set()

        self.run(consume, n_paths=1024)
        assert waited == [True]
        assert len(caller_tiles) == 3
        assert threading.active_count() == baseline


class TestCholeskyOracle:
    def test_h_half_covariance_is_brownian(self):
        # At H = 1/2, W^H is W: its levels have covariance min(s, t), an
        # increment dW_j loads dt on every level W_{t_i} with j < i, and
        # the increments are dt I.
        grid = TimeGrid(1.0, 8)
        cov = _joint_covariance(grid, 0.5)
        t = grid.times[1:]
        n, dt = grid.n_steps, grid.dt
        later = dt * np.less.outer(np.arange(n), np.arange(1, n + 1))  # [j, i]
        for block, want in (
            (cov[:n, :n], dt * np.eye(n)),
            (cov[:n, n:], later),
            (cov[n:, :n], later.T),
            (cov[n:, n:], np.minimum.outer(t, t)),
        ):
            np.testing.assert_allclose(block, want, atol=1e-10)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7])
    def test_matches_differenced_level_factor(self, hurst):
        # The factor of the covariance of the W levels and W^H, whose
        # samples' W columns are differenced into increments. The
        # increments are the levels times an upper-bidiagonal matrix with
        # unit diagonal, and a Cholesky factor is unique, so both samplers
        # draw the same paths from the same normals, up to rounding.
        grid = TimeGrid(1.0, 128)
        n, n_paths = grid.n_steps, 2000
        t = grid.times[1:]
        levels = np.empty((2 * n, 2 * n))
        levels[:n, :n] = np.minimum.outer(t, t)
        cross = _rl_cross_cov(t[np.newaxis, :], t[:, np.newaxis], hurst)  # [s, t]
        levels[:n, n:] = cross
        levels[n:, :n] = cross.T
        levels[n:, n:] = _rl_auto_cov(
            np.minimum.outer(t, t), np.maximum.outer(t, t), hurst
        )
        z = block_rng(5, ORACLE_STREAM, 0).standard_normal((n_paths, 2 * n))
        x = z @ np.linalg.cholesky(levels).T
        dw = np.diff(x[:, :n], axis=1, prepend=0.0)
        batch = sample_paths(grid, cholesky_factor(grid, hurst), n_paths, seed=5)
        for got, want in ((batch.dw, dw), (batch.wh, x[:, n:])):
            rms = math.sqrt(np.mean(want**2))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * rms)

    def test_increment_block_is_exact(self):
        # The increments are independent of each other, so the factor's
        # increment block is sqrt(dt) I to the last bit; the factor is
        # upper triangular, so its lower-left block is zero.
        grid = TimeGrid(1.0, 250)
        n = grid.n_steps
        factor = cholesky_factor(grid, 0.1)
        assert np.array_equal(factor[:n, :n], math.sqrt(grid.dt) * np.eye(n))
        assert not factor[n:, :n].any()

    def test_factor_peak_memory(self):
        # The covariance and its factor, each (2n)^2 doubles, plus the
        # W^H block's upper triangle while it is evaluated: no identity,
        # no jittered copy where no jitter is needed.
        grid = TimeGrid(1.0, 250)
        gc.collect()
        tracemalloc.start()
        try:
            cholesky_factor(grid, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (2 * grid.n_steps) ** 2 * 8

    def test_marginal_variance_from_covariance(self):
        grid = TimeGrid(2.0, 16)
        for hurst in (0.1, 0.3, 0.7):
            cov = _joint_covariance(grid, hurst)
            t = grid.times[1:]
            np.testing.assert_allclose(
                np.diag(cov)[grid.n_steps :], t ** (2 * hurst) / (2 * hurst),
                atol=1e-10,
            )

    @pytest.mark.parametrize("hurst", [0.01, 0.1, 0.3, 0.5, 0.7, 0.99])
    def test_auto_covariance_matches_quadrature(self, hurst):
        # the closed form on the diagonal, far from it, and one step of a
        # 2,048-step grid off it, where the integrand is nearly singular
        t = 2.0
        for s in (t, 1e-3 * t, t * (1.0 - 1.0 / 2048)):
            got = _rl_auto_cov(np.array(s), np.array(t), hurst)
            want = rl_auto_cov_quadrature(s, t, hurst)
            assert got == pytest.approx(want, rel=1e-12)

    def test_oracle_sample_moments(self):
        grid = TimeGrid(1.0, 32)
        batch = sample_paths(grid, cholesky_factor(grid, 0.3), 20_000, seed=17)
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
        oracle = sample_paths(grid, cholesky_factor(grid, hurst), 10_000, seed=29)
        stat = ks_2samp(conv.wh[:, -1], oracle.wh[:, -1])
        assert stat.pvalue > 0.01

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError):
            cholesky_factor(TimeGrid(1.0, 4096), 0.3)

    def test_indefinite_covariance_raises_after_jitter(self):
        # eigenvalues 3 and -1: no diagonal jitter of 1e-10 of the scale
        # makes it positive definite
        with pytest.raises(np.linalg.LinAlgError, match="even after jitter"):
            _cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_blocks_match_dense_draws(self):
        # 2,048-path blocks at 128 steps stream as several tiles each.
        # Every block, the partial last one included, equals the
        # dense product of one whole-block draw of 2n normals from its own
        # ORACLE_STREAM generator with the factor, up to summation order:
        # the W increments are its first n columns, the W^H levels the rest.
        grid = TimeGrid(1.0, 128)
        n = grid.n_steps
        factor = cholesky_factor(grid, 0.3)
        assert factor.flags.f_contiguous and np.array_equal(factor, np.triu(factor))
        block, n_paths = 2048, 2 * 2048 + 500
        tiles = list(iter_path_blocks(grid, factor, n_paths, seed=8, block_size=block))
        per_block = -(-block // tile_rows(2 * n))
        assert per_block > 1
        assert [b for b, _ in tiles] == [0] * per_block + [1] * per_block + [2]
        batch = sample_paths(grid, factor, n_paths, seed=8, block_size=block)
        for b, start in enumerate(range(0, n_paths, block)):
            rows = slice(start, min(start + block, n_paths))
            rng = block_rng(8, ORACLE_STREAM, b)
            z = rng.standard_normal((rows.stop - start, 2 * n))
            paths = z @ factor
            for got, want in (
                (batch.dw[rows], paths[:, :n]),
                (batch.wh[rows], paths[:, n:]),
            ):
                rms = math.sqrt(np.mean(want**2))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * rms)
        with pytest.raises(ValueError, match="different grid"):
            iter_path_blocks(TimeGrid(1.0, n + 1), factor, 10, seed=0)


class TestBatchValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianPathBatch(dw=np.zeros((2, 3)), wh=np.zeros((2, 4)))
