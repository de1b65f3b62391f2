"""Riemann-Liouville fractional Brownian motion on a uniform grid.

The process W^H_s = int_0^s (s - r)^(H - 1/2) dW_r is sampled jointly with
its driving Brownian increments. The scheme is a left-point Volterra
convolution whose kernel weights carry the exact cell variance, so the
marginal Var[W^H_{t_i}] = t_i^{2H} / (2H) holds at every grid point by
construction. The exact joint law, the test oracle, is a triangular factor
of the closed-form dense covariance of (dW, W^H), the pair every tile
hands out (cholesky_factor). Either law streams through the same row
tiles: a tile's normals are multiplied by an upper-triangular matrix, the
Toeplitz convolution matrix or the factor, whose product is the tile. Only
W is drawn as a path: the independent driver B enters the pricing layer
as one normal per path from block 0 of B_STREAM.

The draws depend on (seed, stream, block) only, never on H, so one draw
serves every H. for_each_tile, the production driver, draws each tile
once and multiplies it by every H's matrix, on two tile workers, the
calling thread and one helper thread, which take alternate tiles. The
draws are made in the serial order, so every tile is bit for bit what
iter_path_blocks, the serial driver, gives. The product is BLAS dtrmm
called through ctypes, which releases the GIL, so the two workers' draws,
products and numpy calls overlap.
"""
from __future__ import annotations

import ctypes
import itertools
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cython_blas, toeplitz
from scipy.special import hyp2f1

__all__ = [
    "TimeGrid",
    "KernelWeights",
    "GaussianPathBatch",
    "kernel_weights",
    "sample_paths",
    "iter_path_blocks",
    "for_each_tile",
    "cholesky_factor",
    "level_variance",
    "exact_level_variance",
    "block_rng",
    "convolution_method",
    "BIT_GENERATOR",
    "W_STREAM",
    "B_STREAM",
    "ORACLE_STREAM",
    "DEFAULT_BLOCK_SIZE",
    "TILE_BYTES",
    "ORACLE_MAX_STEPS",
    "tile_rows",
]

# RNG stream ids: every Generator in the package is a BIT_GENERATOR keyed
# by SeedSequence(entropy=seed, spawn_key=(stream, block)). The spawn key
# makes each (stream, block) an independent stream of its own, so block b's
# draws never depend on which worker produced blocks 0..b-1.
BIT_GENERATOR = np.random.SFC64
W_STREAM = 0
B_STREAM = 1
ORACLE_STREAM = 2

DEFAULT_BLOCK_SIZE = 65_536
# bytes of the largest tile buffer: a block is drawn, multiplied and
# consumed in row tiles of this size, so the working sets of both tile
# workers stay in cache
TILE_BYTES = 1024 * 1024
# the exact law factors a dense (2 n_steps)^2 covariance
ORACLE_MAX_STEPS = 2048


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..n_steps, with dt = T / n_steps."""

    maturity: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.maturity < np.inf:
            raise ValueError("maturity must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """All grid points including 0 and T, length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class KernelWeights:
    """Convolution weights b_j, lag j = 0..n_steps-1, for one (grid, H)."""

    hurst: float
    weights: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.weights.shape[0]


@dataclass
class GaussianPathBatch:
    """Joint draw of Brownian increments and fractional path levels.

    dW has shape (n_paths, n_steps); column j is the increment over
    [t_j, t_{j+1}], i.i.d. Normal(0, dt). wh has the same shape; column i
    holds W^H at t_{i+1} (W^H_0 = 0 is implicit). Both arrays come from the
    same underlying Gaussian draws, so their joint law is preserved.
    """

    dw: np.ndarray
    wh: np.ndarray

    def __post_init__(self):
        if self.wh.shape != self.dw.shape:
            raise ValueError(
                f"dw shape {self.dw.shape} does not match wh shape {self.wh.shape}"
            )

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dw.shape[1]


def kernel_weights(
    grid: TimeGrid, hurst: float, evaluation: str = "variance_exact"
) -> KernelWeights:
    """Volterra convolution weights for the fractional kernel.

    evaluation="variance_exact" (default): b_j^2 = ((j+1)^{2H} - j^{2H})
    * dt^{2H} / (2H * dt), the mean square of int (t_i - r)^(H-1/2) dW_r
    over one cell at lag j divided by dt. The lag-wise sum telescopes:
    sum_{j<i} b_j^2 dt = t_i^{2H} / (2H) exactly, so the scheme's marginal
    variance matches the process at every grid point.

    evaluation="midpoint": b_j = ((j + 1/2) dt)^(H - 1/2), the kernel
    evaluated at the cell midpoint. This variant systematically loses
    variance for H < 1/2 (the deficit decays only like n^{-2H}), so it is
    NOT the production scheme; it exists to reproduce external reference
    tables that were generated with this discretization. See the midpoint
    tests and the run notes.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    dt = grid.dt
    two_h = 2.0 * hurst
    if evaluation == "variance_exact":
        lags = np.arange(grid.n_steps + 1, dtype=float)
        b_sq = np.diff(lags**two_h) * dt**two_h / (two_h * dt)
        b = np.sqrt(b_sq)
    elif evaluation == "midpoint":
        lags = np.arange(grid.n_steps, dtype=float)
        b = ((lags + 0.5) * dt) ** (hurst - 0.5)
    else:
        raise ValueError(
            f"evaluation must be 'variance_exact' or 'midpoint', got {evaluation!r}"
        )
    return KernelWeights(hurst=hurst, weights=b)


def convolution_method(hurst: float) -> str:
    """How the Volterra convolution runs at this H: "cumsum" at H = 1/2,
    else "toeplitz_trmm", the in-place triangular Toeplitz product."""
    # H = 1/2 makes every weight exactly one; cumsum keeps the output
    # bit-identical to a plain Brownian path built from the same draws.
    return "cumsum" if hurst == 0.5 else "toeplitz_trmm"


def _convolution_matrix(weights: KernelWeights) -> np.ndarray | None:
    """Upper-triangular Toeplitz M with wh = dw @ M, i.e. wh[:, i] =
    sum_{j<=i} b_{i-j} dW_j; None where the convolution is a cumulative
    sum. M is the transpose of a C-ordered array, so it is Fortran-ordered
    and BLAS reads it without a copy."""
    if convolution_method(weights.hurst) == "cumsum":
        return None
    b = weights.weights
    return toeplitz(b, np.zeros_like(b)).T


def _capsule_function(capsule, prototype):
    """The C function a PyCapsule points at, called through prototype."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return prototype(pointer(capsule, name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
# BLAS dtrmm as scipy.linalg.cython_blas exports it: side, uplo, transa and
# diag, then m, n, alpha, a, lda, b and ldb, every one by reference. It is
# the library behind scipy.linalg.blas.dtrmm, whose wrapper holds the GIL
# for the whole product; a ctypes call releases it.
_DTRMM = _capsule_function(
    cython_blas.__pyx_capi__["dtrmm"],
    ctypes.CFUNCTYPE(
        None,
        *[ctypes.c_char_p] * 4,
        _INT_P,
        _INT_P,
        ctypes.POINTER(ctypes.c_double),
        ctypes.c_void_p,
        _INT_P,
        ctypes.c_void_p,
        _INT_P,
    ),
)
_ONE = ctypes.c_double(1.0)


def _triangular_product(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows @ matrix for the upper-triangular matrix, computed in place.

    BLAS trmm overwrites the Fortran-ordered view rows.T of the
    C-contiguous rows with matrix.T @ rows.T, half the flops of a dense
    product, and releases the GIL meanwhile. Returns the product as trmm
    wrote it, which is rows itself. BLAS gets raw pointers, so the layouts
    are checked on every call: matrix a square Fortran-ordered float64
    array, rows a writeable C-contiguous float64 array as wide as matrix.
    """
    n = matrix.shape[0]
    if not (
        matrix.dtype == np.float64
        and matrix.shape == (n, n)
        and n > 0
        and matrix.flags.f_contiguous
    ):
        raise ValueError("matrix must be a square Fortran-ordered float64 array")
    if not (
        rows.dtype == np.float64
        and rows.ndim == 2
        and rows.shape[1] == n
        and rows.flags.c_contiguous
        and rows.flags.writeable
    ):
        raise ValueError(
            f"rows must be a writeable C-contiguous float64 array of {n} columns"
        )
    width, count = ctypes.c_int(n), ctypes.c_int(rows.shape[0])
    _DTRMM(
        b"L", b"U", b"T", b"N", width, count, _ONE,
        matrix.ctypes.data, width, rows.ctypes.data, width,
    )
    return rows


def level_variance(grid: TimeGrid, weights: KernelWeights) -> np.ndarray:
    """Var W^H at the left grid points t_0..t_{n-1} under the convolution
    with these weights.

    W^H_{t_j} sums b_{j-1-l} dW_l over l < j, so its variance is dt times
    the running sum of the first j squared weights, 0 at t_0. For the
    variance-exact weights this telescopes to exact_level_variance.
    """
    if weights.n_steps != grid.n_steps:
        raise ValueError("weights were built for a different grid")
    b_sq = weights.weights[:-1] ** 2
    return grid.dt * np.concatenate(([0.0], np.cumsum(b_sq)))


def tile_rows(n_steps: int) -> int:
    """Rows of one TILE_BYTES tile of float64 paths with n_steps columns."""
    return max(1, TILE_BYTES // (8 * n_steps))


def _draw_increments(sqrt_dt: float, rng: np.random.Generator, dw: np.ndarray) -> None:
    """Fill dw with a tile's W increments, standard normals from its block's
    generator times sqrt(dt). Both calls release the GIL."""
    rng.standard_normal(out=dw)
    dw *= sqrt_dt


def _draw_normals(rng: np.random.Generator, z: np.ndarray) -> None:
    """Fill z with a tile's standard normals from its block's generator."""
    rng.standard_normal(out=z)


def _convolve_tile(
    matrix: np.ndarray | None, dw: np.ndarray, wh: np.ndarray
) -> GaussianPathBatch:
    """The tile of these W increments: their W^H levels by the Volterra
    convolution, written into wh; dw is left as it is."""
    if matrix is None:
        np.cumsum(dw, axis=1, out=wh)
    else:
        np.copyto(wh, dw)
        _triangular_product(matrix, wh)
    return GaussianPathBatch(dw=dw, wh=wh)


def _factor_tile(factor: np.ndarray, z: np.ndarray, out: np.ndarray) -> GaussianPathBatch:
    """The tile of these 2 n_steps normals per path times the factor,
    written into out; z is left as it is. The product's first n_steps
    columns are the W increments, the rest the W^H levels."""
    n = factor.shape[0] // 2
    np.copyto(out, z)
    _triangular_product(factor, out)
    return GaussianPathBatch(dw=out[:, :n], wh=out[:, n:])


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator keyed by (seed, stream, block). Each key spawns its own
    SeedSequence, so any block can be generated in isolation, in any
    order, on any worker."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(BIT_GENERATOR(ss))


def _tiling(grid: TimeGrid, laws, n_paths: int, block_size: int):
    """(stream, width, rows, draw, products) of tiles of these laws, after
    checking the arguments: the RNG stream and normals per path a tile
    draws, the rows of a full tile, draw(rng, normals) and one
    product(normals, out) per law, which multiplies a tile's normals by
    the law's matrix into out and returns the tile."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if not laws:
        raise ValueError("at least one law is needed")
    n = grid.n_steps
    exact = not isinstance(laws[0], KernelWeights)
    for law in laws:
        if isinstance(law, KernelWeights) == exact:
            raise ValueError("the laws must be all kernel weights or all factors")
        if (law.shape[0] // 2 if exact else law.n_steps) != n:
            raise ValueError("the law was built for a different grid")
    width = 2 * n if exact else n
    rows = min(tile_rows(width), block_size, n_paths)
    if exact:
        products = [partial(_factor_tile, factor) for factor in laws]
        return ORACLE_STREAM, width, rows, _draw_normals, products
    draw = partial(_draw_increments, np.sqrt(grid.dt))
    products = [partial(_convolve_tile, _convolution_matrix(w)) for w in laws]
    return W_STREAM, width, rows, draw, products


def _tile_plan(seed: int, stream: int, n_paths: int, block_size: int, step: int):
    """(block, generator, first path, rows) of every tile in order; a
    block's generator is made when its first tile is due."""
    for b, start in enumerate(range(0, n_paths, block_size)):
        rng = block_rng(seed, stream, b)
        block_rows = min(block_size, n_paths - start)
        for offset in range(0, block_rows, step):
            yield b, rng, start + offset, min(step, block_rows - offset)


def iter_path_blocks(
    grid: TimeGrid,
    law: KernelWeights | np.ndarray,
    n_paths: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
):
    """Iterator of (block_index, GaussianPathBatch) tiles covering n_paths
    in order, drawn serially on the calling thread: the reference that
    for_each_tile's tiles equal bit for bit.

    law is either the convolution's KernelWeights, whose tiles draw
    n_steps normals per path from W_STREAM, or the exact law's
    cholesky_factor, whose tiles draw 2 n_steps from ORACLE_STREAM.
    Block b holds paths [b * block_size, min((b+1) * block_size, n_paths))
    and draws from its own generator, so its draws depend only on (seed,
    b, block_size, grid shape), never on other blocks: generation
    parallelizes with deterministic output, and block_size is part of the
    reproducibility key. Each block is yielded as consecutive row tiles,
    drawn in order from the block's generator, which gives the same
    numbers as a whole-block draw.

    The arguments are checked at the call, not at the first tile. Every
    tile is written in place into the leading rows of two C-contiguous
    buffers owned by the iterator, none over TILE_BYTES: the draw buffer,
    which holds the convolution's W increments, and the product buffer,
    its W^H levels, or the exact law's product, whose halves are the
    tile's dw and wh. So every tile shares memory with the one before: a
    tile stays intact until the next next(), and a caller that keeps one
    must copy it.
    """
    stream, width, step, draw, (product,) = _tiling(grid, [law], n_paths, block_size)
    normals, out = np.empty((step, width)), np.empty((step, width))

    def tiles():
        for b, rng, _, rows in _tile_plan(seed, stream, n_paths, block_size, step):
            draw(rng, normals[:rows])
            yield b, product(normals[:rows], out[:rows])

    return tiles()


def for_each_tile(
    grid: TimeGrid,
    laws,
    n_paths: int,
    seed: int,
    consumer,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> None:
    """Draw each tile of n_paths paths once and multiply it by every law's
    matrix, on two tile workers.

    laws is a nonempty sequence, all KernelWeights or all cholesky_factor
    matrices, typically one per H; they share the draws, which depend on
    (seed, stream, block) only. The tiles, blocks and checks are those of
    iter_path_blocks, and every tile is bit for bit the one it gives for
    the same law. consumer() is called once by each worker and returns
    that worker's consume(law_index, first_path, tile), called for every
    tile and law in law order, with the index of the tile's first path.
    A tile is only valid during that call; consume writes what it keeps by
    path position, so no result depends on which worker ran which tile.

    The calling thread and one helper thread take alternate tiles. For
    tile i a worker waits until tile i - 1's draw has finished, so each
    block's generator draws in the serial order, draws the tile into its
    own buffer, and then multiplies it into its own product buffer for
    each law in turn and hands it to consume. Memory is two tile buffers
    per worker. An error in either worker, in a draw, a product or
    consume, stops both at their next tile and is raised here as itself,
    the first one if both fail; the helper is joined before this returns
    or raises.
    """
    stream, width, step, draw, products = _tiling(grid, laws, n_paths, block_size)
    plan = _tile_plan(seed, stream, n_paths, block_size, step)
    handoff = threading.Condition()
    drawn = [0]  # tiles whose draw has finished; they finish in order
    errors: list[BaseException] = []

    def work(first: int) -> None:
        # every error is kept and raised by the calling thread after the join
        try:
            consume = consumer()
            normals, out = np.empty((step, width)), np.empty((step, width))
            for i in itertools.count(first, 2):
                with handoff:
                    handoff.wait_for(lambda: drawn[0] == i or errors)
                    if errors:
                        return
                tile = next(plan, None)
                if tile is not None:
                    _, rng, row, rows = tile
                    draw(rng, normals[:rows])
                with handoff:
                    drawn[0] += 1
                    handoff.notify_all()
                if tile is None:
                    return
                for h, product in enumerate(products):
                    consume(h, row, product(normals[:rows], out[:rows]))
        except BaseException as exc:
            with handoff:
                errors.append(exc)
                handoff.notify_all()

    helper = threading.Thread(target=work, args=(1,), name="fbm-tiles")
    helper.start()
    try:
        work(0)
    finally:
        helper.join()
    if errors:
        raise errors[0]


def sample_paths(
    grid: TimeGrid,
    law: KernelWeights | np.ndarray,
    n_paths: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> GaussianPathBatch:
    """Materialize all paths as one batch: the tiles of iter_path_blocks
    copied into place.

    No production code calls it; it stays as the test oracle's
    materializer, for checks that need whole paths rather than
    functionals: the path-law unit tests and acceptance criteria 5 (the
    moments of sigma_T) and 6 (the Kolmogorov-Smirnov check of the
    convolution against the exact law)."""
    tiles = iter_path_blocks(grid, law, n_paths, seed, block_size)
    dw = np.empty((n_paths, grid.n_steps))
    wh = np.empty((n_paths, grid.n_steps))
    row = 0
    for _, tile in tiles:
        rows = slice(row, row + tile.n_paths)
        dw[rows], wh[rows] = tile.dw, tile.wh
        row += tile.n_paths
    return GaussianPathBatch(dw=dw, wh=wh)


def _rl_cross_cov(t: np.ndarray, s: np.ndarray, hurst: float) -> np.ndarray:
    """cov(W^H_t, W_s) = (t^{H+1/2} - (t - min(s,t))^{H+1/2}) / (H + 1/2)."""
    hp = hurst + 0.5
    capped = np.minimum(s, t)
    return (t**hp - (t - capped) ** hp) / hp


def _rl_auto_cov(s: np.ndarray, t: np.ndarray, hurst: float) -> np.ndarray:
    """cov(W^H_s, W^H_t) = int_0^s (s-r)^(H-1/2) (t-r)^(H-1/2) dr, s <= t,
    in closed form by Euler's integral for the Gauss function (DLMF 15.6.1):
    s^{H+1/2} t^{H-1/2} / (H+1/2) * 2F1(1/2-H, 1; H+3/2; s/t). At s = t
    the series sums to t^{2H} / (2H)."""
    hp = hurst + 0.5
    return s**hp * t ** (hurst - 0.5) / hp * hyp2f1(1.0 - hp, 1.0, hp + 1.0, s / t)


def _joint_covariance(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Covariance of (dW_0..dW_{n-1}, W^H_{t_1..t_n}), shape (2n, 2n): dt I
    for the increments; cov(dW_j, W^H_{t_i}) = int_{t_j}^{min(t_{j+1}, t_i)}
    (t_i - r)^{H-1/2} dr, the difference of _rl_cross_cov between
    consecutive grid points; _rl_auto_cov on one triangle, mirrored."""
    t = grid.times[1:]
    n = grid.n_steps
    cov = np.zeros((2 * n, 2 * n))
    np.fill_diagonal(cov[:n, :n], grid.dt)
    levels = _rl_cross_cov(t, grid.times[:, np.newaxis], hurst)  # [s, t]
    np.subtract(levels[1:], levels[:-1], out=cov[:n, n:])
    cov[n:, :n] = cov[:n, n:].T
    auto = cov[n:, n:]
    i, j = np.triu_indices(n)
    auto[i, j] = auto[j, i] = _rl_auto_cov(t[i], t[j], hurst)
    return cov


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of cov, or of a copy with the least diagonal
    jitter that makes it positive definite."""
    scale = np.mean(np.diag(cov))
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        jittered = cov.copy() if jitter else cov
        np.fill_diagonal(jittered, np.diag(cov) + jitter * scale)
        try:
            return np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "joint covariance is not positive definite even after jitter"
    )


def exact_level_variance(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Var W^H = t^{2H} / (2H) of the exact law, which cholesky_factor
    samples, at the left grid points t_0..t_{n-1}."""
    return grid.times[:-1] ** (2.0 * hurst) / (2.0 * hurst)


def cholesky_factor(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Upper-triangular U, Fortran-ordered, with U.T @ U the covariance of
    (dW_0..dW_{n-1}, W^H_{t_1..t_n}): a row of 2 n_steps standard normals
    times U samples the exact joint law on the grid, the W increments in
    its first n_steps columns and the W^H levels in the rest. The
    increments are independent, so U's increment block is sqrt(dt) I.

    The dense (2 n_steps)^2 covariance is computed in closed form and
    factored with the least jitter that makes it positive definite;
    intended for tests only, hence the step budget.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if grid.n_steps > ORACLE_MAX_STEPS:
        raise ValueError(f"the exact law supports at most {ORACLE_MAX_STEPS} steps")
    return _cholesky_with_jitter(_joint_covariance(grid, hurst)).T
