"""Riemann-Liouville fractional Brownian motion on a uniform grid.

The process W^H_s = int_0^s (s - r)^(H - 1/2) dW_r is sampled jointly with
its driving Brownian increments. The scheme is a left-point Volterra
convolution whose kernel weights carry the exact cell variance, so the
marginal Var[W^H_{t_i}] = t_i^{2H} / (2H) holds at every grid point by
construction. A dense Cholesky sampler of the exact joint law is provided
as a test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz

__all__ = [
    "TimeGrid",
    "KernelWeights",
    "GaussianPathBatch",
    "kernel_weights",
    "sample_paths",
    "iter_path_blocks",
    "cholesky_oracle",
    "level_variance",
    "exact_level_variance",
    "block_rng",
    "convolution_method",
    "BIT_GENERATOR",
    "W_STREAM",
    "B_STREAM",
    "ORACLE_STREAM",
    "DEFAULT_BLOCK_SIZE",
    "ORACLE_MAX_STEPS",
]

# RNG stream ids: every Generator in the package is a BIT_GENERATOR keyed
# by SeedSequence(entropy=seed, spawn_key=(stream, block)). Counter-based,
# so block b's draws never depend on which worker produced blocks 0..b-1.
BIT_GENERATOR = np.random.Philox
W_STREAM = 0
B_STREAM = 1
ORACLE_STREAM = 2

DEFAULT_BLOCK_SIZE = 65_536
# the oracle factors a dense (2 n_steps)^2 covariance
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
        if self.dw.shape != self.wh.shape:
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
    else "toeplitz_matmul"."""
    # H = 1/2 makes every weight exactly one; cumsum keeps the output
    # bit-identical to a plain Brownian path built from the same draws.
    return "cumsum" if hurst == 0.5 else "toeplitz_matmul"


def _convolution_matrix(weights: KernelWeights) -> np.ndarray | None:
    """Matrix M with wh = dw @ M, i.e. wh[:, i] = sum_{j<=i} b_{i-j} dW_j;
    None where the convolution is a cumulative sum."""
    if convolution_method(weights.hurst) == "cumsum":
        return None
    # one dense lower-triangular Toeplitz product (BLAS); it beats FFT
    # convolution at every step count the grids use
    b = weights.weights
    return toeplitz(b, np.zeros_like(b)).T


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


def _fill_block(
    seed: int,
    block: int,
    sqrt_dt: float,
    matrix: np.ndarray | None,
    dw: np.ndarray,
    wh: np.ndarray,
) -> None:
    """Draw block `block`'s increments into dw and its W^H levels into wh.

    dw and wh are C-contiguous (rows, n_steps) arrays; every operation
    writes in place, so the block allocates no path-sized array.
    """
    block_rng(seed, W_STREAM, block).standard_normal(out=dw)
    dw *= sqrt_dt
    if matrix is None:
        np.cumsum(dw, axis=1, out=wh)
    else:
        np.matmul(dw, matrix, out=wh)


def _check_blocking(
    grid: TimeGrid, weights: KernelWeights, n_paths: int, block_size: int
) -> None:
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if weights.n_steps != grid.n_steps:
        raise ValueError("weights were built for a different grid")


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator keyed by (seed, stream, block). Counter-based, so any
    block can be generated in isolation, in any order, on any worker."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(BIT_GENERATOR(ss))


def iter_path_blocks(
    grid: TimeGrid,
    weights: KernelWeights,
    n_paths: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
):
    """Iterator of (block_index, GaussianPathBatch) covering n_paths in order.

    Block b holds paths [b * block_size, min((b+1) * block_size, n_paths)).
    The draws for block b depend only on (seed, b, block_size, grid shape),
    never on other blocks, so generation parallelizes with deterministic
    output. block_size is therefore part of the reproducibility key.

    The arguments are checked at the call, not at the first block. Every
    block is written in place into the leading rows of two C-contiguous
    (min(block_size, n_paths), n_steps) buffers owned by the iterator, so
    a yielded batch is overwritten by the next block: a caller that keeps
    a block must copy it, and may use its arrays as scratch meanwhile.
    """
    _check_blocking(grid, weights, n_paths, block_size)
    shape = (min(block_size, n_paths), grid.n_steps)
    dw, wh = np.empty(shape), np.empty(shape)
    sqrt_dt = np.sqrt(grid.dt)
    matrix = _convolution_matrix(weights)

    def blocks():
        for b, row in enumerate(range(0, n_paths, block_size)):
            rows = min(block_size, n_paths - row)
            _fill_block(seed, b, sqrt_dt, matrix, dw[:rows], wh[:rows])
            yield b, GaussianPathBatch(dw=dw[:rows], wh=wh[:rows])

    return blocks()


def sample_paths(
    grid: TimeGrid,
    weights: KernelWeights,
    n_paths: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> GaussianPathBatch:
    """Materialize all paths as one batch, block by block, each block drawn
    straight into its rows. See iter_path_blocks for the streaming variant
    used by the pricing engine."""
    _check_blocking(grid, weights, n_paths, block_size)
    dw = np.empty((n_paths, grid.n_steps))
    wh = np.empty((n_paths, grid.n_steps))
    sqrt_dt = np.sqrt(grid.dt)
    matrix = _convolution_matrix(weights)
    for b, row in enumerate(range(0, n_paths, block_size)):
        rows = slice(row, row + block_size)
        _fill_block(seed, b, sqrt_dt, matrix, dw[rows], wh[rows])
    return GaussianPathBatch(dw=dw, wh=wh)


def _rl_cross_cov(t: np.ndarray, s: np.ndarray, hurst: float) -> np.ndarray:
    """cov(W^H_t, W_s) = (t^{H+1/2} - (t - min(s,t))^{H+1/2}) / (H + 1/2)."""
    hp = hurst + 0.5
    capped = np.minimum(s, t)
    return (t**hp - (t - capped) ** hp) / hp


def _rl_auto_cov(t_small: float, t_large: float, hurst: float) -> float:
    """cov(W^H_s, W^H_t) = int_0^s (s-r)^(H-1/2) (t-r)^(H-1/2) dr, s <= t.

    The integrand has an algebraic endpoint singularity at r = s when
    H < 1/2; quad's weighted rule handles it exactly.
    """
    if t_small == t_large:
        return t_small ** (2.0 * hurst) / (2.0 * hurst)

    def smooth_part(r):
        return (t_large - r) ** (hurst - 0.5)

    val, _ = quad(
        smooth_part,
        0.0,
        t_small,
        weight="alg",
        wvar=(0.0, hurst - 0.5),
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return val


def _joint_covariance(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Covariance of (W_{t_1..t_n}, W^H_{t_1..t_n}), shape (2n, 2n)."""
    t = grid.times[1:]
    n = grid.n_steps
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = np.minimum.outer(t, t)
    cross = _rl_cross_cov(t[np.newaxis, :], t[:, np.newaxis], hurst)  # [s, t]
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    for i in range(n):
        for j in range(i, n):
            cov[n + i, n + j] = cov[n + j, n + i] = _rl_auto_cov(t[i], t[j], hurst)
    return cov


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    scale = np.mean(np.diag(cov))
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(cov + jitter * scale * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "joint covariance is not positive definite even after jitter"
    )


def exact_level_variance(grid: TimeGrid, hurst: float) -> np.ndarray:
    """Var W^H = t^{2H} / (2H) of the exact law, which cholesky_oracle
    samples, at the left grid points t_0..t_{n-1}."""
    return grid.times[:-1] ** (2.0 * hurst) / (2.0 * hurst)


def cholesky_oracle(
    grid: TimeGrid, hurst: float, n_paths: int, seed: int
) -> GaussianPathBatch:
    """Sample the exact joint Gaussian law of (W, W^H) at the grid points.

    Dense factorization of the analytically-computed covariance; intended
    for tests only, hence the step budget.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if grid.n_steps > ORACLE_MAX_STEPS:
        raise ValueError(f"cholesky_oracle supports at most {ORACLE_MAX_STEPS} steps")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    chol = _cholesky_with_jitter(_joint_covariance(grid, hurst))
    rng = block_rng(seed, ORACLE_STREAM, 0)
    z = rng.standard_normal((n_paths, 2 * grid.n_steps))
    joint = z @ chol.T
    w_levels = joint[:, : grid.n_steps]
    wh = joint[:, grid.n_steps :]
    dw = np.diff(w_levels, axis=1, prepend=0.0)
    return GaussianPathBatch(dw=dw, wh=np.ascontiguousarray(wh))

