"""Monte Carlo estimators for calls and volatility/variance swap strikes.

Two call estimators share one set of rho-free path functionals, so one
simulation serves every correlation. The conditional (mixing) estimator
integrates the independent Brownian factor out exactly: given the vol path,
the log-price is Gaussian, so each path contributes a shifted-spot,
reduced-vol Black-Scholes value and no B draws are needed. The direct
estimator also keeps int sigma dB against the orthogonal driver B, builds
the left-point Euler log-price from it per rho, and averages the payoff
against a terminal-spot control variate (e^{X_T} is an exact martingale of
the discrete scheme, so the control has known mean zero).

Everything is deterministic given (seed, n_paths, block_size, grid, params):
per-path arrays are assembled positionally by block index and reduced once,
so results do not depend on generation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blackscholes import bs_price
from .fbm import (
    B_STREAM,
    BIT_GENERATOR,
    DEFAULT_BLOCK_SIZE,
    TimeGrid,
    block_rng,
    cholesky_oracle,
    convolution_method,
    iter_path_blocks,
    kernel_weights,
)
from .volmodel import ModelParams, PathFunctionals, path_functionals, vol_paths

__all__ = [
    "McConfig",
    "PriceEstimate",
    "simulate_functionals",
    "simulation_record",
    "vol_swap_strike",
    "variance_swap_strike",
    "strike_pricer",
    "VALID_SCHEMES",
    "VALID_ESTIMATORS",
]

VALID_SCHEMES = ("convolution", "midpoint_convolution", "cholesky_oracle")
VALID_ESTIMATORS = ("conditional_mixing", "direct_euler")
# the kernel_weights evaluation behind each convolution scheme; the
# Cholesky oracle samples the exact law and evaluates no kernel
KERNEL_EVALUATION = {
    "convolution": "variance_exact",
    "midpoint_convolution": "midpoint",
}


@dataclass(frozen=True)
class McConfig:
    """Experiment knobs: path budget, seeding, scheme and estimator choice.

    block_size partitions paths into deterministic work units and is part
    of the reproducibility key (it selects which RNG stream draws which
    rows, not just a performance hint).
    """

    n_paths: int
    seed: int
    scheme: str = "convolution"
    estimator: str = "conditional_mixing"
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.scheme not in VALID_SCHEMES:
            raise ValueError(f"scheme must be one of {VALID_SCHEMES}")
        if self.estimator not in VALID_ESTIMATORS:
            raise ValueError(f"estimator must be one of {VALID_ESTIMATORS}")


@dataclass(frozen=True)
class PriceEstimate:
    """Point estimate with its Monte Carlo standard error."""

    value: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def _mean_se(values: np.ndarray) -> PriceEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PriceEstimate(value=float(values.mean()), std_error=se, n_paths=n)


def simulate_functionals(
    grid: TimeGrid, params: ModelParams, config: McConfig
) -> PathFunctionals:
    """Stream path blocks through the vol model and keep only per-path
    functionals.

    Memory is three block buffers, each of shape (min(block_size,
    n_paths), n_steps), allocated once and reused by every block: the dw
    and wh that iter_path_blocks owns and a vol array, plus O(n_paths)
    for the functionals. W^H is dead once the vols are built, so wh then
    holds the squared vols and, for the direct Euler estimator, the B
    increments. The Cholesky oracle draws all paths as one block, so its
    buffers span n_paths rows.

    The functionals are rho-free: params.rho is never read. For the
    direct Euler estimator int sigma dB is also accumulated; the B
    increments come from their own RNG stream, block-aligned with the W
    draws.
    """
    y = np.empty(config.n_paths)
    ito = np.empty(config.n_paths)
    ito_b = np.empty(config.n_paths) if config.estimator == "direct_euler" else None
    sqrt_dt = math.sqrt(grid.dt)

    if config.scheme == "cholesky_oracle":
        blocks = [(0, cholesky_oracle(grid, params.hurst, config.n_paths, config.seed))]
        buffer_rows = config.n_paths
    else:
        weights = kernel_weights(grid, params.hurst, KERNEL_EVALUATION[config.scheme])
        buffer_rows = min(config.block_size, config.n_paths)
        blocks = iter_path_blocks(
            grid, weights, config.n_paths, config.seed, config.block_size
        )
    vol = np.empty((buffer_rows, grid.n_steps))

    for idx, blk in blocks:
        row = idx * config.block_size
        rows = slice(row, row + blk.n_paths)
        vols = vol_paths(blk, params, grid, out=vol[: blk.n_paths])
        funcs = path_functionals(vols, blk, grid, scratch=blk.wh)
        y[rows] = funcs.integrated_variance
        ito[rows] = funcs.int_sigma_dw
        if ito_b is not None:
            db = blk.wh
            block_rng(config.seed, B_STREAM, idx).standard_normal(out=db)
            db *= sqrt_dt
            ito_b[rows] = np.einsum("ij,ij->i", vols, db)
    return PathFunctionals(integrated_variance=y, int_sigma_dw=ito, int_sigma_db=ito_b)


def simulation_record(config: McConfig, hurst: Sequence[float]) -> dict[str, object]:
    """How simulate_functionals draws its paths under config at each H,
    in enough detail to reproduce them: bit generator, block size, kernel
    evaluation and convolution method ("cholesky" for the oracle)."""
    evaluation = KERNEL_EVALUATION.get(config.scheme)
    return {
        "bit_generator": BIT_GENERATOR.__name__,
        "block_size": config.block_size,
        "kernel_evaluation": evaluation,
        "convolution": {
            f"H={h:g}": "cholesky" if evaluation is None else convolution_method(h)
            for h in hurst
        },
    }


def _terminal_log_return(funcs: PathFunctionals, rho: float) -> np.ndarray:
    """Left-point Euler X_T - x0 = -Y/2 + rho int sigma dW
    + sqrt(1 - rho^2) int sigma dB, per path."""
    orth = math.sqrt(max(1.0 - rho * rho, 0.0))
    return (
        -0.5 * funcs.integrated_variance
        + rho * funcs.int_sigma_dw
        + orth * funcs.int_sigma_db
    )


def vol_swap_strike(funcs: PathFunctionals, maturity: float) -> PriceEstimate:
    """Fair volatility-swap strike E[sqrt(Y/T)] with standard error."""
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    return _mean_se(np.sqrt(funcs.integrated_variance / maturity))


def variance_swap_strike(funcs: PathFunctionals, maturity: float) -> PriceEstimate:
    """Fair variance-swap strike E[Y/T] with standard error."""
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    return _mean_se(funcs.integrated_variance / maturity)


def strike_pricer(
    funcs: PathFunctionals,
    params: ModelParams,
    x0: float,
    maturity: float,
    estimator: str = "conditional_mixing",
) -> Callable[[float], PriceEstimate]:
    """Bind one simulated batch into a price-of-log-strike function.

    All strikes reuse the same paths (common random numbers), which makes
    differences of implied vols across strikes far less noisy than
    independent runs would be. Each estimator mixes the rho-free
    functionals for params.rho once, here, into the per-path arrays
    every strike reads.

    Conditional mixing: given the vol path, X_T ~ Normal(x0 - Y/2 + rho *
    int sigma dW + rho^2 adjustment, (1 - rho^2) Y); folding the mean into
    a shifted spot gives bs_price(x_hat, k, sqrt((1-rho^2) Y / T), T) per
    path. At |rho| = 1 the conditional law is a point mass and bs_price's
    degenerate branch returns the intrinsic value.

    Direct Euler: per-path payoffs on the Euler terminal spot, less beta
    times the terminal-spot control.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    if estimator not in VALID_ESTIMATORS:
        raise ValueError(f"estimator must be one of {VALID_ESTIMATORS}")
    if estimator == "direct_euler":
        if funcs.int_sigma_db is None:
            raise ValueError(
                "direct_euler pricing needs functionals simulated with "
                "estimator='direct_euler'"
            )
        spot = np.exp(x0 + _terminal_log_return(funcs, params.rho))
        control = spot - math.exp(x0)  # exactly mean-zero: e^X is a martingale
        var = control.var(ddof=1) if control.shape[0] > 1 else 0.0

        def price_direct(k: float) -> PriceEstimate:
            payoff = np.maximum(spot - math.exp(k), 0.0)
            if var == 0.0:
                return _mean_se(payoff)
            beta = np.cov(payoff, control, ddof=1)[0, 1] / var
            return _mean_se(payoff - beta * control)

        return price_direct

    rho = params.rho
    y = funcs.integrated_variance
    x_hat = x0 + rho * funcs.int_sigma_dw - 0.5 * rho * rho * y
    cond_vol = np.sqrt(max(1.0 - rho * rho, 0.0) * y / maturity)

    def price_conditional(k: float) -> PriceEstimate:
        return _mean_se(bs_price(x_hat, k, cond_vol, maturity))

    return price_conditional
