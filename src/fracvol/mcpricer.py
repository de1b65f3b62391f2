"""Monte Carlo estimators for calls and the volatility-swap strike.

The estimator is chosen once, when the paths are simulated
(McConfig.estimator), and the pricer reads it off the rho-free
functionals, so one simulation serves every correlation. Conditional
mixing integrates the Brownian factor independent of the vol path out:
each path contributes a Black-Scholes value. Direct Euler draws that
factor's leg, sqrt(Y) times one standard normal per path
(INDEPENDENT_LEG), and averages the payoff on the Euler terminal spot.

Each (simulation, rho) has one regression on two control variates,
CONTROLS, whose means are exact in the discrete scheme: the spot
martingale less e^{x0} (mean zero because sigma is adapted and the Ito
sum is left-point) and the integrated variance Y less its exact discrete
mean, which simulate_functionals records. Its responses are the
volatility-swap leg sqrt(Y/T), fitted once when the pricer binds, and
each strike's price with its pathwise log-strike slope dC/dk (Broadie &
Glasserman, Management Science 1996), betas from the same paths. So every
estimate carries the means, SEs and covariances of its price, slope and
swap leg, and the gap between an implied vol and the swap leg has a
paired SE.

Everything is deterministic given (seed, n_paths, block_size, grid, params):
per-path arrays are assembled positionally by block index and reduced once,
so results do not depend on generation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .blackscholes import _call
from .fbm import (
    B_STREAM,
    BIT_GENERATOR,
    DEFAULT_BLOCK_SIZE,
    TILE_BYTES,
    TimeGrid,
    block_rng,
    cholesky_factor,
    convolution_method,
    exact_level_variance,
    iter_path_blocks,
    kernel_weights,
    level_variance,
    tile_rows,
)
from .volmodel import (
    ModelParams,
    PathFunctionals,
    integrated_variance_mean,
    path_functionals,
    vol_paths,
)

__all__ = [
    "McConfig",
    "PriceEstimate",
    "StrikeEstimate",
    "simulate_functionals",
    "simulation_record",
    "strike_pricer",
    "VALID_SCHEMES",
    "VALID_ESTIMATORS",
    "CONTROLS",
    "MATURITY_LAYOUT",
    "INDEPENDENT_LEG",
]

VALID_SCHEMES = ("convolution", "midpoint_convolution", "cholesky_oracle")
VALID_ESTIMATORS = ("conditional_mixing", "direct_euler")
# the control variates the calls and the swap leg are regressed on, in order
CONTROLS = ("spot_martingale", "integrated_variance")
# how every maturity of one simulation is read off its single draw
MATURITY_LAYOUT = (
    "one unit-maturity draw per simulation; maturity T reads it with nu * T^H, "
    "then scales Y and E[Y] by T and int sigma dW by sqrt(T)"
)
# how the direct Euler estimator draws int sigma dB, the leg of the
# Brownian driver independent of the vol path
INDEPENDENT_LEG = (
    "sqrt(Y) * z: one standard normal z per path from block 0 of B_STREAM, "
    "shared by every maturity"
)
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
    of the reproducibility key under every scheme, the Cholesky oracle
    included (it selects which RNG stream draws which rows, not just a
    performance hint).
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


@dataclass(frozen=True)
class StrikeEstimate(PriceEstimate):
    """A call price with its log-strike slope dC/dk, the slope's SE and
    the covariance of the two, and the volatility-swap strike E[sqrt(Y/T)]
    with its covariance with the price: one regression on the same paths."""

    slope: float
    slope_se: float
    cov: float
    swap: PriceEstimate
    swap_cov: float

    def __post_init__(self):
        super().__post_init__()
        if self.slope_se < 0.0:
            raise ValueError("slope_se must be nonnegative")


def simulate_functionals(
    grid: TimeGrid,
    params: ModelParams,
    config: McConfig,
    maturities: Sequence[float] | None = None,
) -> list[PathFunctionals]:
    """Draw one batch of paths and keep only the per-path functionals, one
    PathFunctionals per maturity, each on grid.n_steps steps.

    maturities defaults to (grid.maturity,); grid only sets the step
    count otherwise. One unit-maturity draw serves every maturity. From
    the same normals, TimeGrid(T, n) has sqrt(T) times the increments and,
    by Riemann-Liouville self-similarity, T^H times the W^H levels of
    TimeGrid(1, n), so its vol path is the unit-grid one with vol-of-vol
    nu * T^H. So Y and its exact mean E[Y] at T are T times the unit-grid
    ones at nu * T^H, and int sigma dW is sqrt(T) times.

    Every RNG block streams through tiles of at most fbm.TILE_BYTES per
    buffer: each tile is drawn and multiplied by its law's triangular
    matrix once, then every maturity's vols and functionals are taken from
    it while it is in cache. Every scheme streams alike; the Cholesky
    oracle differs only in its law, the factor of the exact covariance,
    whose tiles draw 2 n_steps normals per path from fbm.ORACLE_STREAM.
    Memory is a few tile buffers (dw and wh, or the oracle's normals that
    become them, and the vols) plus
    O(n_paths x maturities) for the functionals, and for the oracle its
    (2 n_steps)^2 covariance and factor.

    The functionals are rho-free: params.rho is never read. For the
    direct Euler estimator int sigma dB is sqrt(Y) * z (INDEPENDENT_LEG):
    given the vols it is exactly Normal(0, Y), so z is one standard normal
    per path, from block 0 of B_STREAM and independent of W. Every
    maturity reads the same z, so the legs of two maturities are perfectly
    correlated; each maturity's marginal law is exact, and nothing reads
    the joint law across maturities. The exact E[Y] of the scheme, which
    the pricers' Y control needs, is recorded from the scheme's own W^H
    variances.
    """
    maturities = (grid.maturity,) if maturities is None else tuple(maturities)
    if not maturities or not all(0.0 < t < math.inf for t in maturities):
        raise ValueError("maturities must be a nonempty list of positive finite values")
    unit = TimeGrid(1.0, grid.n_steps)
    scaled = [replace(params, nu=params.nu * t**params.hurst) for t in maturities]
    shape = (len(maturities), config.n_paths)
    y, ito = np.empty(shape), np.empty(shape)

    if config.scheme == "cholesky_oracle":
        law = cholesky_factor(unit, params.hurst)
        variance = exact_level_variance(unit, params.hurst)
    else:
        law = kernel_weights(unit, params.hurst, KERNEL_EVALUATION[config.scheme])
        variance = level_variance(unit, law)
    tiles = iter_path_blocks(unit, law, config.n_paths, config.seed, config.block_size)
    vol = np.empty((min(tile_rows(unit.n_steps), config.n_paths), unit.n_steps))

    row = 0
    for _, tile in tiles:
        rows = slice(row, row + tile.n_paths)
        row += tile.n_paths
        for m, unit_params in enumerate(scaled):
            vols = vol_paths(tile, unit_params, unit, out=vol[: tile.n_paths])
            funcs = path_functionals(vols, tile, unit)
            y[m, rows] = funcs.integrated_variance
            ito[m, rows] = funcs.int_sigma_dw

    z = None
    if config.estimator == "direct_euler":
        z = block_rng(config.seed, B_STREAM, 0).standard_normal(config.n_paths)
    out = []
    for m, (t, unit_params) in enumerate(zip(maturities, scaled)):
        y[m] *= t
        ito[m] *= math.sqrt(t)
        mean = t * integrated_variance_mean(unit_params, unit, variance)
        out.append(
            PathFunctionals(
                integrated_variance=y[m],
                int_sigma_dw=ito[m],
                int_sigma_db=None if z is None else np.sqrt(y[m]) * z,
                integrated_variance_mean=mean,
            )
        )
    return out


def simulation_record(config: McConfig, hurst: Sequence[float]) -> dict[str, object]:
    """How simulate_functionals draws its paths under config at each H,
    in enough detail to reproduce them: bit generator, block size, tile
    size in bytes per buffer, how the maturities share one draw, how
    direct Euler draws int sigma dB (None for mixing, which draws none),
    kernel evaluation, convolution method ("cholesky" for the oracle) and
    the control variates of the calls and the swap leg."""
    evaluation = KERNEL_EVALUATION.get(config.scheme)
    direct = config.estimator == "direct_euler"
    return {
        "bit_generator": BIT_GENERATOR.__name__,
        "block_size": config.block_size,
        "tile_bytes": TILE_BYTES,
        "maturity_layout": MATURITY_LAYOUT,
        "independent_leg": INDEPENDENT_LEG if direct else None,
        "controls": list(CONTROLS),
        "kernel_evaluation": evaluation,
        "convolution": {
            f"H={h:g}": "cholesky" if evaluation is None else convolution_method(h)
            for h in hurst
        },
    }


def _bind_controls(
    spot: np.ndarray, x0: float, funcs: PathFunctionals
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live CONTROLS on these paths, their sample means and the
    pseudo-inverse of their centred Gram matrix, for _regress.

    spot is each path's terminal spot, or its conditional mean. Both
    controls have mean exactly zero. A constant control (the spot control
    at rho = 0 under mixing, Y at nu = 0) has zero sample variance and is
    dropped; pinv tolerates what is left being collinear. A batch too
    small to leave the regression a degree of freedom, where the fit
    would pass through every path, keeps no control.
    """
    if funcs.integrated_variance_mean is None:
        raise ValueError(
            "pricing needs functionals from simulate_functionals, which "
            "record the exact mean of the integrated variance"
        )
    mean_zero = {
        "spot_martingale": spot - math.exp(x0),
        "integrated_variance": funcs.integrated_variance
        - funcs.integrated_variance_mean,
    }
    candidates = [mean_zero[name] for name in CONTROLS]
    if not all(np.isfinite(c).all() for c in candidates):
        raise ValueError("control variates must be finite on every path")
    live = [c for c in candidates if c.min() < c.max()]
    if spot.shape[0] <= 1 + len(live):
        live = []
    controls = np.stack(live) if live else np.empty((0, spot.shape[0]))
    means = controls.mean(axis=1)
    centred = controls - means[:, None]
    return controls, means, np.linalg.pinv(centred @ centred.T)


def _regress(
    responses: Sequence[np.ndarray],
    controls: np.ndarray,
    control_means: np.ndarray,
    gram_pinv: np.ndarray,
    residuals: Sequence[np.ndarray] = (),
) -> tuple[list[PriceEstimate], np.ndarray, list[np.ndarray]]:
    """Regress per-path responses on the mean-zero controls, each with its
    own beta from the same paths: their controlled means (the mean less
    beta times the controls' means) with SEs, the covariance matrix of
    those means, and the betas.

    The fit is linear in the response, so a controlled difference is the
    difference of the controlled means and the controlled slope exactly
    the derivative of the controlled price. Each response takes one pass
    for its cross-products with the controls, one to centre it in place
    (the responses are overwritten) and one per covariance entry; no
    residual is formed. residuals, of responses fitted earlier on these
    paths, each add a column: that response's covariance with each mean.
    It divides by n less one for the mean and one per beta, so with no
    control it gives the plain sample covariances (SE 0 on a single path).
    """
    n = controls.shape[1]
    dof = max(n - 1 - controls.shape[0], 1)
    means = [values.mean() for values in responses]
    # the controls' cross-products with centred responses are their sample
    # covariances with them, up to the n - 1 the Gram matrix also omits
    cross = [
        controls @ values - (n * mean) * control_means
        for values, mean in zip(responses, means)
    ]
    betas = [gram_pinv @ c for c in cross]
    # centred, a response's cross-products need no n * mean * mean term,
    # which would cancel all but rounding of a nearly constant one
    for values, mean in zip(responses, means):
        values -= mean
    # cross-products less the part the fit explains, per degree of freedom
    # and path; a residual is orthogonal to the controls, so its product
    # with a centred response is already the residuals' cross-product
    r = len(responses)
    cov = np.empty((r, r + len(residuals)))
    for i in range(r):
        for j in range(i, r):
            fit = betas[i] @ cross[j]
            cov[i, j] = cov[j, i] = (responses[i] @ responses[j] - fit) / dof / n
        for j, residual in enumerate(residuals, r):
            cov[i, j] = responses[i] @ residual / dof / n
    controlled = [
        PriceEstimate(float(m - b @ control_means), math.sqrt(max(v, 0.0)), n)
        for m, b, v in zip(means, betas, cov.diagonal())
    ]
    return controlled, cov, betas


def strike_pricer(
    funcs: PathFunctionals,
    params: ModelParams,
    x0: float,
    maturity: float,
) -> Callable[[float], StrikeEstimate]:
    """Bind one simulated batch into a price-of-log-strike function.

    All strikes reuse the same paths (common random numbers), which makes
    differences of implied vols across strikes far less noisy than
    independent runs would be. The law comes from the functionals, whose
    estimator was chosen at simulation: it sets, once per rho, the
    per-path log spot S = e^x the law sits on and its controls, checks
    them once, and binds one of two closures.

    Direct Euler (functionals that carry int sigma dB): a point mass at the
    Euler terminal log spot x0 - Y/2 + rho int sigma dW + sqrt(1 - rho^2)
    int sigma dB. Conditional mixing (all others): given the vol path,
    X_T ~ Normal(x_hat, (1 - rho^2) Y) with x_hat = x0 + rho int sigma dW -
    rho^2 Y / 2, so each path's value is the Black-Scholes call at x_hat
    with total vol sqrt((1 - rho^2) Y), and slope -e^k N(d2); at |rho| = 1
    the law is a point mass at x_hat. A point mass prices (S - e^k)+ per
    path, with slope -e^k 1{S > e^k}.

    One regression on CONTROLS (spot control S - e^{x0}) serves the
    (simulation, rho): the swap leg sqrt(Y/T) is fitted here and kept as
    its residual; each strike fits its price and slope and pairs the price
    with the swap leg by one pass over that residual.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    rho = params.rho
    y, ito = funcs.integrated_variance, funcs.int_sigma_dw
    if funcs.int_sigma_db is not None:
        orth = math.sqrt(1.0 - rho * rho)
        log_spot = x0 + (-0.5 * y + rho * ito + orth * funcs.int_sigma_db)
        total_vol = None
    else:
        log_spot = x0 + rho * ito - 0.5 * rho * rho * y
        total_vol = np.sqrt((1.0 - rho * rho) * y) if abs(rho) < 1.0 else None
    spot = np.exp(log_spot)
    controls, control_means, _ = bound = _bind_controls(spot, x0, funcs)
    swap = np.sqrt(y / maturity)
    (swap_leg,), _, (beta,) = _regress([swap], *bound)
    # centred in place; less its fit, the swap leg's residual
    swap -= beta @ controls - beta @ control_means

    def estimate(price: np.ndarray, slope: np.ndarray) -> StrikeEstimate:
        (c, dc), cov, _ = _regress([price, slope], *bound, [swap])
        return StrikeEstimate(
            c.value, c.std_error, c.n_paths, dc.value, dc.std_error,
            cov=float(cov[0, 1]), swap=swap_leg, swap_cov=float(cov[0, 2]),
        )

    if total_vol is None:

        def price_intrinsic(k: float) -> StrikeEstimate:
            ek = math.exp(k)
            return estimate(np.maximum(spot - ek, 0.0), -ek * (spot > ek))

        return price_intrinsic

    def price_lognormal(k: float) -> StrikeEstimate:
        return estimate(*_call(log_spot, spot, k, total_vol))

    return price_lognormal
