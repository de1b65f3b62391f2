"""Monte Carlo estimators for calls and the volatility-swap strike.

The estimator is chosen once, when the paths are simulated
(McConfig.estimator), and the pricer reads it off the rho-free
functionals, so one simulation serves every correlation. Given the vol
path both read one law, X_T ~ Normal(x_hat - v / 2, v): conditional
mixing integrates it out, so each path contributes a Black-Scholes
value, and direct Euler averages the payoff on one draw of it per path
(INDEPENDENT_LEG).

Each (simulation, rho) has one regression on three control variates,
CONTROLS, whose means are exact in the discrete scheme:

- the spot martingale less e^{x0};
- the integrated variance Y less its exact discrete mean, which
  simulate_functionals records;
- the exponential martingale exp(lambda int sigma dW - lambda^2 Y / 2) - 1
  with lambda = -2 |rho|, strike-free, which removes most of the mixing
  estimator's own noise that the spot control leaves.

The two martingales have mean exactly zero under every scheme and both
estimators: sigma_j is adapted and each increment dW_j is exactly
Normal(0, dt) given the past, so each left-point factor
exp(lambda sigma_j dW_j - lambda^2 sigma_j^2 dt / 2) has conditional mean
1. The sign of lambda matters. The control stands for the measure tilted
by it, under which W drifts by lambda sigma and the vol moves with the
sign of lambda; with lambda = +2 rho at rho > 0 that tilt pushes the vol
up into its lognormal tail, and the control's rare huge values make the
regression's SE understate the spread across seeds (about 2x for the
zero-vanna gap at H = 0.1, T = 1, rho = 0.8). At rho = 0 it is constant
and dropped.

The regression's responses are the volatility-swap leg sqrt(Y/T),
fitted once when the pricer binds, and each strike's price with its
pathwise log-strike slope dC/dk (Broadie & Glasserman, Management
Science 1996), betas from the same paths. So every
estimate carries the means, SEs and covariances of its price, slope and
swap leg, and the gap between an implied vol and the swap leg has a
paired SE.

Everything is deterministic given (seed, n_paths, block_size, grid, params):
per-path arrays are written by path position and reduced once, so results
do not depend on which tile worker drew which tile, nor on the other H
values simulated with them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import volmodel
from .blackscholes import _call
from .fbm import (
    B_STREAM,
    BIT_GENERATOR,
    DEFAULT_BLOCK_SIZE,
    TILE_BYTES,
    GaussianPathBatch,
    TimeGrid,
    block_rng,
    cholesky_factor,
    convolution_method,
    exact_level_variance,
    for_each_tile,
    iter_path_blocks,  # not called here: perfbench/spans.py wraps this name
    kernel_weights,
    level_variance,
    tile_rows,
)
from .volmodel import (
    ModelParams,
    PathFunctionals,
    integrated_variance_mean,
    # not called here: perfbench/spans.py wraps these two names
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
    "pricer_workspace",
    "VALID_SCHEMES",
    "VALID_ESTIMATORS",
    "CONTROLS",
    "HURST_LAYOUT",
    "MATURITY_LAYOUT",
    "INDEPENDENT_LEG",
]

VALID_SCHEMES = ("convolution", "midpoint_convolution", "cholesky_oracle")
VALID_ESTIMATORS = ("conditional_mixing", "direct_euler")
# the control variates the calls and the swap leg are regressed on, in order
CONTROLS = ("spot_martingale", "integrated_variance", "exponential_martingale")
# how every H of one simulation shares its draw
HURST_LAYOUT = "one draw per seed serves every H"
# how every maturity of one simulation is read off its single draw
MATURITY_LAYOUT = (
    "one unit-maturity draw per simulation; maturity T reads it with nu * T^H, "
    "then scales Y and E[Y] by T and int sigma dW by sqrt(T)"
)
# how the direct Euler estimator draws its terminal log spot from the
# conditional law Normal(x_hat - v / 2, v) given the vol path
INDEPENDENT_LEG = (
    "x_hat - v / 2 + sqrt(v) * z: one standard normal z per path from block 0 "
    "of B_STREAM, shared by every maturity"
)
# a tile's vols and functionals are taken in this many row chunks, so the
# vol buffer is a fraction of a tile; vol_paths is elementwise and
# path_functionals sums each row on its own, so the chunks change no bit
VOL_CHUNKS = 4
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
        # written so that a NaN fails too
        if not self.std_error >= 0.0:
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
        if not self.slope_se >= 0.0:
            raise ValueError("slope_se must be nonnegative")


def simulate_functionals(
    grid: TimeGrid,
    params: ModelParams,
    config: McConfig,
    maturities: Sequence[float] | None = None,
    hurst: Sequence[float] | None = None,
) -> list[PathFunctionals]:
    """Draw one batch of paths and keep only the per-path functionals, one
    PathFunctionals per (H, maturity), H-major, each on grid.n_steps
    steps.

    hurst defaults to (params.hurst,), and params.hurst is not read
    otherwise; maturities defaults to (grid.maturity,), and grid only sets
    the step count otherwise. One unit-maturity draw serves every H and
    maturity (HURST_LAYOUT, MATURITY_LAYOUT): the normals depend on the
    seed only, so each H's functionals are bit for bit those of a run at
    that H alone. From the same normals, TimeGrid(T, n) has sqrt(T) times
    the increments and, by Riemann-Liouville self-similarity, T^H times
    the W^H levels of TimeGrid(1, n), so its vol path is the unit-grid one
    with vol-of-vol nu * T^H. So Y and its exact mean E[Y] at T are T
    times the unit-grid ones at nu * T^H, and int sigma dW is sqrt(T)
    times.

    fbm.for_each_tile streams every RNG block through tiles of at most
    fbm.TILE_BYTES per buffer on two tile workers: each tile is drawn
    once and, for each H, multiplied by that H's triangular matrix, then
    every maturity's vols and functionals are taken from it, in VOL_CHUNKS
    row chunks, while it is in cache, and written by path position. The
    log-vol drift of each (H, T) is computed once per call. Every scheme
    streams alike; the Cholesky oracle differs only in its law, the factor
    of the exact covariance, whose tiles draw 2 n_steps normals per path
    from fbm.ORACLE_STREAM. Memory is a few tile buffers (per worker, its
    draw tile, its product tile and a quarter-tile of vols) plus
    O(n_paths x H x maturities) for the functionals, and per H its
    convolution matrix, or for the oracle its (2 n_steps)^2 factor.

    The workers call volmodel's functions directly, not the names this
    module imports, which the benchmark's span wrappers replace with
    single-threaded ones; those names are kept importable for them.

    The functionals are rho-free: params.rho is never read. For direct
    Euler they carry independent_normal, one standard normal per path
    from block 0 of B_STREAM, independent of W, with which the pricer
    draws (INDEPENDENT_LEG). Every H and maturity holds the same array, so
    the draws of two maturities are perfectly correlated; each maturity's
    marginal law is exact, and nothing reads the joint law across
    maturities. The exact E[Y] of the scheme, which the pricers' Y
    control needs, is recorded from the scheme's own W^H variances.
    """
    maturities = (grid.maturity,) if maturities is None else tuple(maturities)
    if not maturities or not all(0.0 < t < math.inf for t in maturities):
        raise ValueError("maturities must be a nonempty list of positive finite values")
    hurst = (params.hurst,) if hurst is None else tuple(hurst)
    if not hurst:
        raise ValueError("hurst must be a nonempty list")
    unit = TimeGrid(1.0, grid.n_steps)
    # the unit-grid params and log-vol drift of each (H, T), H-major
    scaled = [
        replace(params, hurst=h, nu=params.nu * t**h) for h in hurst for t in maturities
    ]
    drifts = [volmodel._log_vol_drift(p, unit) for p in scaled]
    y, ito = np.empty((2, len(scaled), config.n_paths))

    if config.scheme == "cholesky_oracle":
        laws = [cholesky_factor(unit, h) for h in hurst]
        variances = [exact_level_variance(unit, h) for h in hurst]
    else:
        evaluation = KERNEL_EVALUATION[config.scheme]
        laws = [kernel_weights(unit, h, evaluation) for h in hurst]
        variances = [level_variance(unit, w) for w in laws]
    chunk = -(-tile_rows(unit.n_steps) // VOL_CHUNKS)

    def consumer():
        vol = np.empty((min(chunk, config.n_paths), unit.n_steps))

        def consume(h: int, first: int, tile: GaussianPathBatch) -> None:
            for start in range(0, tile.n_paths, chunk):
                part = GaussianPathBatch(
                    dw=tile.dw[start : start + chunk], wh=tile.wh[start : start + chunk]
                )
                rows = slice(first + start, first + start + part.n_paths)
                for k in range(h * len(maturities), (h + 1) * len(maturities)):
                    vols = volmodel._vols_with_drift(
                        part.wh, scaled[k], drifts[k], vol[: part.n_paths]
                    )
                    y[k, rows], ito[k, rows] = volmodel.path_functionals(vols, part, unit)

        return consume

    for_each_tile(unit, laws, config.n_paths, config.seed, consumer, config.block_size)

    z = None
    if config.estimator == "direct_euler":
        z = block_rng(config.seed, B_STREAM, 0).standard_normal(config.n_paths)
    out = []
    for k, unit_params in enumerate(scaled):
        t = maturities[k % len(maturities)]
        y[k] *= t
        ito[k] *= math.sqrt(t)
        variance = variances[k // len(maturities)]
        mean = t * integrated_variance_mean(unit_params, unit, variance)
        out.append(
            PathFunctionals(
                integrated_variance=y[k],
                int_sigma_dw=ito[k],
                independent_normal=z,
                integrated_variance_mean=mean,
            )
        )
    return out


def simulation_record(config: McConfig, hurst: Sequence[float]) -> dict[str, object]:
    """How simulate_functionals draws its paths under config at each H,
    in enough detail to reproduce them: bit generator, the one seed, block
    size, tile size in bytes per buffer, how the H values and the
    maturities share one draw, how direct Euler draws its spot (None for
    mixing, which draws none), kernel evaluation, convolution method
    ("cholesky" for the oracle) and the control variates of the calls and
    the swap leg."""
    evaluation = KERNEL_EVALUATION.get(config.scheme)
    direct = config.estimator == "direct_euler"
    return {
        "bit_generator": BIT_GENERATOR.__name__,
        "seed": config.seed,
        "block_size": config.block_size,
        "tile_bytes": TILE_BYTES,
        "hurst_layout": HURST_LAYOUT,
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
    spot: np.ndarray, x0: float, rho: float, funcs: PathFunctionals, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live CONTROLS on these paths, their sample means and the
    pseudo-inverse of their centred Gram matrix, for _regress.

    spot is each path's terminal spot, or its conditional mean. Every
    control has mean exactly zero; the exponential martingale's slope is
    _martingale_slope(rho). A constant control (the spot control at
    rho = 0 under mixing, Y at nu = 0, the exponential martingale at
    rho = 0) has zero sample variance and is dropped; pinv tolerates what
    is left being collinear. A batch too small to leave the regression a
    degree of freedom, where the fit would pass through every path, keeps
    no control. out is 2 len(CONTROLS) path-length rows: the controls are
    filled into its first half in CONTROLS order, a dropped one
    overwritten by the next, so the live ones are its leading rows, and
    the second half is scratch for centring them.
    """
    y, y_mean = funcs.integrated_variance, funcs.integrated_variance_mean
    lam = _martingale_slope(rho)
    buffer, centred = out[: len(CONTROLS)], out[len(CONTROLS) :]
    live = 0
    np.subtract(spot, math.exp(x0), out=buffer[live])
    live = _keep_if_varies(buffer, live)
    np.subtract(y, y_mean, out=buffer[live])
    live = _keep_if_varies(buffer, live)
    # lambda (int sigma dW - lambda Y / 2), with no temporary
    row = buffer[live]
    np.multiply(y, -0.5 * lam, out=row)
    row += funcs.int_sigma_dw
    row *= lam
    np.exp(row, out=row)
    row -= 1.0
    live = _keep_if_varies(buffer, live)
    if spot.shape[0] <= 1 + live:
        live = 0
    controls, centred = buffer[:live], centred[:live]
    means = controls.mean(axis=1)
    np.subtract(controls, means[:, None], out=centred)
    return controls, means, np.linalg.pinv(centred @ centred.T)


def _keep_if_varies(buffer: np.ndarray, live: int) -> int:
    """The live count once row ``live`` of buffer is judged: one more if
    the row varies across paths. Raises ValueError unless it is finite."""
    # a NaN or an infinity shows in the extremes
    low, high = buffer[live].min(), buffer[live].max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("control variates must be finite on every path")
    return live + bool(low < high)


def _martingale_slope(rho: float) -> float:
    """lambda of the exponential-martingale control exp(lambda int sigma dW
    - lambda^2 Y / 2) - 1: -2 |rho|, so the tilt it stands for pushes the
    vol down at either sign of rho and the control keeps a light tail."""
    return -2.0 * abs(rho)


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


_WORKSPACE_ROWS = 6 + len(CONTROLS)


def pricer_workspace(funcs: PathFunctionals) -> np.ndarray:
    """An uninitialised workspace that strike_pricer binds funcs, or any
    functionals of the same path count, into.

    Its path-length float64 rows are, in order: the spot, the CONTROLS,
    each strike's price and slope, the swap leg's residual, the log spot
    and the total vol. While the pricer binds, the len(CONTROLS) rows
    after the controls (price, slope and swap, so at most three controls)
    centre them.
    """
    return np.empty((_WORKSPACE_ROWS, funcs.n_paths))


def strike_pricer(
    funcs: PathFunctionals,
    params: ModelParams,
    x0: float,
    maturity: float,
    out: np.ndarray | None = None,
) -> Callable[[float], StrikeEstimate]:
    """Bind one simulated batch into a price-of-log-strike function.

    All strikes reuse the same paths (common random numbers), which makes
    differences of implied vols across strikes far less noisy than
    independent runs would be. Given the vol path, both estimators read
    one law, X_T ~ Normal(x_hat - v / 2, v), with x_hat = x0 + rho int
    sigma dW - rho^2 Y / 2 and v = (1 - rho^2) Y (McCrickerd & Pakkanen,
    Quantitative Finance 2018). Once per rho the pricer builds x_hat,
    sqrt(v), the spot S = e^x the payoff sits on and its controls, checks
    them, and binds one of two closures.

    Conditional mixing integrates the law out: per path, the Black-Scholes
    call at x_hat with total vol sqrt(v), and slope -e^k N(d2). Direct
    Euler (functionals that carry independent_normal z) takes one draw,
    x_hat - v / 2 + sqrt(v) z, the Euler terminal log spot. At |rho| = 1,
    v = 0 and either estimator's law is the point mass at x_hat. A point
    mass prices (S - e^k)+ per path, with slope -e^k 1{S > e^k}.

    One regression on CONTROLS (spot control S - e^{x0}) serves the
    (simulation, rho): the swap leg sqrt(Y/T) is fitted here and kept as
    its residual; each strike fits its price and slope and pairs the price
    with the swap leg by one pass over that residual.

    Every path-length array the pricer needs lives in out, a
    pricer_workspace(funcs) (allocated if not given), so neither binding
    nor pricing a strike allocates one. The pricer stays valid until the
    next bind into the same out. Raises ValueError if out is not a
    C-contiguous float64 array of pricer_workspace(funcs)'s shape.
    """
    if not 0.0 < maturity < math.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity}")
    shape = (_WORKSPACE_ROWS, funcs.n_paths)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    rho = params.rho
    y, ito = funcs.integrated_variance, funcs.int_sigma_dw
    n_controls = len(CONTROLS)
    spot, log_spot, total_vol = out[0], out[-2], out[-1]
    strike_rows = out[1 + n_controls : 3 + n_controls]
    price, slope = strike_rows
    swap = out[3 + n_controls]
    # x_hat and sqrt(v) in the operation order of their formulas, with the
    # price row, free until a strike is priced, as scratch
    np.multiply(ito, rho, out=log_spot)
    log_spot += x0
    np.multiply(y, 0.5 * rho * rho, out=price)
    log_spot -= price
    np.multiply(y, 1.0 - rho * rho, out=total_vol)
    np.sqrt(total_vol, out=total_vol)
    z = funcs.independent_normal
    if z is not None:
        # direct Euler's one draw, x_hat - v / 2 + sqrt(v) z
        np.multiply(y, 0.5 * (1.0 - rho * rho), out=price)
        log_spot -= price
        np.multiply(total_vol, z, out=price)
        log_spot += price
    np.exp(log_spot, out=spot)
    bound = _bind_controls(spot, x0, rho, funcs, out[1 : 1 + 2 * n_controls])
    controls, control_means, _ = bound
    np.divide(y, maturity, out=swap)
    np.sqrt(swap, out=swap)
    (swap_leg,), _, (beta,) = _regress([swap], *bound)
    # centred in place; less its fit, the swap leg's residual
    np.matmul(beta, controls, out=price)
    price -= beta @ control_means
    swap -= price

    def estimate() -> StrikeEstimate:
        (c, dc), cov, _ = _regress([price, slope], *bound, [swap])
        return StrikeEstimate(
            c.value, c.std_error, c.n_paths, dc.value, dc.std_error,
            cov=float(cov[0, 1]), swap=swap_leg, swap_cov=float(cov[0, 2]),
        )

    if z is not None or abs(rho) == 1.0:

        def price_intrinsic(k: float) -> StrikeEstimate:
            ek = math.exp(k)
            np.subtract(spot, ek, out=price)
            np.maximum(price, 0.0, out=price)
            np.greater(spot, ek, out=slope)
            np.multiply(slope, -ek, out=slope)
            return estimate()

        return price_intrinsic

    def price_lognormal(k: float) -> StrikeEstimate:
        _call(log_spot, spot, k, total_vol, strike_rows)
        return estimate()

    return price_lognormal
