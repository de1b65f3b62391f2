"""Lognormal fractional volatility paths and their pricing functionals.

The spot volatility is sigma_s = sigma0 * exp(nu * W^H_s - nu^2 s^{2H} / (4H)).
The drift is exactly half the variance of nu * W^H_s, so E[sigma_s] = sigma0
at every time (the path is mean-matched, not just asymptotically). A scheme
whose W^H levels have another variance keeps the drift, so its exact mean
of Y depends on that variance: see integrated_variance_mean. The
correlation rho never enters here; it is applied by the pricing layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import hyp1f1

from .fbm import GaussianPathBatch, TimeGrid

__all__ = [
    "ModelParams",
    "PathFunctionals",
    "vol_paths",
    "path_functionals",
    "integrated_variance_mean",
    "variance_swap_oracle",
]


@dataclass(frozen=True)
class ModelParams:
    """Model constants: spot vol level, vol-of-vol, correlation, roughness."""

    sigma0: float
    nu: float
    rho: float
    hurst: float

    def __post_init__(self):
        if not 0.0 < self.sigma0 < np.inf:
            raise ValueError("sigma0 must be finite and positive")
        if not 0.0 <= self.nu < np.inf:
            raise ValueError("nu must be finite and nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")


@dataclass
class PathFunctionals:
    """Per-path integrals the pricers consume.

    integrated_variance: Y = int_0^T sigma^2 ds (left-point Riemann sum).
    int_sigma_dw: int_0^T sigma dW (left-point Ito sum, adapted).
    integrated_variance_mean: the exact E[Y] of the scheme that drew the
    paths (see integrated_variance_mean), which the pricers' Y control needs.
    independent_normal: one standard normal per path, independent of W,
    only for the direct Euler estimator, which draws its terminal log spot
    from the conditional law given the vols with it.

    None of them depends on rho, so one simulation serves every
    correlation; the pricers mix them per rho.
    """

    integrated_variance: np.ndarray
    int_sigma_dw: np.ndarray
    integrated_variance_mean: float
    independent_normal: Optional[np.ndarray] = None

    def __post_init__(self):
        arrays = (self.integrated_variance, self.int_sigma_dw, self.independent_normal)
        if len({a.shape for a in arrays if a is not None}) != 1:
            raise ValueError("functional arrays must have identical shapes")
        if np.any(self.integrated_variance <= 0.0):
            raise ValueError("integrated variance must be positive on every path")

    @property
    def n_paths(self) -> int:
        return self.integrated_variance.shape[0]


def vol_paths(
    batch: GaussianPathBatch,
    params: ModelParams,
    grid: TimeGrid,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Volatility at the left grid points t_0..t_{n-1}, shape (paths, steps).

    Column 0 is sigma0 exactly (W^H_0 = 0); column i uses the batch's W^H
    level at t_i. Strictly positive everywhere. With out, an array of that
    shape, the vols are computed in place there and out is returned.
    """
    if batch.n_steps != grid.n_steps:
        raise ValueError("batch and grid disagree on the number of steps")
    shape = (batch.n_paths, grid.n_steps)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    return _vols_with_drift(batch.wh, params, _log_vol_drift(params, grid), out)


def _vols_with_drift(
    wh: np.ndarray, params: ModelParams, drift: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """vol_paths into out, with the drift of _log_vol_drift(params, grid)
    computed once by the caller, who checks the shapes."""
    out[:, 0] = 0.0
    np.multiply(wh[:, :-1], params.nu, out=out[:, 1:])
    out -= drift
    np.exp(out, out=out)
    out *= params.sigma0
    return out


def _log_vol_drift(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """nu^2 t^{2H} / (4H), subtracted from nu W^H_t in log sigma_t, at the
    left grid points t_0..t_{n-1}."""
    t = grid.times[:-1]
    return params.nu**2 * t ** (2.0 * params.hurst) / (4.0 * params.hurst)


def integrated_variance_mean(
    params: ModelParams, grid: TimeGrid, level_variance: np.ndarray
) -> float:
    """Exact mean of the left-point Y of a scheme with these W^H variances.

    level_variance[j] is the scheme's own Var W^H at the left point t_j,
    j = 0..n_steps-1, as fbm.level_variance and fbm.exact_level_variance
    give it. With the drift of vol_paths, E[sigma_j^2] =
    sigma0^2 exp(2 nu^2 V_j - nu^2 t_j^{2H} / (2H)), so

        E[Y] = dt sum_j sigma0^2 exp(2 nu^2 V_j - nu^2 t_j^{2H} / (2H)).

    Only where V_j = t_j^{2H} / (2H), as for the exact law, does this
    reduce to dt sum_j sigma0^2 exp(nu^2 V_j); a scheme that loses
    variance, like the midpoint kernel, has a smaller mean.
    """
    if level_variance.shape != (grid.n_steps,):
        raise ValueError("level_variance needs one entry per left grid point")
    drift = _log_vol_drift(params, grid)
    log_second_moment = 2.0 * (params.nu**2 * level_variance - drift)
    return float(grid.dt * params.sigma0**2 * np.exp(log_second_moment).sum())


def path_functionals(
    vols: np.ndarray, batch: GaussianPathBatch, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(Y, int sigma dW) per path: Y by left-point Riemann, int sigma dW by
    the adapted left-point Ito sum (vol at t_j times the increment over
    [t_j, t_{j+1}]). Both are row-wise dot products, with no temporary.
    """
    if vols.shape != batch.dw.shape:
        raise ValueError("vols and batch disagree on shape")
    if vols.shape[1] != grid.n_steps:
        raise ValueError("vols and grid disagree on the number of steps")
    y = np.einsum("ij,ij->i", vols, vols) * grid.dt
    return y, np.einsum("ij,ij->i", vols, batch.dw)


def variance_swap_oracle(params: ModelParams, maturity: float) -> float:
    """Closed-form fair variance-swap strike E[Y]/T = sigma0^2 1F1(a; a+1; x),
    a = 1/(2H), x = nu^2 T^{2H} / (2H): the time average of E[sigma_s^2] =
    sigma0^2 exp(nu^2 s^{2H} / (2H)) is Kummer's integral (DLMF 13.4.1)."""
    if not 0.0 < maturity < np.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity}")
    two_h = 2.0 * params.hurst
    x = params.nu**2 * maturity**two_h / two_h
    return params.sigma0**2 * float(hyp1f1(1.0 / two_h, 1.0 / two_h + 1.0, x))
