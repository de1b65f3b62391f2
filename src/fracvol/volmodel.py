"""Lognormal fractional volatility paths and their pricing functionals.

The spot volatility is sigma_s = sigma0 * exp(nu * W^H_s - nu^2 s^{2H} / (4H)).
The drift is exactly half the variance of nu * W^H_s, so E[sigma_s] = sigma0
at every time (the path is mean-matched, not just asymptotically). The
correlation rho never enters here; it is applied by the pricing layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .fbm import GaussianPathBatch, TimeGrid

__all__ = [
    "ModelParams",
    "PathFunctionals",
    "vol_paths",
    "path_functionals",
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
    int_sigma_db: int_0^T sigma dB against the orthogonal Brownian driver,
    drawn only for the direct Euler estimator.

    None of them depends on rho, so one simulation serves every
    correlation; the pricers mix them per rho.
    """

    integrated_variance: np.ndarray
    int_sigma_dw: np.ndarray
    int_sigma_db: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.integrated_variance.shape != self.int_sigma_dw.shape:
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
    t_left = grid.times[:-1]
    drift = params.nu**2 * t_left ** (2.0 * params.hurst) / (4.0 * params.hurst)
    out[:, 0] = 0.0
    np.multiply(batch.wh[:, :-1], params.nu, out=out[:, 1:])
    out -= drift
    np.exp(out, out=out)
    out *= params.sigma0
    return out


def path_functionals(
    vols: np.ndarray,
    batch: GaussianPathBatch,
    grid: TimeGrid,
    scratch: Optional[np.ndarray] = None,
) -> PathFunctionals:
    """Integrate each path: Y by left-point Riemann, int sigma dW by the
    adapted left-point Ito sum (vol at t_j times the increment over
    [t_j, t_{j+1}]).

    scratch, an array of vols' shape, receives the squared vols, which
    overwrites it; without it they go to a new array.
    """
    if vols.shape != batch.dw.shape:
        raise ValueError("vols and batch disagree on shape")
    if vols.shape[1] != grid.n_steps:
        raise ValueError("vols and grid disagree on the number of steps")
    y = np.sum(np.square(vols, out=scratch), axis=1) * grid.dt
    ito = np.einsum("ij,ij->i", vols, batch.dw)
    return PathFunctionals(integrated_variance=y, int_sigma_dw=ito)


def variance_swap_oracle(params: ModelParams, maturity: float) -> float:
    """Closed-form fair variance-swap strike E[Y]/T.

    E[sigma_s^2] = sigma0^2 exp(nu^2 s^{2H} / (2H)), integrated by adaptive
    quadrature to relative error below 1e-10.
    """
    if maturity <= 0.0:
        raise ValueError("maturity must be positive")
    if params.nu == 0.0:
        return params.sigma0**2
    two_h = 2.0 * params.hurst

    def second_moment(s):
        return np.exp(params.nu**2 * s**two_h / two_h)

    val, _ = quad(second_moment, 0.0, maturity, epsabs=0.0, epsrel=1e-12, limit=200)
    return params.sigma0**2 * val / maturity
