"""Acceptance suite: one test per release criterion.

Each numbered test asserts one shippable claim about the package, at the
scale pinned here (10^6 paths, 250 steps for the table grid).  Reference
table values are external targets for this model configuration; all other
expectations are computed from in-package oracles.

The full grid fixture is expensive (several minutes); everything that can
reuse it does.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fracvol.blackscholes import bs_price, implied_vol, zero_vanna_strike
from fracvol.cli import ExperimentConfig, _cell_rows, run
from fracvol.fbm import TimeGrid, cholesky_factor, kernel_weights, sample_paths
from fracvol.mcpricer import (
    McConfig,
    PriceEstimate,
    simulate_functionals,
    strike_pricer,
)
from fracvol.swapanalysis import SwapReport, convergence_study
from fracvol.volmodel import ModelParams, variance_swap_oracle

ACCEPT_PATHS = 1_000_000
ACCEPT_STEPS = 250
ACCEPT_SEED = 1000
SIGMA0 = 0.2
NU = 0.4
HURSTS = (0.1, 0.3, 0.5, 0.7, 0.9)
MATURITIES = (0.25, 0.5, 1.0, 2.0, 3.0)
VOL_TOL = 0.15  # vol points

# Reference values in percent, H -> values for T = 0.25, 0.5, 1, 2, 3.
REF_VOL_SWAP = {
    0.1: (20.48, 20.98, 21.58, 22.28, 22.76),
    0.3: (20.28, 20.44, 20.67, 21.03, 21.32),
    0.5: (20.07, 20.13, 20.26, 20.52, 20.77),
    0.7: (20.02, 20.06, 20.15, 20.38, 20.66),
    0.9: (20.01, 20.03, 20.10, 20.35, 20.69),
}
REF_IV_ZV_RHO0 = {
    0.1: (20.48, 20.97, 21.56, 22.25, 22.68),
    0.3: (20.28, 20.43, 20.67, 21.02, 21.28),
    0.5: (20.07, 20.13, 20.26, 20.51, 20.74),
    0.7: (20.02, 20.06, 20.15, 20.38, 20.63),
    0.9: (20.01, 20.03, 20.10, 20.34, 20.65),
}
REF_ATMI_RHO0 = {
    0.1: (20.48, 20.96, 21.54, 22.18, 22.56),
    0.3: (20.28, 20.43, 20.66, 20.98, 21.21),
    0.5: (20.07, 20.13, 20.26, 20.49, 20.69),
    0.7: (20.02, 20.05, 20.14, 20.36, 20.58),
    0.9: (20.01, 20.03, 20.10, 20.32, 20.60),
}
REF_IV_ZV_RHO8 = {
    0.1: (19.72, 20.08, 20.49, 20.96, 21.26),
    0.3: (20.07, 20.10, 20.16, 20.21, 20.24),
    0.5: (20.00, 20.00, 19.99, 19.96, 19.89),
    0.7: (20.00, 20.00, 19.99, 19.95, 19.86),
    0.9: (20.00, 20.00, 20.00, 19.99, 19.90),
}
REF_ATMI_RHO8 = {
    0.1: (19.47, 19.67, 19.87, 19.99, 20.02),
    0.3: (19.92, 19.85, 19.73, 19.48, 19.25),
    0.5: (19.92, 19.85, 19.68, 19.36, 19.02),
    0.7: (19.96, 19.90, 19.76, 19.43, 19.04),
    0.9: (19.97, 19.93, 19.82, 19.51, 19.11),
}


@pytest.fixture(scope="module")
def table_reports():
    """All 50 (rho, H, T) cells at acceptance scale, one simulation per H
    (each H's functionals are those of the CLI's one draw for every H,
    which would hold all five H's at once); about 2 minutes on 2 cores."""
    config = ExperimentConfig(
        n_paths=ACCEPT_PATHS,
        n_steps=ACCEPT_STEPS,
        seed=ACCEPT_SEED,
        rho=(-0.8, 0.0),
        hurst=HURSTS,
        maturities=MATURITIES,
    )
    reports = {}
    for hurst in HURSTS:
        for cell, outcome in _cell_rows(config, (hurst,)):
            assert isinstance(outcome, SwapReport), f"cell {cell} failed: {outcome}"
            reports[cell] = outcome
    return reports


def _table_failures(reports, rho, ref_iv, ref_atmi):
    failures = []
    for hurst in HURSTS:
        for t_index, maturity in enumerate(MATURITIES):
            rep = reports[(rho, hurst, maturity)]
            checks = (
                ("vol_swap", rep.vol_swap, REF_VOL_SWAP[hurst][t_index]),
                ("iv_zero_vanna", rep.iv_zero_vanna, ref_iv[hurst][t_index]),
                ("atmi", rep.atmi, ref_atmi[hurst][t_index]),
            )
            for name, value, ref_pct in checks:
                diff = 100.0 * value - ref_pct
                if abs(diff) > VOL_TOL:
                    failures.append(
                        f"H={hurst} T={maturity} {name}: "
                        f"{100 * value:.2f}% vs {ref_pct:.2f}% ({diff:+.2f})"
                    )
    return failures


def test_criterion_1_reference_table_rho0(table_reports):
    failures = _table_failures(table_reports, 0.0, REF_IV_ZV_RHO0, REF_ATMI_RHO0)
    assert not failures, (
        f"{len(failures)} cell values beyond +/-{VOL_TOL} vol points (rho=0):\n"
        + "\n".join(failures)
    )


def test_criterion_2_reference_table_rho_neg08(table_reports):
    failures = _table_failures(table_reports, -0.8, REF_IV_ZV_RHO8, REF_ATMI_RHO8)
    assert not failures, (
        f"{len(failures)} cell values beyond +/-{VOL_TOL} vol points (rho=-0.8):\n"
        + "\n".join(failures)
    )


def test_criterion_3_zero_vanna_beats_atmi_everywhere(table_reports):
    failures = []
    for (rho, hurst, maturity), rep in sorted(table_reports.items()):
        combined = math.hypot(rep.err_zero_vanna_se, rep.err_atmi_se)
        if abs(rep.err_zero_vanna) > abs(rep.err_atmi) + 2.0 * combined:
            failures.append(
                f"rho={rho} H={hurst} T={maturity}: "
                f"|{rep.err_zero_vanna:.5f}| > |{rep.err_atmi:.5f}| + 2*{combined:.5f}"
            )
    assert not failures, "ordering violated in:\n" + "\n".join(failures)


def test_criterion_4_gap_decay_rates(table_reports):
    fit_maturities = [0.5, 1.0, 2.0, 3.0]
    for hurst in (0.3, 0.5):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=-0.8, hurst=hurst)
        series = [table_reports[(-0.8, hurst, t)] for t in fit_maturities]
        fits = convergence_study(params, series)
        fit = fits["err_zero_vanna"]
        assert not fit.inconclusive, f"H={hurst}: fit inconclusive"
        assert len(fit.maturities) >= 3, f"H={hurst}: only {fit.maturities} usable"
        low, high = 2 * hurst - 0.3, 2 * hurst + 0.3
        assert low <= fit.slope <= high, (
            f"H={hurst}: slope {fit.slope:.3f} outside [{low:.2f}, {high:.2f}] "
            f"(points {fit.maturities})"
        )
    # Uncorrelated gaps decay too fast to resolve against the legs'
    # quadrature SE, the SE of the gap were its two legs priced on
    # independent paths: statistically zero at short maturities. The
    # paired SE, err_zero_vanna_se, is far smaller and resolves them.
    for hurst in HURSTS:
        for maturity in (0.25, 0.5, 1.0):
            rep = table_reports[(0.0, hurst, maturity)]
            quadrature_se = math.hypot(rep.iv_zero_vanna_se, rep.vol_swap_se)
            assert abs(rep.err_zero_vanna) < 3.0 * quadrature_se, (
                f"rho=0 H={hurst} T={maturity}: err {rep.err_zero_vanna:.6f} "
                f"exceeds 3 quadrature SE {3 * quadrature_se:.6f}"
            )


def test_criterion_5_moment_oracles():
    n_paths = 100_000
    maturity = 1.0
    for hurst in (0.1, 0.5, 0.9):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=0.0, hurst=hurst)
        grid = TimeGrid(maturity, ACCEPT_STEPS)
        weights = kernel_weights(grid, hurst)
        batch = sample_paths(grid, weights, n_paths, seed=ACCEPT_SEED + 17)
        wh_T = batch.wh[:, -1]
        sigma_T = SIGMA0 * np.exp(
            NU * wh_T - 0.25 * NU**2 * maturity ** (2 * hurst) / hurst
        )
        mean = sigma_T.mean()
        se = sigma_T.std(ddof=1) / math.sqrt(n_paths)
        assert abs(mean - SIGMA0) < 3 * se, f"H={hurst}: E[sigma_T] {mean:.5f}"
        second = (sigma_T**2).mean()
        second_se = (sigma_T**2).std(ddof=1) / math.sqrt(n_paths)
        target = SIGMA0**2 * math.exp(NU**2 * maturity ** (2 * hurst) / (2 * hurst))
        assert abs(second - target) < 3 * second_se, (
            f"H={hurst}: E[sigma_T^2] {second:.6f} vs {target:.6f}"
        )
        config = McConfig(n_paths=n_paths, seed=ACCEPT_SEED + 17)
        (funcs,) = simulate_functionals(grid, params, config)
        var_swap = funcs.integrated_variance / maturity
        estimate = var_swap.mean()
        estimate_se = var_swap.std(ddof=1) / math.sqrt(n_paths)
        oracle = variance_swap_oracle(params, maturity)
        assert abs(estimate - oracle) < 3 * estimate_se, (
            f"H={hurst}: variance swap {estimate:.6f} vs oracle {oracle:.6f}"
        )


def test_criterion_6_path_law_checks():
    # exact second-moment telescoping of the kernel weights
    for hurst in HURSTS:
        for maturity in (1.0, 3.0):
            grid = TimeGrid(maturity, ACCEPT_STEPS)
            weights = kernel_weights(grid, hurst).weights
            running = np.cumsum(weights**2) * grid.dt
            target = grid.times[1:] ** (2 * hurst) / (2 * hurst)
            assert np.max(np.abs(running - target)) < 1e-12
    # distributional agreement with the exact joint construction
    n_paths, n_steps = 10_000, 64
    grid = TimeGrid(1.0, n_steps)
    for hurst, seed_a, seed_b in ((0.1, 23, 29), (0.3, 23, 29), (0.7, 23, 29)):
        conv = sample_paths(grid, kernel_weights(grid, hurst), n_paths, seed=seed_a)
        chol = sample_paths(grid, cholesky_factor(grid, hurst), n_paths, seed=seed_b)
        result = stats.ks_2samp(conv.wh[:, -1], chol.wh[:, -1])
        assert result.pvalue > 0.01, f"H={hurst}: KS p={result.pvalue:.4f}"
    # H = 0.5 must reduce to a cumulative sum of the increments, bitwise
    batch = sample_paths(grid, kernel_weights(grid, 0.5), 1_000, seed=31)
    assert np.array_equal(batch.wh, np.cumsum(batch.dw, axis=1))


def test_criterion_7_implied_vol_analytics(table_reports):
    rng = np.random.default_rng(20260819)
    n_points = 1_000
    x = rng.uniform(-0.5, 0.5, n_points)
    vol = rng.uniform(0.05, 0.8, n_points)
    tau = rng.uniform(0.05, 5.0, n_points)
    # strikes within three ATM standard deviations: beyond that the
    # price-vol map is flat at float64 and carries no vol information
    moneyness = rng.uniform(-3.0, 3.0, n_points)
    k = x - moneyness * vol * np.sqrt(tau)
    worst = 0.0
    for i in range(n_points):
        price = float(bs_price(x[i], k[i], vol[i], tau[i]))
        recovered = implied_vol(price, x[i], k[i], tau[i]).vol
        worst = max(worst, abs(recovered - vol[i]))
    assert worst < 1e-10, f"worst roundtrip error {worst:.2e}"

    residuals = [rep.zero_vanna_residual for rep in table_reports.values()]
    assert max(residuals) < 1e-8, f"worst residual {max(residuals):.2e}"

    const_vol, const_tau, const_x = 0.23, 1.7, 0.1
    k_hat = zero_vanna_strike(lambda k: (const_vol, 0.0), const_x, const_tau).strike
    assert abs(k_hat - (const_x - const_vol**2 * const_tau / 2.0)) < 1e-12


def test_criterion_8_byte_identical_csv(tmp_path):
    base = dict(
        n_paths=4_000,
        n_steps=16,
        seed=77,
        hurst=(0.3, 0.5),
        maturities=(0.5, 1.0),
        rho=(-0.8, 0.0),
    )
    outputs = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
        out = tmp_path / name
        config = ExperimentConfig(out=str(out), workers=workers, **base)
        with open("/dev/null", "w") as sink:
            assert run(config, stream=sink) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "rerun changed CSV bytes"
    assert outputs[0] == outputs[2], "worker count changed CSV bytes"


def test_both_estimators_agree_at_scale():
    # the table grid runs the conditional estimator; this exercises the
    # direct estimator at scale and ties the two together
    n_paths = 200_000
    maturity = 1.0
    grid = TimeGrid(maturity, ACCEPT_STEPS)
    for rho in (0.0, -0.8):
        params = ModelParams(sigma0=SIGMA0, nu=NU, rho=rho, hurst=0.3)
        config = McConfig(
            n_paths=n_paths, seed=ACCEPT_SEED + 23, estimator="direct_euler"
        )
        (funcs,) = simulate_functionals(grid, params, config)
        # the pricer reads the law off the functionals: without the
        # independent normal the same paths price by conditional mixing
        direct = strike_pricer(funcs, params, 0.0, maturity)
        conditional = strike_pricer(
            replace(funcs, independent_normal=None), params, 0.0, maturity
        )
        for k in (-0.1, 0.0, 0.1):
            a: PriceEstimate = direct(k)
            b: PriceEstimate = conditional(k)
            gap = abs(a.value - b.value)
            budget = 3.0 * math.hypot(a.std_error, b.std_error)
            assert gap <= budget, (
                f"rho={rho} k={k}: direct {a.value:.6f} vs "
                f"conditional {b.value:.6f}, gap {gap:.2e} > {budget:.2e}"
            )
