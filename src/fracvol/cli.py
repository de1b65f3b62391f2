"""Command-line experiment runner.

Sweeps a (hurst, maturity, rho) grid, writes one CSV row per cell plus a
JSON manifest, and prints a human-readable summary in percent units.  The
hurst axis is split into one contiguous group per worker; a task
simulates its group once, one draw for every H and maturity, and prices
all its (rho, H, T) cells.  Every H draws from the config's seed, so an
H's numbers do not depend on its group.  The CSV carries raw
full-precision decimals and is byte-identical across reruns and worker
counts: results are emitted in sorted (rho, H, T) order, and the manifest
(which carries a timestamp) lives in a separate file.

Config file format, overridable by flags::

    # comment
    sigma0 = 0.2
    rho = [0.0, -0.8]
    n_paths = 200000

Exit codes: 0 all cells priced, 1 at least one cell failed (partial CSV
retained, failed cells marked FAILED), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import numbers
import platform
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .blackscholes import ConvergenceError
from .fbm import ORACLE_MAX_STEPS, TimeGrid
from .mcpricer import (
    VALID_ESTIMATORS,
    VALID_SCHEMES,
    McConfig,
    pricer_workspace,
    simulate_functionals,
    simulation_record,
    strike_pricer,
)
from .swapanalysis import (
    RateFit,
    SwapReport,
    analysis_record,
    check_fit_maturities,
    convergence_study,
    zero_vanna_report,
)
from .volmodel import ModelParams

VALID_MODES = ("tables", "convergence")

# CSV column -> the SwapReport field it carries, in column order
CSV_COLUMNS = {
    "H": "hurst",
    "T": "maturity",
    "rho": "rho",
    "vol_swap": "vol_swap",
    "vol_swap_se": "vol_swap_se",
    "iv_zero_vanna": "iv_zero_vanna",
    "iv_zero_vanna_se": "iv_zero_vanna_se",
    "atmi": "atmi",
    "atmi_se": "atmi_se",
    "atm_skew": "atm_skew",
    "atm_skew_se": "atm_skew_se",
    "err_zero_vanna": "err_zero_vanna",
    "err_zero_vanna_se": "err_zero_vanna_se",
    "err_atmi": "err_atmi",
    "err_atmi_se": "err_atmi_se",
    "k_hat": "k_hat",
    "zero_vanna_residual": "zero_vanna_residual",
    "n_paths": "n_paths",
    "seed": "seed",
}

# what solving a cell took, per cell in the manifest (the SwapReport
# fields; analysis_record sums them over the run)
COST_FIELDS = (
    "pricer_calls",
    "zero_vanna_evals",
    "zero_vanna_bisected",
    "iv_evals",
    "iv_bisections",
)

FAILED_TOKEN = "FAILED"
# Failures that mark a cell FAILED; anything else is a bug and propagates.
NUMERICAL_ERRORS = (ValueError, ConvergenceError, np.linalg.LinAlgError)

# Spot is normalized: all cells price at log-spot x0 = 0.
X0 = 0.0


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or malformed config."""


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _has_type_of(value: object, default: object) -> bool:
    """Whether value has the type of a key's default; a bool is no number."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(map(_is_real, value))
    if isinstance(default, float):
        return _is_real(value)
    return type(value) is type(default)  # int or str


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; every field has a sensible default."""

    sigma0: float = 0.2
    nu: float = 0.4
    rho: tuple[float, ...] = (-0.8, 0.0)
    hurst: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    maturities: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 3.0)
    n_steps: int = 250
    n_paths: int = 200_000
    seed: int = 1000
    estimator: str = "conditional_mixing"
    scheme: str = "convolution"
    out: str = "results.csv"
    mode: str = "tables"
    workers: int = 1

    def __post_init__(self) -> None:
        for name, default in _DEFAULTS.items():
            if not _has_type_of(getattr(self, name), default):
                raise ConfigError(
                    f"key '{name}': expected {_EXPECTED[type(default)]}, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("rho", "hurst", "maturities"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"key '{name}': list must not be empty")
            # cells and output rows are keyed by their :g labels
            labels = {f"{value:g}" for value in values}
            if len(set(values)) != len(values) or len(labels) != len(values):
                raise ConfigError(f"key '{name}': values must be distinct to 6 digits")
        for name, bound in (("n_paths", 2), ("workers", 1)):
            if getattr(self, name) < bound:
                raise ConfigError(f"key '{name}': must be at least {bound}")
        # McConfig, TimeGrid and ModelParams own their ranges and choices;
        # their messages lead with the offending field's name
        mc_fields = ("n_paths", "seed", "scheme", "estimator")
        checks = [(McConfig, {name: getattr(self, name) for name in mc_fields})]
        checks += [
            (TimeGrid, dict(maturity=t, n_steps=self.n_steps)) for t in self.maturities
        ]
        checks += [
            (ModelParams, dict(sigma0=self.sigma0, nu=self.nu, rho=rho, hurst=hurst))
            for rho in self.rho
            for hurst in self.hurst
        ]
        for owner, values in checks:
            try:
                owner(**values)
            except ValueError as exc:
                field = str(exc).split()[0]
                key = {"maturity": "maturities"}.get(field, field)
                raise ConfigError(f"key '{key}': {exc}, got {values[field]!r}") from None
        if self.scheme == "cholesky_oracle" and self.n_steps > ORACLE_MAX_STEPS:
            raise ConfigError(
                f"key 'n_steps': cholesky_oracle supports at most "
                f"{ORACLE_MAX_STEPS} steps, got {self.n_steps}"
            )
        if self.mode not in VALID_MODES:
            raise ConfigError(
                f"key 'mode': must be one of {VALID_MODES}, got '{self.mode}'"
            )
        if self.mode == "convergence":
            try:
                check_fit_maturities(self.maturities)
            except ValueError as exc:
                raise ConfigError(f"key 'maturities': convergence mode: {exc}") from None


# A key's type is its default's: tuple (a float list), float, int or str.
_DEFAULTS = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
_EXPECTED = {tuple: "a list of numbers", float: "a number", int: "an int", str: "a str"}


def _parse_float(key: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got '{token}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': value must be finite, got '{token}'")
    return value


def _parse_int(key: str, token: str) -> int:
    # an integer literal parses exactly, at any size; scientific notation
    # is accepted for integer keys when integral (n_paths = 2e5), anything
    # fractional is a type mismatch
    try:
        return int(token)
    except ValueError:
        pass
    value = _parse_float(key, token)
    if value != int(value):
        raise ConfigError(f"key '{key}': expected an integer, got '{token}'")
    return int(value)


def parse_config(text: str) -> dict[str, object]:
    """Parse ``key = value`` / ``key = [list]`` config text.

    Returns only the keys present; merging with defaults happens in
    build_config.  Unknown keys, duplicate keys, type mismatches, and
    empty lists raise ConfigError naming the offending key.
    """
    parsed: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in parsed:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"key '{key}': missing value")
        is_list = value.startswith("[") and value.endswith("]")
        default = _DEFAULTS[key]
        if isinstance(default, tuple):
            if not is_list:
                raise ConfigError(f"key '{key}': expected a [list], got '{value}'")
            tokens = [t.strip() for t in value[1:-1].split(",") if t.strip()]
            if not tokens:
                raise ConfigError(f"key '{key}': list must not be empty")
            parsed[key] = tuple(_parse_float(key, t) for t in tokens)
        elif is_list:
            raise ConfigError(f"key '{key}': expected a scalar, got a list")
        elif isinstance(default, float):
            parsed[key] = _parse_float(key, value)
        elif isinstance(default, int):
            parsed[key] = _parse_int(key, value)
        else:
            parsed[key] = value
    return parsed


def build_config(
    file_values: dict[str, object] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge defaults < config file < command-line overrides."""
    merged: dict[str, object] = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    for key, value in merged.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key '{key}'")
        # anything else is left to ExperimentConfig's type check
        if isinstance(value, (list, tuple)) and all(map(_is_real, value)):
            merged[key] = tuple(sorted(value))
    return ExperimentConfig(**merged)


def _mc_config(config: ExperimentConfig) -> McConfig:
    # one seed for every H: a simulation serves every maturity of its H
    # values, and its functionals are rho-free, so every (rho, H, T) cell
    # prices on it, whichever the estimator
    return McConfig(
        n_paths=config.n_paths,
        seed=config.seed,
        scheme=config.scheme,
        estimator=config.estimator,
    )


Cell = tuple[float, float, float]  # (rho, H, T), the CSV's sort order


def _hurst_groups(config: ExperimentConfig) -> list[tuple[float, ...]]:
    """config.hurst in min(workers, len(hurst)) contiguous groups whose
    sizes differ by at most one, one pool task each."""
    n = len(config.hurst)
    count = min(config.workers, n)
    edges = [n * i // count for i in range(count + 1)]
    return [config.hurst[a:b] for a, b in zip(edges, edges[1:])]


def _cell_rows(
    config: ExperimentConfig, group: tuple[float, ...]
) -> list[tuple[Cell, SwapReport | str]]:
    """Price every (rho, H, T) cell of a group of H values on one shared
    simulation.

    Each (rho, H, T) gets its report or, on a numerical failure
    (including NoSolutionError, a ValueError), the failure's cause.
    Anything else is a bug and propagates. A failed simulation of one H
    fails every (rho, T) of it with the same cause; when a group's
    simulation fails, each of its H values is simulated again alone, so
    that an H's outcome never depends on its group.
    """
    mc = _mc_config(config)
    cell_params = {
        hurst: [
            ModelParams(sigma0=config.sigma0, nu=config.nu, rho=rho, hurst=hurst)
            for rho in config.rho
        ]
        for hurst in group
    }
    try:
        per_cell = simulate_functionals(
            TimeGrid(1.0, config.n_steps),
            cell_params[group[0]][0],
            mc,
            config.maturities,
            hurst=group,
        )
    except NUMERICAL_ERRORS as exc:
        if len(group) > 1:
            return [row for hurst in group for row in _cell_rows(config, (hurst,))]
        return [
            ((p.rho, group[0], maturity), _cause(exc))
            for maturity in config.maturities
            for p in cell_params[group[0]]
        ]
    # every (H, T, rho) binds into this one workspace, which invalidates
    # the previous pricer: no bind or strike allocates path arrays of its own
    workspace = pricer_workspace(per_cell[0])
    cells = [(h, t) for h in group for t in config.maturities]
    outcomes: list[tuple[Cell, SwapReport | str]] = []
    # the pricers' per-path passes take the second half of the paths on
    # this one helper thread, which lives only for the pricing loop
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="pricer") as helper:
        for (hurst, maturity), funcs in zip(cells, per_cell):
            for params in cell_params[hurst]:
                try:
                    pricer = strike_pricer(
                        funcs, params, X0, maturity, out=workspace, helper=helper
                    )
                    outcome = zero_vanna_report(pricer, funcs, params, X0, maturity, mc)
                except NUMERICAL_ERRORS as exc:
                    outcome = _cause(exc)
                outcomes.append(((params.rho, hurst, maturity), outcome))
    return outcomes


def _cell_label(rho: float, hurst: float, maturity: float) -> str:
    return f"rho={rho:g},H={hurst:g},T={maturity:g}"


def _cause(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _format_csv_value(value: object) -> str:
    # float() first: numpy reals are floats too, and their repr is not a number
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, outcomes: dict[Cell, SwapReport | str]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for (rho, hurst, maturity), outcome in outcomes.items():
            if isinstance(outcome, SwapReport):
                row = [getattr(outcome, field) for field in CSV_COLUMNS.values()]
            else:
                cell = {"hurst": hurst, "maturity": maturity, "rho": rho}
                row = [cell.get(field, FAILED_TOKEN) for field in CSV_COLUMNS.values()]
            writer.writerow(_format_csv_value(value) for value in row)


def _blas_build(module) -> str:
    """Name and version of the BLAS numpy or scipy was built against."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _write_manifest(
    csv_path: Path, config: ExperimentConfig, extra: dict[str, object]
) -> Path:
    manifest_path = csv_path.with_suffix(".manifest.json")
    simulation = simulation_record(_mc_config(config), config.hurst)
    payload: dict[str, object] = {
        "version": __version__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the Volterra product runs on scipy's BLAS, the rest on numpy's
            "numpy_blas": _blas_build(np),
            "scipy_blas": _blas_build(scipy),
        },
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(config),
        "simulation": simulation,
    }
    payload.update(extra)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    manifest_path.write_text(text + "\n")
    return manifest_path


def _human_summary(outcomes: dict[Cell, SwapReport | str], stream) -> None:
    for (rho, hurst, maturity), rep in outcomes.items():
        if isinstance(rep, SwapReport):
            summary = (
                f"vol_swap={100 * rep.vol_swap:.2f}% "
                f"iv_zero_vanna={100 * rep.iv_zero_vanna:.2f}% "
                f"atmi={100 * rep.atmi:.2f}% "
                f"skew={rep.atm_skew:+.3f}"
            )
        else:
            summary = f"FAILED ({rep})"
        print(f"H={hurst:g} T={maturity:g} rho={rho:g}: {summary}", file=stream)


def run(config: ExperimentConfig, stream=None) -> int:
    """Execute the experiment; returns the process exit code."""
    stream = sys.stdout if stream is None else stream
    groups = _hurst_groups(config)
    price_group = functools.partial(_cell_rows, config)
    if len(groups) > 1:
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            per_group = list(pool.map(price_group, groups))
    else:
        per_group = list(map(price_group, groups))
    # emission order is sorted (rho, H, T) regardless of completion order
    outcomes = dict(sorted(itertools.chain.from_iterable(per_group)))
    failures = {
        cell: cause for cell, cause in outcomes.items() if isinstance(cause, str)
    }

    csv_path = Path(config.out)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(csv_path, outcomes)

    reports = {
        cell: rep for cell, rep in outcomes.items() if isinstance(rep, SwapReport)
    }
    extra: dict[str, object] = {
        "analysis": analysis_record(reports.values()),
        "cell_costs": {
            _cell_label(*cell): {field: getattr(rep, field) for field in COST_FIELDS}
            for cell, rep in reports.items()
        },
    }
    if failures:
        extra["failed_cells"] = {
            _cell_label(*cell): cause for cell, cause in failures.items()
        }
    if config.mode == "convergence":
        fits = _rate_fits(config, outcomes, stream)
        extra["rate_fits"] = {
            _rate_label(*pair): {
                series: _fit_record(fit) for series, fit in study.items()
            }
            for pair, study in fits.items()
        }
        rates_path = csv_path.with_suffix(".rates.csv")
        _write_rates_csv(rates_path, fits)
        print(f"wrote rate fits to {rates_path}", file=stream)

    manifest_path = _write_manifest(csv_path, config, extra)
    _human_summary(outcomes, stream)
    print(
        f"wrote {len(outcomes)} rows to {csv_path} (manifest: {manifest_path})",
        file=stream,
    )
    if failures:
        print(f"{len(failures)} cell(s) FAILED", file=stream)
        return 1
    return 0


RATES_COLUMNS = (
    "rho",
    "H",
    "series",
    "slope",
    "intercept",
    "r_squared",
    "maturities_used",
    "inconclusive",
)

# per (rho, H): both series' fits
RateFits = dict[tuple[float, float], dict[str, RateFit]]


def _rate_label(rho: float, hurst: float) -> str:
    return f"rho={rho:g},H={hurst:g}"


def _fit_record(fit: RateFit) -> dict[str, object]:
    """A rate fit for the manifest. The fit fields an inconclusive fit
    leaves NaN are written null, which strict JSON parsers accept; its
    inconclusive flag says why."""
    return {
        name: None if isinstance(value, float) and not math.isfinite(value) else value
        for name, value in dataclasses.asdict(fit).items()
    }


def _write_rates_csv(path: Path, fits: RateFits) -> None:
    """One row per (rho, H, series), in numeric (rho, H) order."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RATES_COLUMNS)
        for (rho, hurst), study in sorted(fits.items()):
            for series, fit in study.items():
                writer.writerow(
                    [
                        f"{rho:g}",
                        f"{hurst:g}",
                        series,
                        _format_csv_value(fit.slope),
                        _format_csv_value(fit.intercept),
                        _format_csv_value(fit.r_squared),
                        ";".join(repr(t) for t in fit.maturities),
                        str(fit.inconclusive),
                    ]
                )


def _rate_fits(
    config: ExperimentConfig, outcomes: dict[Cell, SwapReport | str], stream
) -> RateFits:
    """Fit gap-decay rates per (rho, H) from the already-priced grid. A
    failed cell is left out of its fit, like a gap below the noise floor;
    the failures already make the exit code 1."""
    fits: RateFits = {}
    for rho in config.rho:
        for hurst in config.hurst:
            series = [outcomes[(rho, hurst, t)] for t in config.maturities]
            params = ModelParams(
                sigma0=config.sigma0, nu=config.nu, rho=rho, hurst=hurst
            )
            study = convergence_study(
                params, [r for r in series if isinstance(r, SwapReport)]
            )
            for name, fit in study.items():
                verdict = (
                    "inconclusive"
                    if fit.inconclusive
                    else f"slope={fit.slope:.3f} r2={fit.r_squared:.3f}"
                )
                print(f"rate {_rate_label(rho, hurst)} {name}: {verdict}", file=stream)
            fits[(rho, hurst)] = study
    return fits


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvol",
        description=(
            "Sweep a rough-volatility experiment grid and report "
            "volatility-swap strikes against zero-vanna and ATM implied vols."
        ),
    )
    parser.add_argument("--config", type=Path, help="config file (key = value)")
    parser.add_argument(
        "--hurst", type=float, nargs="+", help="Hurst exponents in (0, 1)"
    )
    parser.add_argument(
        "--maturities", type=float, nargs="+", help="maturities in years"
    )
    parser.add_argument(
        "--rho", type=float, nargs="+", help="spot-vol correlations in [-1, 1]"
    )
    parser.add_argument("--paths", type=int, dest="n_paths", help="paths per cell")
    parser.add_argument(
        "--steps", type=int, dest="n_steps", help="time steps per maturity"
    )
    parser.add_argument("--seed", type=int, help="RNG seed, shared by every H")
    parser.add_argument("--estimator", choices=VALID_ESTIMATORS)
    parser.add_argument("--scheme", choices=VALID_SCHEMES)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--mode", choices=VALID_MODES)
    parser.add_argument(
        "--workers", type=int, help="parallel worker processes, at most one per H"
    )
    return parser


def _prepare_out(csv_path: Path) -> None:
    """Create the output CSV's directory, so that an unusable out path is
    a config error before any cell is simulated, not a crash after."""
    if csv_path.is_dir():
        raise ConfigError(f"key 'out': {csv_path} is a directory")
    try:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'out': cannot create its directory: {exc}") from None


def main(argv: Sequence[str] | None = None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    config_path = overrides.pop("config")
    try:
        file_values = (
            parse_config(config_path.read_text(encoding="utf-8"))
            if config_path
            else None
        )
        config = build_config(file_values, overrides)
        _prepare_out(Path(config.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
