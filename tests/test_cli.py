"""Tests for config parsing and the experiment runner CLI."""

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from fracvol.blackscholes import IV_TOL, ZERO_VANNA_XTOL, ConvergenceError
from fracvol.cli import (
    COST_FIELDS,
    CSV_COLUMNS,
    FAILED_TOKEN,
    RATES_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _cell_rows,
    _hurst_groups,
    _mc_config,
    _write_csv,
    build_config,
    main,
    parse_config,
    run,
)
from fracvol.fbm import TILE_BYTES, TimeGrid
from fracvol.mcpricer import (
    HURST_LAYOUT,
    INDEPENDENT_LEG,
    MATURITY_LAYOUT,
    McConfig,
    simulate_functionals,
    simulation_record,
    strike_pricer,
)
from fracvol.swapanalysis import ATM_SKEW, GAP_SE, ZERO_VANNA_SEARCH
from fracvol.volmodel import ModelParams

FAST = {
    "n_paths": 3_000,
    "n_steps": 16,
    "seed": 99,
    "hurst": (0.5,),
    "maturities": (0.5, 1.0),
    "rho": (-0.8, 0.0),
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_strict_json(path):
    """Parse JSON as strict parsers such as jq do: NaN and Infinity,
    which the JSON standard leaves out, are rejected."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestParseConfig:
    def test_full_file(self):
        text = """
        # experiment grid
        sigma0 = 0.25
        nu = 0.3
        rho = [0.0, -0.5]   # both tables
        hurst = [0.1, 0.5]
        maturities = [0.5, 1.0, 2.0]
        n_steps = 100
        n_paths = 2e4
        seed = 42
        estimator = direct_euler
        scheme = convolution
        out = run.csv
        mode = tables
        workers = 2
        """
        values = parse_config(text)
        assert values["sigma0"] == 0.25
        assert values["rho"] == (0.0, -0.5)
        assert values["n_paths"] == 20_000 and isinstance(values["n_paths"], int)
        assert values["estimator"] == "direct_euler"
        assert values["workers"] == 2

    def test_empty_text_gives_no_keys(self):
        assert parse_config("# only comments\n\n") == {}

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("volatility = 0.2", "unknown key 'volatility'"),
            ("n_paths = abc", "'n_paths'"),
            ("n_paths = 1.5", "'n_paths'"),
            ("rho = []", "'rho'"),
            ("rho = 0.5", "'rho'"),
            ("sigma0 = [0.2]", "'sigma0'"),
            ("sigma0 =", "'sigma0'"),
            ("sigma0 = inf", "'sigma0'"),
            ("just a line", "key = value"),
        ],
    )
    def test_errors_name_the_problem(self, line, needle):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(line)
        assert needle in str(excinfo.value)

    def test_integer_above_2_53_parses_exactly(self):
        # a float keeps 53 bits: the seed would lose its last digit, and a
        # file would draw other normals than --seed with the same literal
        assert parse_config("seed = 20261019123456789") == {
            "seed": 20261019123456789
        }

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config("seed = 1\nseed = 2\n")

    def test_negative_paths_named_in_error(self):
        with pytest.raises(ConfigError, match="n_paths"):
            build_config(parse_config("n_paths = -1"))


class TestBuildConfig:
    def test_defaults(self):
        config = build_config()
        assert config.sigma0 == 0.2 and config.nu == 0.4
        assert config.rho == (-0.8, 0.0)
        assert config.hurst == (0.1, 0.3, 0.5, 0.7, 0.9)
        assert config.maturities == (0.25, 0.5, 1.0, 2.0, 3.0)
        assert config.n_steps == 250
        assert config.n_paths == 200_000
        assert config.estimator == "conditional_mixing"
        assert config.mode == "tables"

    def test_precedence_defaults_file_flags(self):
        file_values = {"n_paths": 5_000, "seed": 7}
        overrides = {"seed": 11, "out": None}
        config = build_config(file_values, overrides)
        assert config.n_paths == 5_000  # file beats default
        assert config.seed == 11  # flag beats file
        assert config.out == "results.csv"  # None override ignored

    def test_lists_are_sorted(self):
        config = build_config({"hurst": (0.9, 0.1), "rho": (0.0, -0.8)})
        assert config.hurst == (0.1, 0.9)
        assert config.rho == (-0.8, 0.0)

    @pytest.mark.parametrize(
        "values,needle",
        [
            ({"sigma0": -0.1}, "sigma0"),
            ({"nu": -1.0}, "nu"),
            ({"rho": (1.5,)}, "rho"),
            ({"hurst": (0.0,)}, "hurst"),
            ({"hurst": (0.5, 0.5)}, "hurst"),
            ({"maturities": (-1.0,)}, "maturities"),
            ({"n_paths": 1}, "n_paths"),
            ({"estimator": "martingale"}, "estimator"),
            ({"scheme": "euler"}, "scheme"),
            ({"mode": "study"}, "mode"),
            ({"workers": 0}, "workers"),
            ({"seed": -1}, "seed"),
            ({"mode": "single"}, "mode"),
            ({"nu": math.inf}, "nu"),
            # cells and CSV rows are keyed by :g labels, which
            # would merge two values equal to 6 significant digits
            ({"hurst": (0.3, 0.3000001)}, "hurst"),
            ({"maturities": (1.0, 1.0000001)}, "maturities"),
            ({"rho": (-0.8, -0.8000001)}, "rho"),
            # an empty list sorts to an empty tuple, left to ExperimentConfig
            ({"rho": []}, "rho"),
        ],
    )
    def test_validation_names_field(self, values, needle):
        with pytest.raises(ConfigError, match=f"^key '{needle}'"):
            build_config(values)

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"rho": 0.5}, "rho"),
            ({"n_paths": "abc"}, "n_paths"),
            ({"n_steps": 10.0}, "n_steps"),
            ({"n_paths": 2000.0}, "n_paths"),
            ({"seed": True}, "seed"),
            # a list that cannot be sorted is left to the type check
            ({"hurst": [0.3, "0.1"]}, "hurst"),
        ],
    )
    def test_mistyped_override_names_field(self, overrides, needle):
        # Python callers bypass argparse's typed flags; a value of the
        # wrong type must be a ConfigError, not a TypeError in run
        with pytest.raises(ConfigError, match=f"^key '{needle}': expected"):
            build_config(overrides=overrides)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            build_config(overrides={"foo": 1})

    def test_convergence_mode_needs_span(self):
        with pytest.raises(ConfigError, match="at least 3"):
            build_config({"mode": "convergence", "maturities": (1.0, 2.0)})
        with pytest.raises(ConfigError, match="factor of 2"):
            build_config({"mode": "convergence", "maturities": (1.0, 1.2, 1.4)})

    @pytest.mark.parametrize("key", ["hurst", "maturities"])
    def test_axis_longer_than_cell_seed_digits_accepted(self, key):
        # every H and maturity reads the one draw of the seed, so neither
        # axis is capped
        values = tuple(0.005 * (i + 1) for i in range(101))
        assert len(getattr(build_config({key: values}), key)) == 101

    @pytest.mark.parametrize(
        "n_hurst, workers, sizes",
        [(1, 3, [1]), (3, 1, [3]), (3, 2, [1, 2]), (5, 2, [2, 3]), (5, 3, [1, 2, 2])],
    )
    def test_hurst_groups_are_contiguous(self, n_hurst, workers, sizes):
        hurst = tuple(0.1 * (i + 1) for i in range(n_hurst))
        config = build_config({"hurst": hurst, "workers": workers})
        groups = _hurst_groups(config)
        assert [len(g) for g in groups] == sizes
        assert sum(groups, ()) == config.hurst

    def test_benchmark_workloads_build_as_declared(self, monkeypatch):
        # perfbench/child.py builds its config from a JSON round trip of a
        # run.py workload; a change to the override path must fail here,
        # not in the benchmark.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert set(bench.WORKLOADS) == {"sim_fft", "smile_dense", "euler_pool"}
        for name, workload in bench.WORKLOADS.items():
            declared = dict(workload, seed=7, out=f"{name}.csv")
            config = build_config(overrides=json.loads(json.dumps(declared)))
            for key, value in declared.items():
                expected = tuple(sorted(value)) if isinstance(value, list) else value
                assert getattr(config, key) == expected, (name, key)


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "grid.csv"
    config = ExperimentConfig(out=str(out), **FAST)
    code = run(config, stream=open("/dev/null", "w"))
    return code, out


class TestRun:
    def test_exit_zero_and_files_exist(self, grid_run):
        code, out = grid_run
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".manifest.json").exists()

    def test_csv_schema_and_order(self, grid_run):
        _, out = grid_run
        rows = read_csv(out)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 2  # two rho, one H, two T
        keys = [(float(r[2]), float(r[0]), float(r[1])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_row_schema(self, tmp_path):
        assert list(CSV_COLUMNS) == [
            "H",
            "T",
            "rho",
            "vol_swap",
            "vol_swap_se",
            "iv_zero_vanna",
            "iv_zero_vanna_se",
            "atmi",
            "atmi_se",
            "atm_skew",
            "atm_skew_se",
            "err_zero_vanna",
            "err_zero_vanna_se",
            "err_atmi",
            "err_atmi_se",
            "k_hat",
            "zero_vanna_residual",
            "n_paths",
            "seed",
        ]
        config = ExperimentConfig(**{**FAST, "maturities": (1.0,), "rho": (0.0,)})
        ((_, report),) = _cell_rows(config, config.hurst)
        out = tmp_path / "row.csv"
        _write_csv(out, {(report.rho, report.hurst, report.maturity): report})
        row = dict(zip(*read_csv(out)))
        assert float(row["H"]) == report.hurst == 0.5
        assert float(row["T"]) == report.maturity == 1.0
        assert float(row["vol_swap"]) == report.vol_swap
        # every column is its report field, a finite number
        for column, field in CSV_COLUMNS.items():
            value = float(row[column])
            assert value == getattr(report, field) and math.isfinite(value), column

    def test_numpy_reals_write_numbers(self, tmp_path):
        # numpy reals pass the config's type check; the CSV must still
        # hold plain numbers, not their numpy repr
        out = tmp_path / "numpy.csv"
        overrides = {
            **FAST,
            "hurst": [np.float64(0.5)],
            "maturities": [np.float64(0.5), np.float64(1.0)],
            "rho": [np.float64(0.0)],
            "out": str(out),
        }
        assert run(build_config(overrides=overrides), stream=io.StringIO()) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 2
        for row in rows[1:]:
            for cell in row:
                float(cell)

    def test_full_precision_and_shared_simulation(self, grid_run):
        _, out = grid_run
        rows = read_csv(out)
        header = rows[0]
        by_cell = {}
        for row in rows[1:]:
            rec = dict(zip(header, row))
            # full-precision roundtrip: repr() emitted, float() recovers
            value = float(rec["vol_swap"])
            assert repr(value) == rec["vol_swap"]
            by_cell[(rec["rho"], rec["T"])] = rec
        # the simulation is shared across rho: every row's vol swap is the
        # swap leg its rho's pricer fits on the H's one draw
        config = ExperimentConfig(**FAST)
        mc = _mc_config(config)
        params = ModelParams(config.sigma0, config.nu, 0.0, 0.5)
        unit = TimeGrid(1.0, config.n_steps)
        draw = simulate_functionals(unit, params, mc, config.maturities)
        for t, funcs in zip(("0.5", "1.0"), draw):
            for rho in ("-0.8", "0.0"):
                params = ModelParams(config.sigma0, config.nu, float(rho), 0.5)
                swap = strike_pricer(funcs, params, 0.0, float(t))(0.0).swap
                assert by_cell[(rho, t)]["vol_swap"] == repr(swap.value)
            assert by_cell[("-0.8", t)]["seed"] == by_cell[("0.0", t)]["seed"]

    def test_manifest_records_config(self, grid_run):
        _, out = grid_run
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config"]["n_paths"] == FAST["n_paths"]
        assert manifest["config"]["hurst"] == [0.5]
        assert "version" in manifest and "created_at" in manifest

    def test_manifest_records_reproducibility_fields(self, grid_run, tmp_path):
        _, out = grid_run
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        numpy_blas, scipy_blas = (
            module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for module in (np, scipy)
        )
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{numpy_blas['name']} {numpy_blas['version']}",
            "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
        }
        assert manifest["simulation"] == {
            "bit_generator": "SFC64",
            "seed": 99,
            "block_size": 65_536,
            "tile_bytes": TILE_BYTES,
            "hurst_layout": HURST_LAYOUT,
            "maturity_layout": MATURITY_LAYOUT,
            "independent_leg": None,
            "controls": [
                "spot_martingale", "integrated_variance", "exponential_martingale"
            ],
            "kernel_evaluation": "variance_exact",
            "convolution": {"H=0.5": "cumsum"},
        }
        direct = McConfig(n_paths=1, seed=0, estimator="direct_euler")
        assert simulation_record(direct, [0.5])["independent_leg"] == INDEPENDENT_LEG
        for scheme, evaluation, method in (
            ("midpoint_convolution", "midpoint", "toeplitz_trmm"),
            ("cholesky_oracle", None, "cholesky"),
        ):
            other = tmp_path / f"{scheme}.csv"
            config = ExperimentConfig(
                out=str(other),
                **{**FAST, "hurst": (0.3,), "maturities": (1.0,), "rho": (0.0,)},
                scheme=scheme,
            )
            run(config, stream=open("/dev/null", "w"))
            simulation = json.loads(other.with_suffix(".manifest.json").read_text())[
                "simulation"
            ]
            assert simulation["kernel_evaluation"] == evaluation
            assert simulation["convolution"] == {"H=0.3": method}

    def test_manifest_records_the_analysis(self, grid_run):
        # how k_hat and the skew were solved, and what it took over the run
        _, out = grid_run
        analysis = json.loads(out.with_suffix(".manifest.json").read_text())["analysis"]
        assert analysis["zero_vanna_search"] == ZERO_VANNA_SEARCH
        assert analysis["atm_skew"] == ATM_SKEW
        assert analysis["gap_se"] == GAP_SE
        assert analysis["iv_tol"] == IV_TOL == 1e-14
        assert analysis["zero_vanna_xtol"] == ZERO_VANNA_XTOL
        # four cells, each the ATM strike and a few search iterates
        assert 4 * 2 <= analysis["pricer_calls"] <= 4 * 5
        # every smile entry is one of the search's evaluations
        assert analysis["zero_vanna_evals"] >= analysis["pricer_calls"]
        assert analysis["bisection_fallbacks"] == 0
        # every priced strike is inverted, at one call price or more
        assert analysis["iv_evals"] >= analysis["pricer_calls"]

    def test_manifest_records_each_cells_costs(self, grid_run):
        # one entry per priced (rho, H, T), summing to the run's totals
        _, out = grid_run
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        costs, analysis = manifest["cell_costs"], manifest["analysis"]
        assert sorted(costs) == sorted(
            f"rho={rho:g},H=0.5,T={t:g}" for rho in (-0.8, 0.0) for t in (0.5, 1.0)
        )
        assert all(sorted(cell) == sorted(COST_FIELDS) for cell in costs.values())
        for field, total in (
            ("pricer_calls", "pricer_calls"),
            ("zero_vanna_evals", "zero_vanna_evals"),
            ("zero_vanna_bisected", "bisection_fallbacks"),
            ("iv_evals", "iv_evals"),
            ("iv_bisections", "iv_bisection_fallbacks"),
        ):
            assert sum(cell[field] for cell in costs.values()) == analysis[total]
        assert all(cell["pricer_calls"] >= 2 for cell in costs.values())

    def test_rerun_is_byte_identical(self, tmp_path, grid_run):
        _, first_out = grid_run
        out = tmp_path / "again.csv"
        config = ExperimentConfig(out=str(out), **FAST)
        assert run(config, stream=open("/dev/null", "w")) == 0
        assert out.read_bytes() == first_out.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, grid_run):
        _, first_out = grid_run
        out = tmp_path / "workers.csv"
        config = ExperimentConfig(out=str(out), workers=2, **FAST)
        assert run(config, stream=open("/dev/null", "w")) == 0
        assert out.read_bytes() == first_out.read_bytes()
        # FAST has one H, so the pool above runs serially; three H values
        # give one group of three, groups of two and one, or three of one,
        # in both modes and under both laws
        for mode, scheme in itertools.product(
            ("tables", "convergence"), ("convolution", "cholesky_oracle")
        ):
            three_h = dict(
                FAST,
                hurst=(0.3, 0.5, 0.7),
                maturities=(0.5, 1.0, 2.0),
                mode=mode,
                scheme=scheme,
            )
            outputs = []
            for workers in (1, 2, 3):
                out = tmp_path / f"{mode}_{scheme}{workers}.csv"
                config = ExperimentConfig(out=str(out), workers=workers, **three_h)
                assert run(config, stream=open("/dev/null", "w")) == 0
                rates = out.with_suffix(".rates.csv")
                outputs.append(
                    (out.read_bytes(), rates.read_bytes() if rates.exists() else None)
                )
            assert outputs[0] == outputs[1] == outputs[2], (mode, scheme)
            assert (outputs[0][1] is None) == (mode == "tables")

    def test_pool_is_capped_at_the_task_count(self, tmp_path, monkeypatch):
        # one task per group of at least one H: workers beyond that would
        # be forked idle. The
        # stand-in executor maps in this process, so no process starts.
        import fracvol.cli as cli_module

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", InProcessPool)
        for hurst, expected in (((0.3, 0.5), [2]), ((0.5,), [])):
            sizes.clear()
            out = tmp_path / f"pool{len(hurst)}.csv"
            config = build_config(
                overrides=dict(FAST, hurst=hurst, workers=5000, out=str(out))
            )
            assert run(config, stream=open("/dev/null", "w")) == 0
            assert sizes == expected

    def test_failed_cell_marks_row_and_exits_one(self, tmp_path, monkeypatch):
        import fracvol.cli as cli_module

        real = cli_module.zero_vanna_report

        def flaky(pricer, funcs, params, x0, maturity, config):
            if params.rho == 0.0 and maturity == 1.0:
                raise ConvergenceError("boom", best=0.0, residual=1.0)
            return real(pricer, funcs, params, x0, maturity, config)

        monkeypatch.setattr(cli_module, "zero_vanna_report", flaky)
        out = tmp_path / "partial.csv"
        config = ExperimentConfig(out=str(out), **FAST)
        code = run(config, stream=open("/dev/null", "w"))
        assert code == 1
        rows = read_csv(out)
        assert len(rows) == 5  # header + 4 cells, failure included
        failed = [r for r in rows[1:] if FAILED_TOKEN in r]
        assert len(failed) == 1
        row = failed[0]
        assert [row[0], row[1], row[2]] == ["0.5", "1.0", "0.0"]
        assert row[3:] == [FAILED_TOKEN] * (len(CSV_COLUMNS) - 3)
        manifest_path = out.with_suffix(".manifest.json")
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert list(manifest["failed_cells"]) == ["rho=0,H=0.5,T=1"]
        assert manifest["failed_cells"]["rho=0,H=0.5,T=1"] == (
            "ConvergenceError: boom; best iterate 0.0, residual 1.0"
        )
        # a failed cell has no report, so no costs
        assert len(manifest["cell_costs"]) == 3
        assert "rho=0,H=0.5,T=1" not in manifest["cell_costs"]

    def test_failed_simulation_runs_once_and_fails_every_rho(
        self, tmp_path, monkeypatch
    ):
        import numpy as np

        import fracvol.cli as cli_module

        calls = []

        def singular(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(cli_module, "simulate_functionals", singular)
        out = tmp_path / "singular.csv"
        config = ExperimentConfig(out=str(out), **FAST)
        assert config.rho == (-0.8, 0.0) and config.maturities == (0.5, 1.0)
        assert run(config, stream=open("/dev/null", "w")) == 1
        assert len(calls) == 1
        rows = read_csv(out)[1:]
        assert len(rows) == 4  # every (rho, T) of the one H
        assert all(row[3:] == [FAILED_TOKEN] * (len(CSV_COLUMNS) - 3) for row in rows)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert set(manifest["failed_cells"].values()) == {
            "LinAlgError: not positive definite"
        }

    def test_a_failed_h_leaves_the_rest_of_its_group_priced(
        self, tmp_path, monkeypatch
    ):
        # the group's simulation fails at H = 0.3; each of its H values is
        # then simulated alone, so H = 0.5 is priced as in a run of its
        # own, as it is under any worker count
        import numpy as np

        import fracvol.cli as cli_module

        calls = []
        real = cli_module.simulate_functionals

        def singular_at_03(grid, params, config, maturities, hurst):
            calls.append(tuple(hurst))
            if 0.3 in hurst:
                raise np.linalg.LinAlgError("not positive definite")
            return real(grid, params, config, maturities, hurst=hurst)

        monkeypatch.setattr(cli_module, "simulate_functionals", singular_at_03)
        out = tmp_path / "group.csv"
        config = ExperimentConfig(out=str(out), **dict(FAST, hurst=(0.3, 0.5)))
        assert run(config, stream=open("/dev/null", "w")) == 1
        assert calls == [(0.3, 0.5), (0.3,), (0.5,)]
        rows = read_csv(out)[1:]
        failed = [row for row in rows if row[0] == "0.3"]
        assert len(failed) == 4
        assert all(row[3:] == [FAILED_TOKEN] * (len(CSV_COLUMNS) - 3) for row in failed)
        alone = tmp_path / "alone.csv"
        assert run(ExperimentConfig(out=str(alone), **FAST), stream=open("/dev/null", "w")) == 0
        assert [row for row in rows if row[0] == "0.5"] == read_csv(alone)[1:]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        import fracvol.cli as cli_module

        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(cli_module, "zero_vanna_report", broken)
        config = ExperimentConfig(out=str(tmp_path / "bug.csv"), **FAST)
        with pytest.raises(TypeError, match="not a numerical failure"):
            run(config, stream=open("/dev/null", "w"))

    def test_convergence_mode_writes_rate_fits(self, tmp_path):
        out = tmp_path / "conv.csv"
        config = ExperimentConfig(
            out=str(out),
            mode="convergence",
            nu=0.0,  # gaps vanish: fits must come back inconclusive
            n_paths=1_000,
            n_steps=8,
            seed=5,
            hurst=(0.5,),
            maturities=(0.5, 1.0, 2.0),
            rho=(0.0,),
        )
        assert run(config, stream=open("/dev/null", "w")) == 0
        # an inconclusive fit writes null, not a bare NaN, for its fields
        manifest = read_strict_json(out.with_suffix(".manifest.json"))
        fits = manifest["rate_fits"]["rho=0,H=0.5"]
        assert fits["err_zero_vanna"]["inconclusive"] is True
        assert fits["err_atmi"]["inconclusive"] is True
        for series in ("err_zero_vanna", "err_atmi"):
            for field in ("slope", "intercept", "r_squared"):
                assert fits[series][field] is None, (series, field)
        rates = read_csv(out.with_suffix(".rates.csv"))
        assert rates[0][:4] == ["rho", "H", "series", "slope"]
        assert len(rates) == 3  # header + two series for the one (rho, H)
        assert rates[1][2] == "err_zero_vanna" and rates[2][2] == "err_atmi"
        assert all(row[-1] == "True" for row in rates[1:])

    def test_convergence_mode_slope_column_populated(self, tmp_path):
        # real fit: rough H with negative correlation has resolvable gaps
        out = tmp_path / "slopes.csv"
        config = ExperimentConfig(
            out=str(out),
            mode="convergence",
            n_paths=40_000,
            n_steps=64,
            seed=6,
            hurst=(0.1,),
            maturities=(0.5, 1.0, 2.0, 3.0),
            rho=(-0.8,),
        )
        assert run(config, stream=open("/dev/null", "w")) == 0
        rates = read_csv(out.with_suffix(".rates.csv"))
        rec = dict(zip(rates[0], rates[1]))
        assert rec["rho"] == "-0.8" and rec["H"] == "0.1"
        if rec["inconclusive"] == "False":
            assert math.isfinite(float(rec["slope"]))
            assert 0.0 <= float(rec["r_squared"]) <= 1.0
            assert rec["maturities_used"].count(";") >= 2

    def test_rate_fit_on_too_narrow_surviving_span(self, tmp_path, monkeypatch):
        # Failing T = 1 leaves three maturities spanning less than a factor
        # of 2: both series are fitted inconclusive, exactly as when T = 1
        # is priced but its gaps sit below the noise floor, and every
        # output is still written.
        import fracvol.cli as cli_module

        real = cli_module.zero_vanna_report

        def failed(pricer, funcs, params, x0, maturity, config):
            if maturity == 1.0:
                raise ConvergenceError("boom", best=0.0, residual=1.0)
            return real(pricer, funcs, params, x0, maturity, config)

        def unresolved(pricer, funcs, params, x0, maturity, config):
            report = real(pricer, funcs, params, x0, maturity, config)
            if maturity == 1.0:
                return dataclasses.replace(report, err_zero_vanna=0.0, err_atmi=0.0)
            return report

        outputs = []
        for name, report in (("failed", failed), ("unresolved", unresolved)):
            monkeypatch.setattr(cli_module, "zero_vanna_report", report)
            out = tmp_path / f"{name}.csv"
            config = ExperimentConfig(
                out=str(out),
                mode="convergence",
                n_paths=1_000,
                n_steps=8,
                seed=5,
                hurst=(0.5,),
                maturities=(0.5, 0.6, 0.7, 1.0),
                rho=(0.0,),
            )
            code = run(config, stream=open("/dev/null", "w"))
            assert code == (1 if name == "failed" else 0)
            manifest = read_strict_json(out.with_suffix(".manifest.json"))
            assert list(manifest.get("failed_cells", [])) == (
                ["rho=0,H=0.5,T=1"] if name == "failed" else []
            )
            outputs.append(
                (manifest["rate_fits"], read_csv(out.with_suffix(".rates.csv")))
            )
        assert outputs[0] == outputs[1]
        fits, rates = outputs[0]
        assert list(fits) == ["rho=0,H=0.5"]
        for series in ("err_zero_vanna", "err_atmi"):
            assert fits["rho=0,H=0.5"][series]["inconclusive"] is True
        assert rates[0] == list(RATES_COLUMNS)
        assert [row[2] for row in rates[1:]] == ["err_zero_vanna", "err_atmi"]
        assert all(row[-1] == "True" for row in rates[1:])

    def test_rates_csv_in_numeric_rho_order(self, tmp_path):
        out = tmp_path / "order.csv"
        config = ExperimentConfig(
            out=str(out),
            mode="convergence",
            n_paths=1_000,
            n_steps=8,
            seed=5,
            hurst=(0.5,),
            maturities=(0.5, 1.0, 2.0),
            rho=(-0.8, -0.2),
        )
        assert run(config, stream=open("/dev/null", "w")) == 0
        rates = read_csv(out.with_suffix(".rates.csv"))
        assert [row[0] for row in rates[1:]] == ["-0.8", "-0.8", "-0.2", "-0.2"]

    def test_direct_euler_shares_one_simulation_across_rho(
        self, tmp_path, monkeypatch
    ):
        # one simulation of a group of H values serves every (rho, H, T)
        # of the group
        import fracvol.cli as cli_module

        calls = []
        real = cli_module.simulate_functionals

        def counted(grid, params, config, maturities, hurst):
            calls.append((grid.maturity, tuple(maturities), tuple(hurst)))
            return real(grid, params, config, maturities, hurst=hurst)

        monkeypatch.setattr(cli_module, "simulate_functionals", counted)
        direct = dict(FAST, estimator="direct_euler", hurst=(0.3, 0.5))
        out = tmp_path / "both.csv"
        config = ExperimentConfig(out=str(out), **direct)
        assert run(config, stream=open("/dev/null", "w")) == 0
        assert calls == [(1.0, (0.5, 1.0), (0.3, 0.5))]
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2
        for rho in direct["rho"]:
            single_out = tmp_path / f"rho{rho}.csv"
            single = ExperimentConfig(
                out=str(single_out), **dict(direct, rho=(rho,))
            )
            assert run(single, stream=open("/dev/null", "w")) == 0
            single_rows = single_out.read_text().splitlines()[1:]
            assert single_rows == [
                line for line in lines[1:] if line.split(",")[2] == repr(rho)
            ]

    def test_zero_vol_of_vol_single_cell(self, tmp_path):
        out = tmp_path / "nu0.csv"
        config = ExperimentConfig(
            out=str(out),
            mode="tables",
            nu=0.0,
            n_paths=2_000,
            n_steps=16,
            seed=9,
            hurst=(0.5,),
            maturities=(1.0,),
            rho=(0.0,),
        )
        assert run(config, stream=open("/dev/null", "w")) == 0
        rows = read_csv(out)
        rec = dict(zip(rows[0], rows[1]))
        for field in ("vol_swap", "iv_zero_vanna", "atmi"):
            assert abs(float(rec[field]) - 0.2) < 1e-9, field
        assert abs(float(rec["err_zero_vanna"])) < 1e-8
        assert abs(float(rec["err_atmi"])) < 1e-8
        # identical paths: SE collapses to mean-rounding residue
        assert float(rec["vol_swap_se"]) < 1e-15
        # mirrored strikes invert to vols equal to within the inversion
        # tolerance, not bitwise
        assert abs(float(rec["atm_skew"])) < 1e-12


class TestMain:
    def test_flags_override_and_run(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            [
                "--hurst", "0.5",
                "--maturities", "0.5",
                "--rho", "-0.5",
                "--paths", "2000",
                "--steps", "8",
                "--seed", "3",
                "--mode", "tables",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[1][2] == "-0.5"

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "hurst = [0.5]\nmaturities = [0.5]\nrho = [0.0]\n"
            "n_paths = 2000\nn_steps = 8\nseed = 4\nmode = tables\n"
            f"out = {tmp_path / 'file.csv'}\n"
        )
        out = tmp_path / "flag.csv"
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "file.csv").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volatility = 0.2\n")
        assert main(["--config", str(cfg)]) == 2
        assert "volatility" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("out = r\xe9sultats.csv\n".encode("latin-1"))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_invalid_inline_values_exit_two(self, capsys):
        for hurst in ("1.5", "1.0"):
            assert main(["--hurst", hurst]) == 2
            assert "hurst" in capsys.readouterr().err

    @pytest.mark.parametrize("maturity", ["nan", "inf"])
    def test_nonfinite_maturity_exits_two(self, maturity, capsys):
        assert main(["--maturities", maturity]) == 2
        err = capsys.readouterr().err
        assert "key 'maturities'" in err and "Traceback" not in err

    @pytest.mark.parametrize("under_a_file", [True, False])
    def test_unusable_out_exits_two_before_simulating(
        self, under_a_file, tmp_path, capsys, monkeypatch
    ):
        # a path under a regular file, or a directory, cannot take the CSV:
        # exit 2 with no traceback, and no cell is simulated first
        import fracvol.cli as cli_module

        monkeypatch.setattr(cli_module, "run", lambda *args: pytest.fail("ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x.csv" if under_a_file else tmp_path
        assert main(["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'out': ") and "Traceback" not in err

    def test_oracle_past_its_step_cap_exits_two(self, capsys):
        assert main(["--scheme", "cholesky_oracle", "--steps", "3000"]) == 2
        err = capsys.readouterr().err
        assert "key 'n_steps'" in err and "Traceback" not in err


ROOT = Path(__file__).resolve().parents[1]

# the names perfbench/spans.py wraps that only fbm.for_each_tile's tile
# workers would call
TILE_WORKER_NAMES = {
    "fracvol.mcpricer.iter_path_blocks",
    "fracvol.mcpricer.vol_paths",
    "fracvol.mcpricer.path_functionals",
}

# one traced benchmark repetition, as perfbench/child.py runs it
HOOK_SCRIPT = """
import io, json, sys
import spans
from fracvol import cli

tracer = spans.Tracer()
reports = []
spans.install(tracer, reports)
config = cli.ExperimentConfig(
    mode="convergence", estimator="direct_euler", n_paths=4096, n_steps=16,
    hurst=(0.3,), maturities=(0.5, 1.0, 2.0), rho=(-0.8,), out=sys.argv[1],
)
rc = tracer.call("cli.run", cli.run, config, stream=io.StringIO())
spans.replay_normals(tracer)
print(json.dumps({
    "rc": rc,
    "reports": len(reports),
    "spans": sorted({s[0] for s in tracer.spans}),
}))
"""


def modules_loaded_by_cli_import(names, then=""):
    """The names among ``names`` in sys.modules after a fresh interpreter
    imports fracvol.cli and runs the statements ``then``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        f"import sys, fracvol.cli\n{then}\n"
        f"print([m for m in {names!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestImportCost:
    def test_cli_import_leaves_scipy_signal_out(self):
        # scipy.signal was the larger half of the package's import time
        assert modules_loaded_by_cli_import(["scipy.signal"]) == "[]"

    def test_cli_import_leaves_scipy_optimize_out(self):
        # no solver uses scipy.optimize, nor scipy.integrate, which loads it
        names = ["scipy.optimize", "scipy.integrate"]
        assert modules_loaded_by_cli_import(names) == "[]"

    def test_oracles_leave_scipy_integrate_out(self):
        # the exact law's covariance and the variance-swap strike are
        # closed forms in scipy.special: building them integrates nothing
        then = (
            "from fracvol.fbm import TimeGrid, cholesky_factor\n"
            "from fracvol.volmodel import ModelParams, variance_swap_oracle\n"
            "cholesky_factor(TimeGrid(1.0, 8), 0.3)\n"
            "variance_swap_oracle(ModelParams(0.2, 0.4, 0.0, 0.3), 1.0)"
        )
        names = ["scipy.optimize", "scipy.integrate"]
        assert modules_loaded_by_cli_import(names, then) == "[]"


class TestBenchmarkHooks:
    def test_every_span_wrapper_is_called(self, tmp_path, monkeypatch):
        # cli.run must still call every name perfbench/spans.py replaces
        # through that module global, or the name's span stays empty and
        # its layer metrics read zero without failing anything. The names
        # are read off a real install, which is then undone, and each is
        # wrapped with a counter for one tiny in-process run. The tile
        # workers of fbm.for_each_tile must call none of TILE_WORKER_NAMES:
        # the span tracer is single-threaded, so they call fbm's and
        # volmodel's functions directly, and those spans stay empty.
        from fracvol import cli, mcpricer, swapanalysis

        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", ROOT / "perfbench" / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        modules = (cli, mcpricer, swapanalysis)
        before = [dict(vars(module)) for module in modules]
        patched = []
        try:
            spans.install(spans.Tracer(), [])
        finally:
            for module, attrs in zip(modules, before):
                for name, original in attrs.items():
                    if getattr(module, name) is not original:
                        patched.append((module, name, original))
                        setattr(module, name, original)
        assert {module for module, _, _ in patched} == set(modules)
        calls = {}
        for module, name, original in patched:
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = ExperimentConfig(
            mode="convergence",
            n_paths=256,
            n_steps=8,
            hurst=(0.3,),
            maturities=(0.25, 0.5, 1.0),
            rho=(-0.8,),
            out=str(tmp_path / "guard.csv"),
        )
        assert run(config, stream=io.StringIO()) == 0
        assert {key for key, count in calls.items() if not count} == TILE_WORKER_NAMES

    def test_span_wrappers_still_fit_the_cli(self, tmp_path):
        # perfbench/spans.py wraps names that cli, mcpricer and
        # swapanalysis import, and replays the normals through fbm's
        # public names; a rename must fail here, not in the bench. The
        # spans of TILE_WORKER_NAMES, and the normals replayed from the
        # tile spans, stay empty (see test_every_span_wrapper_is_called).
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", HOOK_SCRIPT, str(tmp_path / "hooks.csv")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["rc"] == 0
        assert result["reports"] == 3
        assert result["spans"] == [
            "blackscholes.implied_vol",
            "blackscholes.zero_vanna",
            "cli.run",
            "fbm.kernel_weights",
            "mcpricer.pricer",
            "mcpricer.simulate",
            "swapanalysis.rate_fit",
            "swapanalysis.report",
            "swapanalysis.skew",
        ]
