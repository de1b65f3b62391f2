"""Tests for config parsing and the experiment runner CLI."""

import csv
import importlib.util
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

from fracvol.blackscholes import ConvergenceError
from fracvol.cli import (
    CSV_COLUMNS,
    FAILED_TOKEN,
    RATES_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _write_csv,
    build_config,
    main,
    parse_config,
    run,
)
from fracvol.mcpricer import McConfig
from fracvol.swapanalysis import simulate_report
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
        ],
    )
    def test_validation_names_field(self, values, needle):
        with pytest.raises(ConfigError, match=f"^key '{needle}'"):
            build_config(values)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            build_config(overrides={"foo": 1})

    def test_convergence_mode_needs_span(self):
        with pytest.raises(ConfigError, match="at least 3"):
            build_config({"mode": "convergence", "maturities": (1.0, 2.0)})
        with pytest.raises(ConfigError, match="factor of 2"):
            build_config({"mode": "convergence", "maturities": (1.0, 1.2, 1.4)})

    @pytest.mark.parametrize("key", ["hurst", "maturities"])
    def test_axis_longer_than_cell_seed_digits_rejected(self, key):
        # cell seeds give each axis index two decimal digits: with 101
        # maturities, cell (H_0, T_100) would reuse the seed of (H_1, T_0)
        values = tuple(0.005 * (i + 1) for i in range(101))
        with pytest.raises(ConfigError, match=f"^key '{key}': at most 100"):
            build_config({key: values})
        assert len(getattr(build_config({key: values[:100]}), key)) == 100

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
            "atmi",
            "atm_skew",
            "err_zero_vanna",
            "err_atmi",
            "n_paths",
            "seed",
        ]
        params = ModelParams(sigma0=0.2, nu=0.4, rho=0.0, hurst=0.5)
        report = simulate_report(params, 0.0, 1.0, 16, McConfig(n_paths=3_000, seed=7))
        out = tmp_path / "row.csv"
        _write_csv(out, {(report.rho, report.hurst, report.maturity): report})
        row = dict(zip(*read_csv(out)))
        assert float(row["H"]) == report.hurst == 0.5
        assert float(row["T"]) == report.maturity == 1.0
        assert float(row["vol_swap"]) == report.vol_swap

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
        # vol swap is rho-free and the simulation is shared across rho
        for t in ("0.5", "1.0"):
            assert by_cell[("-0.8", t)]["vol_swap"] == by_cell[("0.0", t)]["vol_swap"]
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
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        assert manifest["simulation"] == {
            "bit_generator": "Philox",
            "block_size": 65_536,
            "controls": ["spot_martingale", "integrated_variance"],
            "kernel_evaluation": "variance_exact",
            "convolution": {"H=0.5": "cumsum"},
        }
        for scheme, evaluation, method in (
            ("midpoint_convolution", "midpoint", "toeplitz_matmul"),
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
            "ConvergenceError: boom"
        )

    def test_failed_simulation_runs_once_and_fails_every_rho(
        self, tmp_path, monkeypatch
    ):
        import numpy as np

        import fracvol.cli as cli_module

        calls = []

        def singular(*args):
            calls.append(args)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(cli_module, "simulate_functionals", singular)
        out = tmp_path / "singular.csv"
        fast = dict(FAST, maturities=(1.0,))
        config = ExperimentConfig(out=str(out), **fast)
        assert config.rho == (-0.8, 0.0)
        assert run(config, stream=open("/dev/null", "w")) == 1
        assert len(calls) == 1
        rows = read_csv(out)[1:]
        assert len(rows) == 2
        assert all(row[3:] == [FAILED_TOKEN] * (len(CSV_COLUMNS) - 3) for row in rows)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert set(manifest["failed_cells"].values()) == {
            "LinAlgError: not positive definite"
        }

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
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        fits = manifest["rate_fits"]["rho=0,H=0.5"]
        assert fits["err_zero_vanna"]["inconclusive"] is True
        assert fits["err_atmi"]["inconclusive"] is True
        assert math.isnan(fits["err_zero_vanna"]["slope"])
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
        # of 2: the (rho, H) is recorded, not fitted, and every output is
        # still written.
        import fracvol.cli as cli_module

        real = cli_module.zero_vanna_report

        def flaky(pricer, funcs, params, x0, maturity, config):
            if maturity == 1.0:
                raise ConvergenceError("boom", best=0.0, residual=1.0)
            return real(pricer, funcs, params, x0, maturity, config)

        monkeypatch.setattr(cli_module, "zero_vanna_report", flaky)
        out = tmp_path / "narrow.csv"
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
        assert run(config, stream=open("/dev/null", "w")) == 1
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["rate_fits"] == {"rho=0,H=0.5": "insufficient cells"}
        assert list(manifest["failed_cells"]) == ["rho=0,H=0.5,T=1"]
        assert read_csv(out.with_suffix(".rates.csv")) == [list(RATES_COLUMNS)]

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
        import fracvol.cli as cli_module

        calls = []
        real = cli_module.simulate_functionals

        def counted(grid, params, config):
            calls.append((grid.maturity, params.hurst))
            return real(grid, params, config)

        monkeypatch.setattr(cli_module, "simulate_functionals", counted)
        direct = dict(FAST, estimator="direct_euler", hurst=(0.3,))
        out = tmp_path / "both.csv"
        config = ExperimentConfig(out=str(out), **direct)
        assert run(config, stream=open("/dev/null", "w")) == 0
        assert sorted(calls) == [(0.5, 0.3), (1.0, 0.3)]
        lines = out.read_text().splitlines()
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

    def test_oracle_past_its_step_cap_exits_two(self, capsys):
        assert main(["--scheme", "cholesky_oracle", "--steps", "3000"]) == 2
        err = capsys.readouterr().err
        assert "key 'n_steps'" in err and "Traceback" not in err


ROOT = Path(__file__).resolve().parents[1]

HOOK_SCRIPT = """
import io, json, sys
import spans
from fracvol import cli

tracer = spans.Tracer()
spans.install(tracer, [])
config = cli.ExperimentConfig(
    mode="convergence", estimator="direct_euler", n_paths=256, n_steps=8,
    hurst=(0.3,), maturities=(0.25, 0.5, 1.0), rho=(-0.8,), out=sys.argv[1],
)
rc = cli.run(config, stream=io.StringIO())
print(json.dumps({"rc": rc, "spans": sorted({s[0] for s in tracer.spans})}))
"""


class TestImportCost:
    def test_cli_import_leaves_scipy_signal_out(self):
        # scipy.signal was the larger half of the package's import time
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = "import sys, fracvol.cli; print('scipy.signal' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestBenchmarkHooks:
    def test_span_wrappers_still_fit_the_cli(self, tmp_path):
        # perfbench/spans.py wraps names that cli, mcpricer and
        # swapanalysis import; a rename must fail here, not in the bench.
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
        for name in (
            "fbm.block",
            "fbm.kernel_weights",
            "volmodel.vol_paths",
            "volmodel.path_functionals",
            "mcpricer.simulate",
            "mcpricer.pricer",
            "blackscholes.implied_vol",
            "blackscholes.zero_vanna",
            "swapanalysis.skew",
            "swapanalysis.report",
            "swapanalysis.rate_fit",
        ):
            assert name in result["spans"], name
