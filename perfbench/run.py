#!/usr/bin/env python3
"""fracvol benchmark: times ``fracvol.cli.run`` on fixed experiment grids.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload sim_fft --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 0   # self-check
    python3 perfbench/run.py --workload all --smoke --trace 1

One run of a workload launches a fresh interpreter per repetition
(``child.py``). The first repetition is traced and serial: it records the
spans behind the per-layer metrics and captures every ``SwapReport``.
Untraced repetitions of the workload's own config then follow until
``--seconds`` have passed (at least ``MIN_REPS``); the end-to-end metrics
are their medians. Every run is gated on correctness: see ``gate``. The
last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names. The full result, with the machine, the config,
every sample, per-cell layer metrics and the spans, is written to
``.perfbench_out/``. See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# Each workload is a closed loop: one cli.run call at a time, seed from the
# command line. README.md records the measured shares behind each choice.
WORKLOADS: dict[str, dict[str, object]] = {
    # simulation-bound: two 65,536-path blocks per cell at 250 steps, on
    # the FFT side of fbm.FFT_THRESHOLD; both rho values share one
    # simulation per (H, T)
    "sim_fft": dict(
        mode="tables",
        estimator="conditional_mixing",
        hurst=[0.1, 0.3],
        maturities=[1.0],
        rho=[-0.8, 0.0],
        n_steps=250,
        n_paths=131_072,
        workers=1,
    ),
    # pricing-bound: five rho values share each cheap 50-step simulation
    # (dense-matmul side of the threshold), so pricer closures, IV
    # inversion and the zero-vanna search dominate. Positive rho is left
    # out: there the zero-vanna search stalls or fails on some seeds
    # (see README.md), and a run must not fail.
    "smile_dense": dict(
        mode="tables",
        estimator="conditional_mixing",
        hurst=[0.1, 0.3],
        maturities=[0.5, 1.0, 2.0],
        rho=[-0.8, -0.6, -0.4, -0.2, 0.0],
        n_steps=50,
        n_paths=65_536,
        workers=1,
    ),
    # direct Euler in a two-process pool: one simulation per rho with
    # B-stream draws and the Euler einsum, rate fits and the rates CSV
    "euler_pool": dict(
        mode="convergence",
        estimator="direct_euler",
        hurst=[0.1, 0.3],
        maturities=[0.25, 0.5, 1.0],
        rho=[-0.8],
        n_steps=100,
        n_paths=131_072,
        workers=2,
    ),
}
SMOKE_PATHS = 4096
# workers x BLAS threads must stay within nproc (2 on the reference box)
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SE_TARGET = 1e-4  # 1 bp of implied vol
REF_Z = 4.0  # gate: |value - reference| within this many combined SE
RESIDUAL_TOL = 1e-8
REF_FIELDS = ("vol_swap", "iv_zero_vanna", "atmi")


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def cell_key(hurst: float, maturity: float, rho: float) -> str:
    return f"H={hurst!r},T={maturity!r},rho={rho!r}"


def launch(config: dict, trace: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    job = json.dumps({"config": config, "trace": trace})
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), job],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        # the session holds the child and any pool workers it forked
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepFailed("timed out") from None
        raise
    if proc.returncode != 0:
        raise RepFailed(f"exit {proc.returncode}: {stderr.strip()[-400:]}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RepFailed(f"no result line: {stderr.strip()[-400:]}") from None
    result["setup_s"] = result["imported_at"] - launched
    return result


def _csv_bytes(csv_path: Path) -> tuple[bytes, ...]:
    rates = csv_path.with_suffix(".rates.csv")
    paths = [csv_path] + ([rates] if rates.exists() else [])
    return tuple(p.read_bytes() for p in paths)


def gate(config: dict, traced: dict, reps: list, reference: dict) -> dict:
    """Correctness verdict for one run.

    Per row (from the traced repetition's CSV and reports): not FAILED,
    every CSV value finite, zero-vanna residual below RESIDUAL_TOL and
    vol_swap, iv_zero_vanna and atmi within REF_Z combined SE of the
    pinned reference. Per repetition: exit code 0 and main and rates CSVs
    byte-identical to the traced serial repetition's, which for a pool
    workload checks the determinism contract across worker counts.
    A failed repetition fails all its rows.
    """
    problems: list[str] = []
    n_rows = len(config["rho"]) * len(config["hurst"]) * len(config["maturities"])
    bad: set[str] = set()
    failed_token = 0
    with open(traced["csv"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != n_rows:
        problems.append(f"traced CSV has {len(rows)} rows, expected {n_rows}")
    for row in rows:
        key = cell_key(float(row["H"]), float(row["T"]), float(row["rho"]))
        if "FAILED" in row.values():
            failed_token += 1
            bad.add(key)
            problems.append(f"{key}: FAILED row")
        elif not all(math.isfinite(float(v)) for v in row.values()):
            bad.add(key)
            problems.append(f"{key}: non-finite CSV value")
    for rep in traced["reports"]:
        key = cell_key(rep["hurst"], rep["maturity"], rep["rho"])
        if not rep["zero_vanna_residual"] < RESIDUAL_TOL:
            bad.add(key)
            problems.append(f"{key}: zero-vanna residual {rep['zero_vanna_residual']:.3g}")
        ref = reference["cells"].get(key)
        if ref is None:
            bad.add(key)
            problems.append(f"{key}: no pinned reference")
            continue
        for field in REF_FIELDS:
            value, se = rep[field], rep[field + "_se"]
            ref_value, ref_se = ref[field]
            z = abs(value - ref_value) / math.hypot(se, ref_se)
            if not z <= REF_Z:
                bad.add(key)
                problems.append(f"{key}: {field} {value:.6f} is {z:.1f} SE from {ref_value:.6f}")
    reported = {cell_key(r["hurst"], r["maturity"], r["rho"]) for r in traced["reports"]}
    bad |= {cell_key(float(r["H"]), float(r["T"]), float(r["rho"])) for r in rows} - reported

    expected = _csv_bytes(Path(traced["csv"]))
    failed = 0
    for index, rep in enumerate([traced] + reps):
        if "error" in rep:
            problems.append(f"repetition {index}: {rep['error']}")
        elif rep["rc"] != 0:
            problems.append(f"repetition {index}: cli.run returned {rep['rc']}")
        elif _csv_bytes(Path(rep["csv"])) != expected:
            problems.append(f"repetition {index}: CSV differs from the traced serial run")
        else:
            failed += len(bad)
            continue
        failed += n_rows
    attempted = n_rows * (1 + len(reps))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "cell_fail_frac": failed_token * (1 + len(reps)) / attempted,
        "problems": problems,
    }


def machine(versions: dict) -> dict:
    """Where the run ran: CPU, versions, pinned threads and git commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "threads": THREADS, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One run: a traced serial repetition, then timed ones for ``seconds``."""
    config = dict(WORKLOADS[name], seed=seed % 2**31)  # the CLI wants seed >= 0
    if smoke:
        config["n_paths"] = SMOKE_PATHS
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][name]

    traced_config = dict(config, workers=1, out=str(work / "traced.csv"))
    traced = launch(traced_config, True, deadline)
    traced["csv"] = traced_config["out"]

    reps: list[dict] = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        rep_config = dict(config, out=str(work / f"rep{len(reps)}.csv"))
        try:
            rep = launch(rep_config, False, deadline)
        except RepFailed as exc:
            rep = {"error": str(exc)}
        rep["csv"] = rep_config["out"]
        reps.append(rep)
        if "error" in rep or time.monotonic() + 1.5 * rep["wall_s"] > deadline:
            break

    verdict = gate(config, traced, reps, reference)
    timed = [r for r in reps if "error" not in r]
    if not timed:
        raise RepFailed("no timed repetition completed: " + "; ".join(verdict["problems"]))
    wall = statistics.median(r["wall_s"] for r in timed)
    zv_se = max(r["iv_zero_vanna_se"] for r in traced["reports"])
    end_to_end = {
        "wall_s": (wall, "s"),
        "zv_time_to_1bp_s": (wall * (zv_se / SE_TARGET) ** 2, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in timed), "MB"),
    }

    layers = spans.layer_metrics(traced["spans"])
    busy = layers["cli.run_s"][0] - layers["cli.run_self_s"][0]
    layers["cli.pool_efficiency"] = (busy / (config["workers"] * wall), "ratio", "derived")
    layers["trace.traced_wall_s"] = (traced["wall_s"], "s", "measured")
    layers["trace.untraced_wall_s"] = (wall, "s", "measured (median)")
    layers["trace.overhead_s"] = (traced["wall_s"] - wall, "s", "derived")
    for metric, entry in spans.layer_metrics(traced["spans"], spans.REF_CELL).items():
        layers["ref." + metric] = entry
    cells = sorted({tuple(s[4]) for s in traced["spans"] if s[4] is not None}, key=str)
    per_cell = {
        cell_key(*cell): {k: v[0] for k, v in spans.layer_metrics(traced["spans"], cell).items()}
        for cell in cells
    }

    return {
        "workload": name,
        "seed": seed,
        "config": config,
        "smoke": smoke,
        "machine": machine(traced["versions"]),
        "samples": {
            "wall_s": [r["wall_s"] for r in timed],
            "setup_s": [r["setup_s"] for r in timed],
            "peak_rss_mb": [r["rss_mb"] for r in timed],
            "iv_zero_vanna_se": sorted(r["iv_zero_vanna_se"] for r in traced["reports"]),
        },
        "verdict": verdict,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "per_cell": per_cell,
        "spans": traced["spans"],
    }


def select_metrics(result: dict, trace: int, declared: dict) -> dict:
    """The metrics BENCHMARK.json declares for this trace mode, checked
    for presence and unit."""
    section, available = (
        ("end_to_end", result["end_to_end"]) if trace == 0 else ("per_layer", result["per_layer"])
    )
    selected = {}
    for metric in declared[section]:
        if metric["name"] not in available:
            sys.exit(f"benchmark: {result['workload']}: {metric['name']} not computed")
        value, unit = available[metric["name"]][:2]
        if unit != metric["unit"]:
            sys.exit(f"benchmark: {metric['name']}: unit {unit}, declared {metric['unit']}")
        selected[metric["name"]] = {"value": value, "unit": unit}
    return selected


def report(result: dict, trace: int, declared: dict) -> None:
    """Print machine, config, verdict, samples and metrics, and write the
    full result file."""
    verdict = result["verdict"]
    print(f"== {result['workload']} seed {result['seed']}{' (smoke)' if result['smoke'] else ''}")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"config: {json.dumps(result['config'], sort_keys=True)}")
    print(
        f"correct: {verdict['correct']}  rows attempted {verdict['attempted']}, "
        f"failed {verdict['failed']}, cell_fail_frac {verdict['cell_fail_frac']:g}"
    )
    for problem in verdict["problems"]:
        print(f"  gate: {problem}")
    for sample in ("wall_s", "setup_s", "peak_rss_mb"):
        values = result["samples"][sample]
        print(f"samples {sample}: n={len(values)} {[round(v, 4) for v in values]}")
    print("end-to-end (untraced medians):")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if trace:
        print("per-layer (traced serial repetition; derived/computed values are labelled):")
        for name, (value, unit, kind) in result["per_layer"].items():
            print(f"  {name:<44} {value:>14.6g} {unit:<6} {kind}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
    payload = dict(result, declared_metrics=select_metrics(result, trace, declared))
    if not trace:
        del payload["spans"]
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_PATHS} paths per cell")
    args = parser.parse_args(argv)
    if not (SRC / "fracvol" / "cli.py").is_file():
        print(f"benchmark: no fracvol sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.smoke)
        except RepFailed as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        report(result, args.trace, declared)
        results.append(result)

    if args.workload == "all":
        section = "end_to_end" if args.trace == 0 else "per_layer"
        print(f"\n{'metric':<44} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
        for metric in declared[section]:
            values = [select_metrics(r, args.trace, declared)[metric["name"]]["value"] for r in results]
            print(f"{metric['name']:<44} {metric['unit']:<6} " + " ".join(f"{v:>14.6g}" for v in values))
        for key, label in (("correct", "correct"), ("attempted", "rows attempted"), ("failed", "rows failed")):
            print(f"{label:<51} " + " ".join(f"{str(r['verdict'][key]):>14}" for r in results))
        print(f"{'timed samples':<51} " + " ".join(f"{len(r['samples']['wall_s']):>14}" for r in results))
        print(f"every {section} metric in BENCHMARK.json emitted for {len(names)} workloads")
        return 0 if all(r["verdict"]["correct"] for r in results) else 1

    result = results[0]
    verdict = result["verdict"]
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": select_metrics(result, args.trace, declared),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
