#!/usr/bin/env python3
"""Collate paired benchmark runs of two commits into one BENCH_*.json.

Usage, from the root of a source checkout::

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT -o BENCH_name.json \
        --note "what the change did"

PARENT_OUT and CHANGE_OUT are the ``.perfbench_out`` directories of two
checkouts, each filled by ``perfbench/run.py --workload W --seed N`` with
the same seeds on both sides. A run of workload W at seed N is the file
``W-seedN-trace0.json`` (or ``-trace1.json`` when only that exists); runs
of the two sides at one seed form a pair. For every workload the record
holds, per side, each run's end-to-end metrics and timed samples, the
median and quartiles over runs, the ``ref.*`` layer split of the
reference cell (median over runs), and per metric how many pairs the
change won and whether the gain rule holds: the change wins at least
nine tenths of the pairs, ties counting for neither, and the medians
differ by more than the parent's interquartile range.

Beside it stands the paired reading, which judges each pair on its own:
the relative change (change - parent) / parent of every pair, its median
and quartiles, and whether the paired rule holds: the same nine tenths of
pairs won, and the median ratio beyond zero by more than the ratios' own
interquartile range. The parent's quartiles also carry whatever drifts
between runs on the host; a pair's two sides run seconds apart, so their
ratio does not. Metric names, units and directions come from
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILE = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
SAMPLES = ("wall_s", "setup_s", "peak_rss_mb")


def load_runs(out_dir: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}}, preferring the untraced-mode file."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        match = RUN_FILE.fullmatch(path.name)
        if match is None:
            continue
        seeds = runs.setdefault(match["workload"], {})
        seed = int(match["seed"])
        if seed in seeds and match["trace"] == "1":
            continue
        result = json.loads(path.read_text())
        if result["smoke"]:
            sys.exit(f"bench_record: {path} is a smoke run")
        seeds[seed] = result
    return runs


def spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_record(results: list[dict]) -> dict:
    ref_names = sorted({k for r in results for k in r["per_layer"] if k.startswith("ref.")})
    return {
        "runs": [
            {
                "seed": r["seed"],
                "correct": r["verdict"]["correct"],
                "end_to_end": {k: v[0] for k, v in r["end_to_end"].items()},
                "samples": {k: r["samples"][k] for k in SAMPLES},
            }
            for r in results
        ],
        "ref_layers": {
            name: statistics.median(r["per_layer"][name][0] for r in results)
            for name in ref_names
        },
    }


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    before, after = spread(parent), spread(change)
    iqr = before["q3"] - before["q1"]
    delta = after["median"] - before["median"]
    won = wins >= 0.9 * len(parent)
    paired = None
    if all(parent):
        paired = spread([(c - p) / p for p, c in zip(parent, change)])
        ratio_iqr = paired["q3"] - paired["q1"]
        paired["rule_holds"] = won and sign * -paired["median"] > ratio_iqr
    return {
        "unit": metric["unit"],
        "parent": before,
        "change": after,
        "change_minus_parent": delta,
        "relative": delta / before["median"] if before["median"] else None,
        "change_wins": wins,
        "pairs": len(parent),
        "gain_rule_holds": won and sign * -delta > iqr,
        "paired_relative": paired,
    }


def record(parent_dir: Path, change_dir: Path, note: str) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    workloads = {}
    machine = {}
    for name in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[name]) & set(change_runs[name]))
        if not seeds:
            continue
        parent = [parent_runs[name][s] for s in seeds]
        change = [change_runs[name][s] for s in seeds]
        machine.setdefault("parent", parent[0]["machine"])
        machine.setdefault("change", change[0]["machine"])
        workloads[name] = {
            "config": {k: v for k, v in parent[0]["config"].items() if k != "seed"},
            "seeds": seeds,
            "end_to_end": {
                m["name"]: compare(
                    m,
                    [r["end_to_end"][m["name"]][0] for r in parent],
                    [r["end_to_end"][m["name"]][0] for r in change],
                )
                for m in declared
            },
            "parent": side_record(parent),
            "change": side_record(change),
        }
    if not workloads:
        sys.exit("bench_record: no workload has runs at a common seed on both sides")
    return {"note": note, "machine": machine, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_out", type=Path)
    parser.add_argument("change_out", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    result = record(args.parent_out, args.change_out, args.note)
    args.output.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, work in result["workloads"].items():
        for metric, cmp in work["end_to_end"].items():
            line = (
                f"{name:<12} {metric:<18} {cmp['parent']['median']:>10.4g} -> "
                f"{cmp['change']['median']:>10.4g} {cmp['unit']:<3} "
                f"wins {cmp['change_wins']}/{cmp['pairs']}"
                f"{'  gain' if cmp['gain_rule_holds'] else ''}"
            )
            paired = cmp["paired_relative"]
            if paired is not None:
                line += (
                    f"  paired {paired['median']:+.1%} "
                    f"({paired['q1']:+.1%} to {paired['q3']:+.1%})"
                    f"{'  paired gain' if paired['rule_holds'] else ''}"
                )
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
