#!/usr/bin/env python3
"""Pin the reference values the benchmark's correctness gate compares to.

Usage, from the root of a source checkout::

    python3 perfbench/pin_reference.py

For every workload, runs its grid once at PATHS_MULTIPLE times its path
count with seed SEED (serial, traced) and writes vol_swap, iv_zero_vanna
and atmi with their standard errors per cell to perfbench/reference.json.
Rerun it only when a change is meant to move the estimates, and say so.
"""
from __future__ import annotations

import json
import sys
import time

import run

SEED = 424242
PATHS_MULTIPLE = 16


def main() -> int:
    workloads = {}
    for name, base in run.WORKLOADS.items():
        config = dict(
            base,
            seed=SEED,
            n_paths=PATHS_MULTIPLE * base["n_paths"],
            workers=1,
            out=f"{run.OUT.name}/reference-{name}.csv",
        )
        run.OUT.mkdir(exist_ok=True)
        result = run.launch(config, True, time.monotonic() + 1800.0)
        if result["rc"] != 0:
            print(f"{name}: cli.run returned {result['rc']}", file=sys.stderr)
            return 1
        cells = {}
        for rep in result["reports"]:
            key = run.cell_key(rep["hurst"], rep["maturity"], rep["rho"])
            cells[key] = {f: [rep[f], rep[f + "_se"]] for f in run.REF_FIELDS}
        workloads[name] = {"config": config, "cells": dict(sorted(cells.items()))}
        print(f"{name}: {len(cells)} cells in {result['wall_s']:.1f} s")
    payload = {"commit": run.machine({})["commit"], "seed": SEED, "workloads": workloads}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
