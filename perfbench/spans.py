"""Spans for the traced benchmark repetition, and the per-layer metrics
computed from them.

Spans are recorded from outside the package: ``install`` replaces the
names that ``fracvol.cli``, ``fracvol.mcpricer`` and
``fracvol.swapanalysis`` import from the other modules with timing
wrappers, so no code under ``src/`` changes. Spans stay in memory as plain
lists ``[name, start, end, parent, cell, meta]`` and are written out once,
when the repetition ends.

``fbm.block`` spans time whole ``next()`` calls into ``iter_path_blocks``,
which draw the normals and run the Volterra convolution together. The two
are split by ``replay_normals``, which draws the same block shapes again
through the public ``block_rng`` after the run; the convolution share is
then derived as blocks minus normals. Spans inside the package would
measure the split directly; that is a later change to the program.
"""
from __future__ import annotations

import functools
import math
import time

# the ROADMAP's reference cell (H, T, rho)
REF_CELL = (0.1, 1.0, -0.8)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, cell=None, meta=None) -> int:
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, cell, meta])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def discard(self, index: int) -> None:
        """Drop the innermost open span; it must have no children."""
        self._open.pop()
        del self.spans[index:]

    def call(self, name: str, fn, *args, cell=None, **kwargs):
        index = self.begin(name, cell)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)


def _patch(tracer: Tracer, module, attr: str, name: str, cell_of=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cell = cell_of(*args) if cell_of is not None else None
        return tracer.call(name, fn, *args, cell=cell, **kwargs)

    setattr(module, attr, traced)


def install(tracer: Tracer, reports: list) -> None:
    """Wrap every layer boundary the CLI path crosses; append each
    ``SwapReport`` the CLI builds to ``reports``."""
    from fracvol import cli, mcpricer, swapanalysis

    _patch(tracer, mcpricer, "kernel_weights", "fbm.kernel_weights")
    _patch(tracer, mcpricer, "vol_paths", "volmodel.vol_paths")
    _patch(tracer, mcpricer, "path_functionals", "volmodel.path_functionals")
    _patch(tracer, swapanalysis, "implied_vol", "blackscholes.implied_vol")
    _patch(tracer, swapanalysis, "zero_vanna_strike", "blackscholes.zero_vanna")
    _patch(tracer, swapanalysis, "atm_skew", "swapanalysis.skew")
    _patch(
        tracer,
        cli,
        "simulate_functionals",
        "mcpricer.simulate",
        # a simulation shared across rho belongs to the rho that ran it,
        # the first in sorted order
        lambda grid, params, *_: (params.hurst, grid.maturity, params.rho),
    )
    _patch(
        tracer,
        cli,
        "convergence_study",
        "swapanalysis.rate_fit",
        lambda params, *_: (params.hurst, None, params.rho),
    )

    make_report = cli.zero_vanna_report

    def zero_vanna_report(pricer, funcs, params, x0, maturity, *args, **kwargs):
        report = tracer.call(
            "swapanalysis.report",
            make_report,
            pricer,
            funcs,
            params,
            x0,
            maturity,
            *args,
            cell=(params.hurst, maturity, params.rho),
            **kwargs,
        )
        reports.append(report)
        return report

    cli.zero_vanna_report = zero_vanna_report

    make_pricer = cli.strike_pricer

    def strike_pricer(funcs, params, x0, maturity, *args, **kwargs):
        price = make_pricer(funcs, params, x0, maturity, *args, **kwargs)
        cell = (params.hurst, maturity, params.rho)
        meta = {"n_paths": funcs.n_paths}

        def traced_price(k):
            index = tracer.begin("mcpricer.pricer", cell, meta)
            try:
                return price(k)
            finally:
                tracer.end(index)

        return traced_price

    cli.strike_pricer = strike_pricer

    path_blocks = mcpricer.iter_path_blocks

    def iter_path_blocks(grid, weights, n_paths, seed, *args, **kwargs):
        blocks = path_blocks(grid, weights, n_paths, seed, *args, **kwargs)
        while True:
            index = tracer.begin("fbm.block")
            try:
                b, batch = next(blocks)
            except StopIteration:
                tracer.discard(index)
                return
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index)
            tracer.spans[index][5] = {
                "seed": seed,
                "block": b,
                "rows": batch.n_paths,
                "n_steps": batch.n_steps,
                "dt": grid.dt,
            }
            yield b, batch

    mcpricer.iter_path_blocks = iter_path_blocks


def replay_normals(tracer: Tracer) -> None:
    """Draw every traced block's normals again, one ``fbm.normals`` span each."""
    from fracvol.fbm import W_STREAM, block_rng

    for name, _, _, _, cell, meta in list(tracer.spans):
        if name != "fbm.block":
            continue
        index = tracer.begin("fbm.normals", cell)
        rng = block_rng(meta["seed"], W_STREAM, meta["block"])
        rng.standard_normal((meta["rows"], meta["n_steps"])) * math.sqrt(meta["dt"])
        tracer.end(index)


def layer_metrics(spans: list, cell=None) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as ``{name: (value, unit, kind)}``.

    ``kind`` is "measured" for span sums and counts, "derived" for a
    difference of measured spans and "computed" for a figure worked out
    from counts. With ``cell`` only spans of that (H, T, rho) count, and
    the run-wide ``cli.*`` metrics are left out.
    """
    def norm(c):
        return None if c is None else tuple(c)

    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            # one thread: children never overlap, so their sum is the
            # time they cover
            child_time[s[3]] += duration[i]
    pricer_below: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[0] != "mcpricer.pricer":
            continue
        parent = s[3]
        while parent is not None:
            pricer_below[parent] = pricer_below.get(parent, 0) + 1
            parent = spans[parent][3]

    selected = [
        i for i, s in enumerate(spans) if cell is None or norm(s[4]) == cell
    ]

    def total(name):
        return sum(duration[i] for i in selected if spans[i][0] == name)

    def self_time(name):
        return sum(
            duration[i] - child_time[i] for i in selected if spans[i][0] == name
        )

    def count(name):
        return sum(1 for i in selected if spans[i][0] == name)

    blocks = [spans[i][5] for i in selected if spans[i][0] == "fbm.block"]
    path_steps = sum(m["rows"] * m["n_steps"] for m in blocks)
    pricer_spans = [i for i in selected if spans[i][0] == "mcpricer.pricer"]
    zero_vanna = [i for i in selected if spans[i][0] == "blackscholes.zero_vanna"]
    skews = [i for i in selected if spans[i][0] == "swapanalysis.skew"]
    blocks_s = total("fbm.block")
    normals_s = total("fbm.normals")
    metrics = {
        "fbm.blocks_s": (blocks_s, "s", "measured"),
        "fbm.normals_s": (normals_s, "s", "measured (replay)"),
        "fbm.convolution_s": (blocks_s - normals_s, "s", "derived"),
        "fbm.kernel_weights_s": (total("fbm.kernel_weights"), "s", "measured"),
        "fbm.blocks": (len(blocks), "count", "measured"),
        "fbm.path_steps": (path_steps, "count", "measured"),
        "fbm.path_bytes": (16 * path_steps, "B", "computed"),
        "volmodel.vol_paths_s": (total("volmodel.vol_paths"), "s", "measured"),
        "volmodel.path_functionals_s": (
            total("volmodel.path_functionals"),
            "s",
            "measured",
        ),
        "volmodel.calls": (
            count("volmodel.vol_paths") + count("volmodel.path_functionals"),
            "count",
            "measured",
        ),
        "mcpricer.simulate_s": (total("mcpricer.simulate"), "s", "measured"),
        "mcpricer.simulate_self_s": (
            self_time("mcpricer.simulate"),
            "s",
            "measured",
        ),
        "mcpricer.simulations": (count("mcpricer.simulate"), "count", "measured"),
        "mcpricer.pricer_s": (total("mcpricer.pricer"), "s", "measured"),
        "mcpricer.pricer_calls": (len(pricer_spans), "count", "measured"),
        "mcpricer.pricer_path_evals": (
            sum(spans[i][5]["n_paths"] for i in pricer_spans),
            "count",
            "computed",
        ),
        "blackscholes.implied_vol_s": (
            total("blackscholes.implied_vol"),
            "s",
            "measured",
        ),
        "blackscholes.implied_vol_calls": (
            count("blackscholes.implied_vol"),
            "count",
            "measured",
        ),
        "blackscholes.zero_vanna_self_s": (
            self_time("blackscholes.zero_vanna"),
            "s",
            "measured",
        ),
        "blackscholes.zero_vanna_curve_evals": (
            sum(pricer_below.get(i, 0) for i in zero_vanna),
            "count",
            "measured",
        ),
        "swapanalysis.report_s": (total("swapanalysis.report"), "s", "measured"),
        "swapanalysis.report_self_s": (
            self_time("swapanalysis.report"),
            "s",
            "measured",
        ),
        "swapanalysis.skew_s": (total("swapanalysis.skew"), "s", "measured"),
        # the central difference prices two strikes; six means the
        # Richardson fallback ran
        "swapanalysis.skew_fallbacks": (
            sum(1 for i in skews if pricer_below.get(i, 0) >= 6),
            "count",
            "measured",
        ),
        "swapanalysis.rate_fit_s": (
            total("swapanalysis.rate_fit"),
            "s",
            "measured",
        ),
    }
    if cell is None:
        metrics["cli.run_s"] = (total("cli.run"), "s", "measured")
        metrics["cli.run_self_s"] = (self_time("cli.run"), "s", "measured")
        metrics["cli.cells"] = (count("swapanalysis.report"), "count", "measured")
    return metrics
