"""Tests for tools/bench_record.py, the paired benchmark collator."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = ("wall_s", "zv_time_to_1bp_s", "peak_rss_mb", "setup_s")


def write_run(out_dir: Path, seed: int, wall: float, smoke=False, trace=0):
    result = {
        "workload": "sim_fft",
        "seed": seed,
        "smoke": smoke,
        "config": {"n_paths": 8, "seed": seed},
        "machine": {"commit": out_dir.name},
        "verdict": {"correct": True},
        "end_to_end": {m: [wall if m == "wall_s" else 1.0, "x"] for m in METRICS},
        "samples": {"wall_s": [wall], "setup_s": [1.0], "peak_rss_mb": [1.0]},
        "per_layer": {
            "ref.fbm.blocks_s": [wall / 2, "s", "measured"],
            "fbm.blocks": [2, "count", "measured"],
        },
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"sim_fft-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_pairs_by_seed_and_applies_gain_rule(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        write_run(parent, seed, 5.0 + 0.01 * seed)
        write_run(change, seed, 4.0 + 0.01 * seed)
    write_run(change, 11, 1.0)  # no parent run at this seed: not a pair
    record = bench_record.record(parent, change, "note")
    work = record["workloads"]["sim_fft"]
    assert work["seeds"] == list(range(1, 11))
    assert "seed" not in work["config"]
    wall = work["end_to_end"]["wall_s"]
    assert (wall["change_wins"], wall["pairs"]) == (10, 10)
    assert wall["gain_rule_holds"]
    assert wall["parent"]["median"] == pytest.approx(5.055)
    assert wall["change_minus_parent"] == pytest.approx(-1.0)
    # ties win nothing, so an unmoved metric claims no gain either way
    setup = work["end_to_end"]["setup_s"]
    assert setup["change_wins"] == 0 and not setup["gain_rule_holds"]
    assert setup["paired_relative"] == {
        "median": 0.0, "q1": 0.0, "q3": 0.0, "rule_holds": False
    }
    assert work["change"]["ref_layers"] == {"ref.fbm.blocks_s": pytest.approx(2.0275)}
    assert record["machine"] == {"parent": {"commit": "parent"}, "change": {"commit": "change"}}


def test_gain_inside_parent_spread_is_not_claimed(tmp_path):
    # the parent drifts 1.8 s across seeds and every pair is 0.05 s
    # faster: the parent's quartiles hide the gain, the pairs do not
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        write_run(parent, seed, 4.0 + 0.2 * seed)
        write_run(change, seed, 4.0 + 0.2 * seed - 0.05)
    wall = bench_record.record(parent, change, "")["workloads"]["sim_fft"]["end_to_end"]["wall_s"]
    assert wall["change_wins"] == 10
    assert not wall["gain_rule_holds"]
    ratios = sorted(-0.05 / (4.0 + 0.2 * seed) for seed in range(1, 11))
    paired = wall["paired_relative"]
    assert paired["median"] == pytest.approx((ratios[4] + ratios[5]) / 2)
    assert paired["q3"] - paired["q1"] < -paired["median"]
    assert paired["rule_holds"]


def test_paired_reading_needs_the_pairs_won(tmp_path):
    # a median ratio beyond its quartiles is no gain unless nine tenths
    # of the pairs are won
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        write_run(parent, seed, 5.0)
        write_run(change, seed, 4.0 if seed <= 8 else 6.0)
    wall = bench_record.record(parent, change, "")["workloads"]["sim_fft"]["end_to_end"]["wall_s"]
    assert wall["change_wins"] == 8
    assert wall["paired_relative"]["median"] == pytest.approx(-0.2)
    assert not wall["paired_relative"]["rule_holds"]


def test_flags_a_regression_beyond_its_bound(tmp_path):
    # wall_s's bound is 24 % of the parent's median: 30 % worse is beyond
    # it, 10 % worse is not, and neither claims a gain
    bound = {
        m["name"]: m["bound"]
        for m in json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())[
            "end_to_end"
        ]
    }["wall_s"]
    assert 0.1 < bound < 0.3
    for worse, within in ((1.3, False), (1.1, True)):
        parent, change = tmp_path / f"parent{worse}", tmp_path / f"change{worse}"
        for seed in range(1, 11):
            write_run(parent, seed, 5.0)
            write_run(change, seed, 5.0 * worse)
        work = bench_record.record(parent, change, "")["workloads"]["sim_fft"]
        wall = work["end_to_end"]["wall_s"]
        assert wall["within_bound"] is within
        assert not wall["gain_rule_holds"]
        # the unmoved metrics are within their bounds
        assert work["end_to_end"]["setup_s"]["within_bound"]


def test_prefers_untraced_file_and_rejects_smoke(tmp_path):
    out = tmp_path / "side"
    write_run(out, 1, 3.0, trace=0)
    write_run(out, 1, 9.0, trace=1)
    assert bench_record.load_runs(out)["sim_fft"][1]["end_to_end"]["wall_s"][0] == 3.0
    write_run(out, 2, 3.0, smoke=True)
    with pytest.raises(SystemExit, match="smoke"):
        bench_record.load_runs(out)


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    # parent runs over 4.0-7.6 s have an IQR of 1.8 s, wider than wall_s's
    # bound of the parent's 5.8 s median: an unmoved change cannot be told
    # from one 24 % slower, unless every change run beats every parent run
    for label, change_wall in (
        ("same", lambda seed: 4.0 + 0.4 * (seed - 1)),
        ("faster", lambda seed: 3.9 - 0.01 * seed),
    ):
        parent, change = tmp_path / f"parent_{label}", tmp_path / f"change_{label}"
        for seed in range(1, 11):
            write_run(parent, seed, 4.0 + 0.4 * (seed - 1))
            write_run(change, seed, change_wall(seed))
        work = bench_record.record(parent, change, "")["workloads"]["sim_fft"]
        wall = work["end_to_end"]["wall_s"]
        assert wall["within_bound"]
        assert wall["resolved"] is (label == "faster")
        assert bench_record.verdict(wall) == (
            "within bound" if label == "faster" else "unresolved"
        )
        # the unmoved metrics do not spread, so their reading stands
        assert work["end_to_end"]["setup_s"]["resolved"]
