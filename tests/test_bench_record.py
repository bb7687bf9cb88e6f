"""Tests of the benchmark recorder's reading and aggregation, on canned runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPECS = [
    {"name": "wall_norm_s", "unit": "s", "better": "lower"},
    {"name": "items_per_norm_s", "unit": "1/s", "better": "higher"},
]


def canned_pairs(parent, change):
    return [
        {"seed": i, "parent": {"metrics": {"wall_norm_s": p, "items_per_norm_s": 1 / p}},
         "change": {"metrics": {"wall_norm_s": c, "items_per_norm_s": 1 / c}}}
        for i, (p, c) in enumerate(zip(parent, change), start=1)
    ]


def test_seeds_parse_as_ranges_and_lists():
    assert bench_record.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_record.parse_seeds("5") == [5]


def test_unscaled_wall_time_sits_beside_the_scaled_one():
    names = [m["name"] for m in bench_record.metric_specs(ROOT)]
    assert names[names.index("wall_norm_s") + 1] == "wall_s"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert [n for n in names if n != "wall_s"] == declared


def test_a_run_is_read_from_its_summary_line_and_its_record(tmp_path):
    work = tmp_path / ".bench_work"
    work.mkdir()
    env = {"git": {"sha": "abc", "dirty": False}, "src_sha256": "f00", "numpy": "2.0"}
    samples = [{"wall_s": w, "ref_s": r} for w, r in ((0.05, 0.012), (0.03, 0.008), (0.04, 0.01))]
    record = {"worker": {"samples": samples}, "problems": [], "env": env}
    (work / "result-w-s3-t0.json").write_text(json.dumps(record), encoding="utf-8")
    summary = {"correct": True, "attempted": 30, "failed": 1,
               "metrics": {"wall_norm_s": {"value": 0.07, "unit": "s"}}}
    run = bench_record.read_run(str(tmp_path), "w", 3, "readable lines\n" + json.dumps(summary))
    assert run["metrics"] == {"wall_norm_s": 0.07, "wall_s": 0.04}
    assert run["ref_s"] == 0.01
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 30, 1)
    assert bench_record.side_stamp(run) == {"git": env["git"], "src_sha256": "f00",
                                           "env": {"numpy": "2.0"}}


def test_aggregation_gives_spread_pair_changes_and_the_gain_rule():
    parent = [0.10, 0.11, 0.12, 0.13, 0.10, 0.11, 0.12, 0.13, 0.10, 0.11]
    change = [0.08, 0.08, 0.09, 0.09, 0.08, 0.08, 0.09, 0.09, 0.08, 0.12]
    out = bench_record.aggregate(canned_pairs(parent, change), SPECS)
    wall = out["wall_norm_s"]
    assert wall["parent"] == pytest.approx({"median": 0.11, "q1": 0.1025, "q3": 0.12,
                                            "iqr": 0.0175})
    assert wall["change"]["median"] == pytest.approx(0.085)
    assert wall["pair_changes"][0] == pytest.approx(-0.2)
    assert wall["median_change"] == pytest.approx(0.085 / 0.11 - 1)
    assert (wall["wins"], wall["pairs"], wall["gain"]) == (9, 10, True)
    # higher is better: the same runs win the same pairs
    items = out["items_per_norm_s"]
    assert (items["wins"], items["gain"]) == (9, True)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_spread():
    parent = [0.10, 0.11, 0.12, 0.13, 0.10, 0.11, 0.12, 0.13, 0.10, 0.11]
    eight_wins = [0.08] * 8 + [0.2, 0.2]
    wall = bench_record.aggregate(canned_pairs(parent, eight_wins), SPECS)["wall_norm_s"]
    assert wall["wins"] == 8 and not wall["gain"]
    # every pair won, by less than the parent's interquartile range
    close = [p - 0.005 for p in parent]
    wall = bench_record.aggregate(canned_pairs(parent, close), SPECS)["wall_norm_s"]
    assert wall["wins"] == 10 and not wall["gain"]


def test_one_pair_has_no_spread():
    out = bench_record.aggregate(canned_pairs([0.1], [0.08]), SPECS)["wall_norm_s"]
    assert out["parent"] == {"median": 0.1, "q1": 0.1, "q3": 0.1, "iqr": 0.0}
    assert out["gain"]
