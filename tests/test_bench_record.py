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


def gated_pairs(parent_failed, change_failed, attempted=100):
    run = {"correct": True, "problems": [], "attempted": attempted}
    return [{"seed": seed, "parent": dict(run, failed=p), "change": dict(run, failed=c)}
            for seed, (p, c) in enumerate(zip(parent_failed, change_failed), start=1)]


def test_runs_that_pass_the_gate_and_fail_no_more_items_are_recorded():
    bench_record.check_pairs("w", gated_pairs([0, 0, 0], [0, 0, 0]))
    bench_record.check_pairs("w", gated_pairs([1, 0, 2], [0, 2, 0]))


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_run_with_wrong_output_stops_the_recording(side):
    pairs = gated_pairs([0, 0, 0], [0, 0, 0])
    pairs[1][side].update(correct=False, problems=["stdout differs"])
    with pytest.raises(bench_record.RecordError,
                       match=f"{side} run of w seed 2 failed the correctness gate"):
        bench_record.check_pairs("w", pairs)
    pairs[1][side].update(correct=True)
    with pytest.raises(bench_record.RecordError, match=f"{side} run of w seed 2 lists problems"):
        bench_record.check_pairs("w", pairs)


def test_a_change_that_fails_a_larger_share_of_items_stops_the_recording():
    with pytest.raises(bench_record.RecordError,
                       match=r"w: the change failed 2 of 300 items, the parent 1 of 300 "
                             r"\(more on seeds \[3\]\)"):
        bench_record.check_pairs("w", gated_pairs([1, 0, 0], [1, 0, 1]))
    # a share, not a count: fewer items attempted at the same count fail more
    pairs = gated_pairs([1, 0], [1, 0])
    pairs[0]["change"]["attempted"] = 50
    with pytest.raises(bench_record.RecordError, match="the change failed 1 of 150 items"):
        bench_record.check_pairs("w", pairs)


def test_a_side_is_stamped_only_when_all_its_runs_share_one_source():
    def run(sha, load):
        return {"env": {"git": {"sha": "abc", "dirty": False}, "src_sha256": sha,
                        "loadavg_start": load}}

    same = [("w", 1, run("f00", 1.0)), ("w", 2, run("f00", 2.0)), ("v", 1, run("f00", 3.0))]
    assert bench_record.one_source("change", same) == {
        "git": {"sha": "abc", "dirty": False}, "src_sha256": "f00", "env": {"loadavg_start": 1.0}}
    edited = same[:2] + [("v", 1, run("ba5", 3.0))]
    with pytest.raises(bench_record.RecordError,
                       match="change run of v seed 1 has src_sha256 ba5, but its run of w seed 1 "
                             "has f00"):
        bench_record.one_source("change", edited)


def test_the_recorder_writes_nothing_when_a_check_fails(tmp_path, monkeypatch, capsys):
    # the recorder's own loop on canned runs, in a checkout at tmp_path
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": SPECS}), encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    source = {"parent": "f00", "change": "ba5"}

    def canned_run(checkout, workload, seed, seconds):
        side = "change" if checkout == str(tmp_path) else "parent"
        return {"correct": True, "attempted": 10, "failed": 0, "problems": [], "ref_s": 0.01,
                "metrics": {"wall_norm_s": 0.1, "items_per_norm_s": 10.0, "wall_s": 0.1},
                "env": {"git": {"sha": side}, "src_sha256": source[side]}}

    monkeypatch.setattr(bench_record, "run_side", canned_run)
    argv = ["--parent", str(tmp_path / "parent"), "--label", "x", "--seeds", "1-3"]
    assert bench_record.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_x.json").read_text(encoding="utf-8"))
    assert (doc["parent"]["src_sha256"], doc["change"]["src_sha256"]) == ("f00", "ba5")
    assert doc["workloads"]["w"]["metrics"]["wall_norm_s"]["pairs"] == 3
    (tmp_path / "BENCH_x.json").unlink()

    def edited_after_seed_1(checkout, workload, seed, seconds):
        run = canned_run(checkout, workload, seed, seconds)
        if seed > 1:
            run["env"]["src_sha256"] += "-edited"
        return run

    monkeypatch.setattr(bench_record, "run_side", edited_after_seed_1)
    assert bench_record.main(argv) == 1
    assert "parent run of w seed 2 has src_sha256 f00-edited" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()


def test_both_checkouts_are_compiled_before_the_first_run(tmp_path, monkeypatch):
    # setup_s times a fresh import, which must not include compiling src/
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": SPECS}), encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", str(tmp_path))
    sources = {}
    for checkout in (tmp_path, tmp_path / "parent"):
        package = checkout / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("X = 1\n", encoding="utf-8")
        sources[str(checkout)] = importlib.util.cache_from_source(str(package / "mod.py"))
    compiled_at_run = []

    def canned_run(checkout, workload, seed, seconds):
        compiled_at_run.append(os.path.exists(sources[checkout]))
        return {"correct": True, "attempted": 10, "failed": 0, "problems": [], "ref_s": 0.01,
                "metrics": {"wall_norm_s": 0.1, "items_per_norm_s": 10.0, "wall_s": 0.1},
                "env": {"git": {"sha": "abc"}, "src_sha256": "f00"}}

    monkeypatch.setattr(bench_record, "run_side", canned_run)
    argv = ["--parent", str(tmp_path / "parent"), "--label", "x", "--seeds", "1-2"]
    assert bench_record.main(argv) == 0
    assert compiled_at_run == [True] * 4
