"""Record a benchmark comparison of this checkout against a parent checkout.

    python3 scripts/bench_record.py --parent PATH --label NAME \\
        [--workload W ...] [--seeds 1-10] [--seconds 6]

For each workload and seed this runs, as a subprocess,

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in this checkout (the change) and once in the checkout at PATH (the
parent), each in its own directory. The two runs of one seed are a pair;
the parent runs first on odd seeds and the change on even ones, so a drift
in machine speed does not favour one side. Each run's last stdout line (its
summary) and its ``.bench_work/result-W-sS-t0.json`` record are read back.

The result goes to ``BENCH_<label>.json`` at the root of this checkout. For
every end-to-end metric, and for the unscaled median wall time ``wall_s``
beside ``wall_norm_s``, it holds each side's median and quartiles, the
change of every pair, the pairs the change won, and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and the medians
differ by more than the parent's interquartile range. It also holds each
side's git SHA, ``src_sha256``, environment stamps and reference-loop times.

The recorder stops, naming the run, and writes nothing when a run exits
non-zero, fails the correctness gate or lists problems, when the change
fails a larger share of a workload's items than the parent, or when the
runs of one side do not share one ``src_sha256`` (its checkout was edited
during the recording).

Before the first run, ``src/`` of both checkouts is compiled to bytecode,
because ``setup_s`` would otherwise include compiling the package in a
checkout without ``__pycache__`` when ``PYTHONDONTWRITEBYTECODE`` is set.
``src_sha256`` hashes only ``.py`` files, so compiling does not move it.

Known traps. The reference loop that scales ``*_norm_s`` has
two speed modes, so compare the two sides of a pair, not times across
sessions. ``peak_rss_mb`` on ``project-k6-boundary`` has two modes about
1 MB apart.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Extra subprocess time beyond the measured seconds: input generation,
# warm-up, the correctness gate and the set-up probes.
RUN_GRACE_S = 300


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,2,5"`` as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, sep, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if sep else [int(low)])
    return seeds


def metric_specs(root: str) -> List[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``, with the unscaled wall
    time added after ``wall_norm_s``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    unscaled = {"name": "wall_s", "unit": "s", "better": "lower"}
    at = next((i + 1 for i, m in enumerate(specs) if m["name"] == "wall_norm_s"), len(specs))
    return specs[:at] + [unscaled] + specs[at:]


class RecordError(Exception):
    """A recording that would misstate its runs."""


def read_run(checkout: str, workload: str, seed: int, stdout: str) -> dict:
    """One run's metrics from its summary line and its run record."""
    summary = json.loads(stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, ".bench_work", f"result-{workload}-s{seed}-t0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    samples = record["worker"]["samples"]
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    metrics["wall_s"] = statistics.median(s["wall_s"] for s in samples)
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
        "ref_s": statistics.median(s["ref_s"] for s in samples),
        "problems": record["problems"],
        "env": record["env"],
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + RUN_GRACE_S)
    if proc.returncode != 0:
        raise RecordError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                          f"{proc.stderr}")
    return read_run(checkout, workload, seed, proc.stdout)


def compile_sources(checkout: str) -> None:
    """Compile the checkout's ``src/`` to bytecode, so that no run's
    ``setup_s`` includes compiling it."""
    if not compileall.compile_dir(os.path.join(checkout, "src"), quiet=1):
        raise RecordError(f"{checkout}: src/ does not compile")


def check_pairs(workload: str, pairs: List[dict]) -> None:
    """Raise ``RecordError`` naming the first run whose output was wrong, or
    the workload if the change fails a larger share of its items."""
    for pair in pairs:
        for side in ("parent", "change"):
            run, where = pair[side], f"{side} run of {workload} seed {pair['seed']}"
            if not run["correct"]:
                raise RecordError(f"{where} failed the correctness gate: {run['problems']}")
            if run["problems"]:
                raise RecordError(f"{where} lists problems: {run['problems']}")
    (p_failed, p_items), (c_failed, c_items) = (
        (sum(p[side]["failed"] for p in pairs), sum(p[side]["attempted"] for p in pairs))
        for side in ("parent", "change")
    )
    if c_failed * p_items > p_failed * c_items:
        seeds = [p["seed"] for p in pairs if p["change"]["failed"] > p["parent"]["failed"]]
        raise RecordError(f"{workload}: the change failed {c_failed} of {c_items} items, the "
                          f"parent {p_failed} of {p_items} (more on seeds {seeds})")


def spread(values: Sequence[float]) -> dict:
    """Median and quartiles (numpy's default linear rule) of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def aggregate(pairs: List[dict], specs: List[dict]) -> Dict[str, dict]:
    """Per metric: each side's spread over the pairs, the change's relative
    difference in each pair, the pairs it won and the gain rule."""
    out = {}
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": before,
            "change": after,
            "pair_changes": [c / p - 1.0 if p else None for p, c in zip(parent, change)],
            "median_change": after["median"] / before["median"] - 1.0 if before["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs)
            and abs(after["median"] - before["median"]) > before["iqr"],
        }
    return out


def side_stamp(run: dict) -> dict:
    """What identifies one side: its code and its environment stamp."""
    env = run["env"]
    return {
        "git": env["git"],
        "src_sha256": env["src_sha256"],
        "env": {k: v for k, v in env.items() if k not in ("git", "src_sha256")},
    }


def one_source(side: str, runs: Sequence[Tuple[str, int, dict]]) -> dict:
    """``side_stamp`` of a side's first run, given the side's ``(workload,
    seed, run)`` triples. Raises ``RecordError`` unless every run has the
    first one's ``src_sha256``."""
    first_workload, first_seed, first = runs[0]
    for workload, seed, run in runs:
        if run["env"]["src_sha256"] != first["env"]["src_sha256"]:
            raise RecordError(
                f"{side} run of {workload} seed {seed} has src_sha256 "
                f"{run['env']['src_sha256']}, but its run of {first_workload} seed "
                f"{first_seed} has {first['env']['src_sha256']}: its checkout changed"
            )
    return side_stamp(first)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-10", help="for example 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    specs = metric_specs(ROOT)
    if args.workload:
        workloads = args.workload
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            workloads = [w["name"] for w in json.load(fh)["workloads"]]
    try:
        doc = record(os.path.abspath(args.parent), args, workloads, specs)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def record(parent_root: str, args: argparse.Namespace, workloads: List[str],
           specs: List[dict]) -> dict:
    """Run every pair and gather the document ``main`` writes."""
    doc = {"label": args.label, "seconds": args.seconds, "seeds": parse_seeds(args.seeds),
           "command": "bench/run.py --workload W --seed S --seconds T --trace 0",
           "workloads": {}}
    for checkout in (parent_root, ROOT):
        compile_sources(checkout)
    all_pairs = {}
    for workload in workloads:
        pairs = []
        for seed in doc["seeds"]:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                checkout = parent_root if side == "parent" else ROOT
                pair[side] = run_side(checkout, workload, seed, args.seconds)
            print(f"{workload} seed {seed}: wall_norm_s parent "
                  f"{pair['parent']['metrics']['wall_norm_s']:.4g} s, change "
                  f"{pair['change']['metrics']['wall_norm_s']:.4g} s", flush=True)
            pairs.append(pair)
        check_pairs(workload, pairs)
        all_pairs[workload] = pairs
        doc["workloads"][workload] = {
            "metrics": aggregate(pairs, specs),
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       **{side: {k: p[side][k] for k in ("metrics", "correct", "attempted",
                                                         "failed", "problems", "ref_s")}
                          for side in ("parent", "change")}}
                      for p in pairs],
        }
    for side in ("parent", "change"):
        doc[side] = one_source(side, [(workload, p["seed"], p[side])
                                      for workload, pairs in all_pairs.items() for p in pairs])
    return doc


if __name__ == "__main__":
    sys.exit(main())
