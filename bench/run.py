"""Benchmark of the simplexci command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout. For one workload (see workloads.py) this
generates the seeded input, then starts one fresh worker process that calls
``simplexci.cli.main`` in process, warm, in a closed loop for ``--seconds``
and checks the output (see gate.py). With ``--trace 0`` the worker also
times the CLI's set-up in fresh interpreters, and this prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced run (see tracing.py). The metric names and units are those of
BENCHMARK.json.

The ``*_norm_s`` metrics are invocation times scaled to a fixed machine
speed: each invocation's time is multiplied by ``REFERENCE_S`` over the
time of a fixed reference loop run just before and after it (see
worker.py). A shared machine's speed drifts by up to 1.7x over tens of
seconds, which no statistic of one run removes; the scaled times follow the
program and not the drift. The unscaled times are kept in the run record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary. Inputs, spans and a full record of every run, with an
environment stamp, are written under ``.bench_work/`` in the checkout.

``--smoke`` runs every workload at a tiny size in both modes and checks
that every metric is present and the correctness gate passed. It has no
timing gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import numpy as np

import inputs
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# Time a worker may take beyond its measuring time: warm-up, correctness
# gate and set-up probes.
WORKER_GRACE_S = 120


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_sha256() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "simplexci"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_state() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                                  timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return {"sha": None, "dirty": None}
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def env_stamp() -> dict:
    return {
        "git": git_state(),
        "src_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def run_worker(workload, csv_path, seed, seconds, trace, smoke, spans_path) -> dict:
    argv = [sys.executable, WORKER, workload.name, csv_path or "-", str(seed), str(seconds),
            str(int(trace)), str(int(smoke)), spans_path]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload.name} timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload.name} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def check_repeatable(key: str, observed: dict) -> bool:
    """Exact counts and output hash must match an earlier run of the same
    library code on the same workload and input; the first run records
    them."""
    path = os.path.join(WORK, f"counts-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh) == observed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(observed, fh, sort_keys=True)
    return True


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Generate the input, run the worker, and return the full record."""
    if not os.path.isfile(os.path.join(SRC, "simplexci", "cli.py")):
        raise BenchError(f"no simplexci sources under {SRC}; run from a full checkout")
    os.makedirs(WORK, exist_ok=True)
    stamp = env_stamp()
    workload = workloads.get(name, smoke)
    csv_path, input_record = (
        inputs.write_panel(workload.panel, seed, WORK) if workload.panel else (None, {})
    )
    tag = f"{name}-s{seed}{'-smoke' if smoke else ''}-t{int(trace)}"
    result = run_worker(workload, csv_path, seed, seconds, trace, smoke,
                        os.path.join(WORK, f"spans-{tag}.json"))
    stamp["loadavg_end"] = os.getloadavg()

    identity = f"{stamp['src_sha256']} {workload!r} {input_record.get('sha256')}"
    repeat_key = f"{tag}-{hashlib.sha256(identity.encode()).hexdigest()[:16]}"
    observed = {"output_sha256": result["output_sha256"], "gate": result.get("gate"),
                "counts": result.get("exact_counts")}
    problems = []
    if "gate_error" in result:
        problems.append(f"correctness gate: {result['gate_error']}")
    if not result["deterministic"]:
        problems.append("invocations produced different output bytes")
    if result["nonzero_exits"]:
        problems.append(f"{result['nonzero_exits']} invocation(s) exited non-zero")
    if not result.get("counts_stable", True):
        problems.append("exact counts differ between traced invocations")
    if not check_repeatable(repeat_key, observed):
        problems.append("exact counts or output differ from an earlier run of the same code")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "input": input_record, "env": stamp, "worker": result,
              "problems": problems}
    values = measured_values(workload, result, trace)
    record["measured"] = sorted(values)
    record["summary"] = {
        "correct": not problems, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in metric_specs(trace)},
    }
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def metric_specs(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measured_values(workload, result, trace) -> dict:
    """Every metric the run measured; a layer that did not run on this
    workload has no entry and is reported as 0."""
    if trace:
        values = dict(result["layers"])
        values["trace.overhead_frac"] = result["overhead_frac"]
    else:
        wall = statistics.median(s["wall_norm_s"] for s in result["samples"])
        values = {
            "wall_norm_s": wall,
            "cpu_norm_s": statistics.median(s["cpu_norm_s"] for s in result["samples"]),
            "items_per_norm_s": workload.items / wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(result["setup_samples_s"]),
        }
    values["failed_frac"] = result["failed"] / result["attempted"]
    values["cli.nonzero_exits"] = result["nonzero_exits"]
    return values


def report(record: dict) -> None:
    summary, worker = record["summary"], record["worker"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{len(worker['samples'])} timed invocations of {worker['items_per_invocation']} "
          f"items, median reported; correct={summary['correct']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    samples = worker["samples"]
    print(f"  unscaled: median wall {statistics.median(x['wall_s'] for x in samples):.6g} s, "
          f"median reference loop {statistics.median(x['ref_s'] for x in samples):.6g} s")
    if "failed_frac" not in summary["metrics"]:
        print(f"  {'failed_frac':<44} {summary['failed'] / summary['attempted']:>14.6g} ratio")
    print(f"  failed items: {summary['failed']} of {summary['attempted']}; "
          f"non-zero exits: {worker['nonzero_exits']}")
    print(f"  setup_s samples: {len(worker['setup_samples_s'])}; "
          f"output sha256 {','.join(h[:16] for h in worker['output_sha256'])}")
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")


def smoke() -> int:
    """Every end-to-end metric must be measured on every workload, and every
    per-layer metric on at least one."""
    ok = True
    layers_seen = set()
    end_to_end = {m["name"] for m in metric_specs(False)}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_once(name, seed=1, seconds=0.2, trace=trace, smoke=True)
            report(record)
            summary = record["summary"]
            if trace:
                layers_seen.update(record["measured"])
            missing = set() if trace else end_to_end - set(record["measured"])
            if missing or not summary["correct"] or summary["failed"]:
                print(f"SMOKE FAIL {name} trace={trace}: missing={sorted(missing)}")
                ok = False
    never = {m["name"] for m in metric_specs(True)} - layers_seen
    if never:
        print(f"SMOKE FAIL: per-layer metrics measured on no workload: {sorted(never)}")
        ok = False
    print("smoke: all workloads ran, every metric measured, gate passed" if ok
          else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
