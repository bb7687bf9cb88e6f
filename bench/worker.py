"""One workload in one fresh process: warm up, run closed-loop CLI
invocations in process for a fixed time, then check the output.

Usage: python bench/worker.py WORKLOAD CSV|- SEED SECONDS TRACE SMOKE SPANS_PATH

Prints one JSON line with the measurements. With TRACE=1 the invocations
alternate between the library as shipped and the library with every public
function wrapped in a span (see tracing.py); the spans of the last traced
invocation are kept in memory and written to SPANS_PATH when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import simplexci  # noqa: E402
from simplexci import cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SKIP_PREFIX = "skipping grid point"
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import simplexci.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - t, c.__file__)\n"
)
SETUP_MIN_PROBES = 7

# Time of reference_loop() on the machine that timed invocations are scaled
# to. It is a definition, close to the loop's median on a 2-core x86 VM.
REFERENCE_S = 0.014
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((6, 6))
_REF_A = _REF_A @ _REF_A.T + 6.0 * np.eye(6)
_REF_B = _REF_RNG.standard_normal(6)

# Counts that must repeat exactly between traced invocations of one run.
EXACT_SUFFIXES = (".calls", ".boundary_calls")
EXACT_KEYS = ("inference.skipped_points", "cli.output_bytes")


def probe_setup() -> float:
    """Seconds a fresh interpreter takes to import simplexci.cli and build
    the parser. Probes are spread over the run so that a slow spell of the
    machine does not hit all of them."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                          cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing simplexci.cli failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"simplexci imported from {path}, not from this checkout")
    return float(seconds)


def reference_loop() -> float:
    """Seconds of a fixed loop that uses no simplexci code: small dense
    solves and interpreted arithmetic, the mix an invocation spends its time
    on. On a shared machine the speed of both drifts together, by up to
    1.7x over tens of seconds, so each timed invocation is scaled by the
    loop's time around it."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(800):
        acc += float(np.linalg.solve(_REF_A, _REF_B) @ _REF_B)
        acc += sum(j * j for j in range(50))
    return time.perf_counter() - start


def invoke(argv) -> dict:
    """One CLI invocation with stdout captured in a buffer and warnings
    recorded instead of printed."""
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    causes = Counter()
    for w in caught:
        text = str(w.message)
        if text.startswith(SKIP_PREFIX):
            causes[text.split("]: ", 1)[-1]] += 1
    return {"rc": rc, "wall": wall, "cpu": cpu, "out": buf.getvalue().encode("utf-8"),
            "skipped": sum(causes.values()), "causes": causes}


def failed_items(workload, run: dict) -> int:
    if run["rc"] != 0:
        return workload.items
    if workload.command == "simulate":
        return json.loads(run["out"])["failures"]
    return run["skipped"]


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES) or k in EXACT_KEYS}


def sweep_counts(gate_counts: dict, layers: dict) -> dict:
    """Exact counts of the sweep, as the correctness gate counted them in
    the output (every invocation's output is byte-identical)."""
    out = {f"inference.{k}": gate_counts[k]
           for k in ("lattice_points", "boundary_points", "members") if k in gate_counts}
    if out.get("inference.lattice_points"):
        out["geometry.check_simplex_point.calls_per_point"] = (
            layers.get("geometry.check_simplex_point.calls", 0) / out["inference.lattice_points"]
        )
    return out


def main(argv) -> int:
    name, csv_path, seed, seconds, trace, smoke, spans_path = argv
    seed, seconds, trace, smoke = int(seed), float(seconds), trace == "1", smoke == "1"
    csv_path = None if csv_path == "-" else csv_path
    if not os.path.abspath(simplexci.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"simplexci imported from {simplexci.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = workloads.get(name, smoke)
    args = workload.argv(csv_path, seed)

    # The run's time budget includes one untimed warm-up invocation, which
    # fills the library's lazy caches.
    start = time.perf_counter()
    warm = invoke(args)
    # Peak memory of import plus one full invocation; read here so that it
    # does not depend on how many invocations fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs, traced, layers, setup, spans = [], [], [], [], []
    tracer = Tracer() if trace else None
    while True:
        began = time.perf_counter()
        gc.collect()
        before = reference_loop()
        run = invoke(args)
        run["ref"] = (before + reference_loop()) / 2.0
        runs.append(run)
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                traced.append(invoke(args))
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layers.append(layer_metrics(spans))
        elif len(runs) % 2:
            setup.append(probe_setup())
        now = time.perf_counter()
        if now - start + (now - began) > seconds and (tracer is None or len(traced) >= 2):
            break
    while tracer is None and len(setup) < SETUP_MIN_PROBES:
        setup.append(probe_setup())

    everything = [warm] + runs + traced
    hashes = {hashlib.sha256(r["out"]).hexdigest() for r in everything if r["rc"] == 0}
    causes = Counter()
    for r in everything:
        causes.update(r["causes"])
    result = {
        "samples": [{"wall_s": r["wall"], "cpu_s": r["cpu"], "ref_s": r["ref"],
                     "wall_norm_s": r["wall"] * REFERENCE_S / r["ref"],
                     "cpu_norm_s": r["cpu"] * REFERENCE_S / r["ref"]} for r in runs],
        "setup_samples_s": setup,
        "items_per_invocation": workload.items,
        "attempted": workload.items * len(runs + traced),
        "failed": sum(failed_items(workload, r) for r in runs + traced),
        "nonzero_exits": sum(r["rc"] != 0 for r in everything),
        "skip_causes": dict(causes),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": len(warm["out"]),
        "output_sha256": sorted(hashes),
        "deterministic": len(hashes) == 1,
    }
    try:
        if warm["rc"] != 0:
            raise gate.GateError(f"CLI exited with code {warm['rc']}")
        result["gate"] = gate.check(workload, warm["out"], csv_path, seed)
    except (gate.GateError, ValueError, KeyError, TypeError) as exc:
        result["gate_error"] = f"{type(exc).__name__}: {exc}"

    if tracer is not None:
        for metrics, r in zip(layers, traced):
            metrics["cli.output_bytes"] = len(r["out"])
            metrics["inference.skipped_points"] = r["skipped"]
        counts = [exact_counts(m) for m in layers]
        result["exact_counts"] = counts[0]
        result["counts_stable"] = all(c == counts[0] for c in counts)
        keys = sorted(set().union(*layers))
        result["layers"] = {k: statistics.median(m.get(k, 0) for m in layers) for k in keys}
        result["layers"].update(counts[0])
        result["layers"].update(sweep_counts(result.get("gate", {}), result["layers"]))
        result["overhead_frac"] = (
            statistics.median(r["wall"] for r in traced)
            / statistics.median(r["wall"] for r in runs) - 1.0
        )
        result["traced_invocations"] = len(traced)
        _write_spans(spans_path, spans)
    print(json.dumps(result))
    return 0


def _write_spans(path: str, spans) -> None:
    """Spans of one traced invocation as ``[id, parent, name, start, end,
    boundary]`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "boundary"],
                   "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
