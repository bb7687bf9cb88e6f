"""Smoke run of the benchmark harness, so a library change that breaks its
correctness gate fails here rather than only when the benchmark runs.

The harness's gate builds models with ``make_weight_model`` and checks CLI
output against ``point_test`` and ``confidence_set(...).records``. The
smoke mode runs every workload at a tiny size; nothing here is timed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run_passes_its_gate():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "gate passed" in proc.stdout, proc.stdout
