"""Print the exit code and stdout sha256 of 27 fixed CLI invocations.

    python3 scripts/output_digest.py

The package is imported from the ``src/`` of the checkout holding the
script, and the inputs and arguments from its ``bench/``. Each panel is the
benchmark's seeded CSV (``bench/inputs.py``'s ``panel_csv_bytes``), written
to a temporary directory, and each invocation is ``simplexci.cli.main`` run
in process with the arguments of a benchmark workload (``bench/workloads.py``)
plus ``--format``:

* ``infer-k3`` (``infer``), ``project-k6-boundary`` (``project --variance
  bootstrap``) and ``bonferroni-large-n`` (``bonferroni``) at seeds 1-3, in
  JSON and CSV, 18 cases;
* ``simulate-k3`` at seeds 1-3, in JSON, and the same with ``--projection``,
  in CSV, 6 cases;
* ``simulate --K 3 --nj 50 --reps 20 --grid 3 --projection`` at seeds 1-3,
  in JSON, 3 cases whose sweeps give empty sets in some replications and
  not in others (the same at both sizes).

One line is printed per case: its name, the exit code and the sha256 of
its stdout, tab separated. Two checkouts whose lines are equal write the
same bytes on every case; to compare with a checkout that lacks the script,
copy the script there. Only numpy and the standard library are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from typing import Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from simplexci import cli  # noqa: E402

SEEDS = (1, 2, 3)
SWEEPS = ("infer-k3", "project-k6-boundary", "bonferroni-large-n")


def cases(directory: str, smoke: bool) -> Iterator[Tuple[str, List[str]]]:
    """``(name, argv)`` of every case, at the benchmark's tiny sizes if
    ``smoke``; the panels are written to ``directory``."""
    for name in SWEEPS:
        workload = workloads.get(name, smoke)
        for seed in SEEDS:
            path = os.path.join(directory, f"{name}-{seed}.csv")
            with open(path, "wb") as fh:
                fh.write(inputs.panel_csv_bytes(workload.panel, seed))
            for fmt in ("json", "csv"):
                yield f"{name} seed={seed} {fmt}", workload.argv(path, seed) + ["--format", fmt]
    workload = workloads.get("simulate-k3", smoke)
    for extra, fmt in (([], "json"), (["--projection"], "csv")):
        for seed in SEEDS:
            label = " ".join(["simulate-k3", *extra, f"seed={seed}", fmt])
            yield label, workload.argv(None, seed) + extra + ["--format", fmt]
    coarse = ["simulate", "--K", "3", "--nj", "50", "--reps", "20", "--grid", "3", "--projection"]
    for seed in SEEDS:
        yield f"simulate --grid 3 --projection seed={seed} json", coarse + [
            "--seed", str(seed), "--format", "json"]


def digest(argv: List[str]) -> Tuple[int, str]:
    """The exit code and stdout sha256 of one in-process CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        for name, case_argv in cases(directory, smoke=False):
            rc, sha = digest(case_argv)
            print(f"{name}\t{rc}\t{sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
