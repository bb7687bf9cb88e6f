"""Time in-process plug-in lattice sweeps, one BLAS thread.

    python3 scripts/sweep_probe.py [--row K:RES:DESIGN:N_J ...]

The package is imported from the ``src/`` of the checkout holding the script.
Each row builds the plug-in model of one simulated panel,
``generate_panel(McSpec(K=K, n_j=N_J, design=DESIGN), 1, 2)``, times
``confidence_set(model, 0.05, RES)`` three times, and prints the lattice,
the points, the best time and the member count. The default rows are the
in-process plug-in table of ROADMAP's baseline: K=3 at res 100; K=6 at
res 20, boundary and interior; K=8 and K=10 at res 10.

BLAS reads its thread count when numpy is imported, so the script sets
``OPENBLAS_NUM_THREADS=1`` and re-executes itself before importing numpy.
Only numpy and the standard library are used.
"""

from __future__ import annotations

import os
import sys

if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import time  # noqa: E402
from typing import List, Optional, Sequence, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from simplexci.estimators import (  # noqa: E402
    influence_set,
    make_weight_model,
    quadratic_components,
)
from simplexci.inference import confidence_set  # noqa: E402
from simplexci.montecarlo import McSpec, generate_panel  # noqa: E402

DEFAULT_ROWS = ("3:100:interior:100", "6:20:boundary:50", "6:20:interior:100",
                "8:10:interior:100", "10:10:interior:100")
RUNS = 3  # per row; the best is kept


def parse_row(text: str) -> Tuple[int, int, str, int]:
    """``"6:20:boundary:50"`` as ``(K, res, design, n_j)``."""
    K, res, design, n_j = text.split(":")
    return int(K), int(res), design, int(n_j)


def probe(K: int, res: int, design: str, n_j: int) -> Tuple[int, float, int]:
    """The points, best wall time in seconds and member count of one sweep."""
    spec = McSpec(K=K, n_j=n_j, design=design)
    panel = generate_panel(spec, 1, 2)
    comps = quadratic_components(panel)
    model = make_weight_model(comps, influence_set(panel, comps))
    times: List[float] = []
    for _ in range(RUNS):
        start = time.perf_counter()
        cs = confidence_set(model, 0.05, res)
        times.append(time.perf_counter() - start)
    return len(cs.grid), min(times), int(cs.member_mask.sum())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--row", action="append", help="K:RES:DESIGN:N_J (default: the table)")
    args = parser.parse_args(argv)
    print("lattice\tdesign\tn_j\tpoints\tbest_ms\tmembers")
    for text in args.row or DEFAULT_ROWS:
        K, res, design, n_j = parse_row(text)
        points, best, members = probe(K, res, design, n_j)
        print(f"K={K},res={res}\t{design}\t{n_j}\t{points}\t{best * 1e3:.1f}\t{members}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
