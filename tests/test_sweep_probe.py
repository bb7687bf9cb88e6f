"""Tests of the in-process sweep timer on a tiny lattice."""

import os
import subprocess
import sys

from simplexci.estimators import influence_set, make_weight_model, quadratic_components
from simplexci.inference import confidence_set
from simplexci.montecarlo import McSpec, generate_panel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sweep_probe_prints_one_row_per_lattice():
    # without the BLAS thread count set, so that the script re-executes itself
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    argv = [sys.executable, os.path.join(ROOT, "scripts", "sweep_probe.py"),
            "--row", "3:4:interior:20", "--row", "4:3:boundary:20"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    header, *rows = out.stdout.splitlines()
    assert header == "lattice\tdesign\tn_j\tpoints\tbest_ms\tmembers"
    cells = [row.split("\t") for row in rows]
    assert [row[:4] for row in cells] == [["K=3,res=4", "interior", "20", "15"],
                                          ["K=4,res=3", "boundary", "20", "20"]]
    assert all(float(row[4]) > 0.0 for row in cells)
    for (K, res, design), row in zip(((3, 4, "interior"), (4, 3, "boundary")), cells):
        panel = generate_panel(McSpec(K=K, n_j=20, design=design), 1, 2)
        comps = quadratic_components(panel)
        cs = confidence_set(make_weight_model(comps, influence_set(panel, comps)), 0.05, res)
        assert int(row[5]) == int(cs.member_mask.sum())
