"""The benchmark's workloads: one CLI invocation each, with its input shape.

Every workload is a closed loop with one caller: the next invocation starts
when the previous one has returned. The three heavy layers each get a
workload where they dominate and one where they barely run:

* the lattice sweep (``inference``, ``geometry``) dominates ``infer-k3``
  (interior points) and ``project-k6-boundary`` (boundary points), and is
  small in ``bonferroni-large-n`` and absent in ``simulate-k3``;
* per-point covariance (``estimators.variance_at``) costs O(n) per point in
  ``bonferroni-large-n``, runs on a small n in ``infer-k3`` and never runs in
  ``project-k6-boundary`` (fixed bootstrap covariance);
* ingest (``cli.read_panel_csv``, ``PanelData``) dominates
  ``bonferroni-large-n``, and ``PanelData`` validation dominates the
  per-model set-up of ``simulate-k3``; ingest is small in ``infer-k3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

from inputs import PanelSpec

# Test levels of every invocation, passed to the CLI explicitly so that the
# CLI and the correctness gate use the same values.
ALPHA = 0.05
KAPPA = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    panel: Optional[PanelSpec]
    grid: int = 0
    K: int = 3
    post: int = 0
    bootstrap_draws: int = 0
    nj: int = 0
    reps: int = 0

    def argv(self, csv_path: Optional[str], seed: int) -> List[str]:
        """CLI arguments of one invocation; output goes to stdout."""
        if self.command == "simulate":
            return [
                "simulate", "--K", str(self.K), "--nj", str(self.nj), "--spec", "boundary",
                "--reps", str(self.reps), "--seed", str(seed), "--alpha", str(ALPHA),
            ]
        args = [self.command, csv_path, "--grid", str(self.grid), "--alpha", str(ALPHA)]
        if self.bootstrap_draws:
            args += ["--variance", "bootstrap", "--bootstrap-draws", str(self.bootstrap_draws),
                     "--seed", str(seed)]
        if self.command == "bonferroni":
            args += ["--post", str(self.post), "--kappa", str(KAPPA)]
        return args

    @property
    def level(self) -> float:
        """Level the confidence set is built at."""
        return KAPPA if self.command == "bonferroni" else ALPHA

    @property
    def items(self) -> int:
        """Work units of one invocation: lattice points tested, or
        replications for ``simulate``."""
        if self.command == "simulate":
            return self.reps
        return math.comb(self.grid + self.K - 1, self.K - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="infer-k3",
            why="interior-point sweep dominates; about 1 MB of JSON records, "
                "so serialisation is measured",
            command="infer", K=3, grid=100,
            panel=PanelSpec(K=3, units_per_group=100, periods=10, resolution=100),
        ),
        Workload(
            name="project-k6-boundary",
            why="boundary cone projections dominate; fixed bootstrap covariance, "
                "so variance_at never runs",
            command="project", K=6, grid=12, bootstrap_draws=1000,
            panel=PanelSpec(K=6, units_per_group=100, periods=10, resolution=12,
                            zero_weights=3),
        ),
        Workload(
            name="bonferroni-large-n",
            why="CSV ingest and PanelData validation dominate; "
                "variance_at costs O(n) per point at n=20000",
            command="bonferroni", K=3, grid=20, post=11,
            panel=PanelSpec(K=3, units_per_group=5000, periods=11, resolution=20),
        ),
        Workload(
            name="simulate-k3",
            why="100 small models with one point test each; per-model set-up dominates",
            command="simulate", K=3, panel=None, nj=100, reps=100,
        ),
    )
}

# Tiny versions of the same invocations for the smoke mode.
SMOKE = {
    "infer-k3": dict(panel=PanelSpec(K=3, units_per_group=10, periods=5, resolution=8), grid=8),
    "project-k6-boundary": dict(
        panel=PanelSpec(K=6, units_per_group=10, periods=6, resolution=3, zero_weights=3),
        grid=3,
        bootstrap_draws=100,
    ),
    "bonferroni-large-n": dict(
        panel=PanelSpec(K=3, units_per_group=20, periods=6, resolution=6), grid=6, post=6,
    ),
    "simulate-k3": dict(nj=20, reps=6),
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if smoke:
        workload = replace(workload, **SMOKE[name])
    return workload
