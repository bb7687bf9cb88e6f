"""Seeded panel CSVs for the benchmark workloads.

Uses only numpy and the standard library and calls no ``simplexci`` code, so
a change to the library cannot change the inputs it is measured on. The
same ``(spec, seed)`` always gives the same bytes.

The treated group's mean path is an exact convex mix of the donor paths, so
the model is correctly specified and the true weight lies in the confidence
set with the nominal probability.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class PanelSpec:
    """Shape of one generated panel.

    ``K`` donor groups plus the treated group 0, ``units_per_group`` units in
    each of the ``K + 1`` groups, observed at periods ``1..periods``.
    ``zero_weights`` donors (the last ones) get true weight 0, which puts the
    true weight on the boundary of the simplex. The true weight is a point of
    the lattice with spacing ``1/resolution``, so that the swept lattice
    contains it even when the sample is large enough to reject its
    neighbours.
    """

    K: int
    units_per_group: int
    periods: int
    resolution: int
    zero_weights: int = 0

    @property
    def rows(self) -> int:
        return (self.K + 1) * self.units_per_group * self.periods


def true_weight(spec: PanelSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded lattice point with exactly ``zero_weights`` zero entries: each
    active donor gets one step of ``1/resolution`` plus a Dirichlet share of
    the remaining steps, rounded by largest remainder."""
    active = spec.K - spec.zero_weights
    spare = spec.resolution - active
    share = rng.dirichlet(np.full(active, 2.0)) * spare
    steps = np.floor(share)
    order = np.argsort(steps - share, kind="stable")  # largest remainder first
    steps[order[: spare - int(steps.sum())]] += 1
    w = np.zeros(spec.K)
    w[:active] = (1 + steps) / spec.resolution
    return w


def panel_csv_bytes(spec: PanelSpec, seed: int) -> bytes:
    """Long-format ``unit,group,time,outcome`` CSV of one seeded panel."""
    rng = np.random.default_rng([seed, spec.K, spec.units_per_group, spec.periods, spec.resolution])
    w = true_weight(spec, rng)
    trend = np.arange(1, spec.periods + 1) / spec.periods
    signs = (-1.0) ** np.arange(spec.K)
    donors = 1.0 + signs[:, None] * trend[None, :] + rng.standard_normal((spec.K, spec.periods))
    means = np.vstack([w @ donors, donors])
    outcome = means[:, None, :] + rng.standard_normal(
        (spec.K + 1, spec.units_per_group, spec.periods)
    )
    lines = ["unit,group,time,outcome"]
    for g in range(spec.K + 1):
        for i in range(spec.units_per_group):
            label = f"g{g}u{i}"
            lines.extend(
                f"{label},{g},{t + 1},{y!r}" for t, y in enumerate(outcome[g, i].tolist())
            )
    return ("\n".join(lines) + "\n").encode("ascii")


def write_panel(spec: PanelSpec, seed: int, directory: str) -> Tuple[str, dict]:
    """Write the panel CSV under ``directory``; return its path and a record
    of its row count and sha256."""
    data = panel_csv_bytes(spec, seed)
    name = (f"panel-K{spec.K}-u{spec.units_per_group}-t{spec.periods}-r{spec.resolution}"
            f"-z{spec.zero_weights}-s{seed}.csv")
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path, {"path": name, "rows": spec.rows, "sha256": hashlib.sha256(data).hexdigest()}

