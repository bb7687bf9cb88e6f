"""Monte Carlo harness for coverage studies of the weight confidence sets.

The data generating process draws a fixed matrix of group-mean paths once
(linear trends with alternating slopes plus a Gaussian level draw held fixed
across replications), sets the treated path to the chosen convex combination
of untreated paths, and then adds fresh unit-level Gaussian noise in every
replication. Each replication draws from its own Philox generator, seeded by
one of the substreams that ``SeedSequence(seed).spawn`` gives, so it is
reproducible independently of execution order. ``coverage_experiment`` runs
the replications in chunks stacked on a leading axis, so its results do not
depend on the chunk size either.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .estimators import InfluenceSet, PanelData, QuadraticComponents, make_weight_model
from .estimators import _fixed_arrays, _influence_arrays, _quadratics, variance_at
from .exceptions import ConvergenceError, IllConditionedError
from .geometry import check_simplex_point
from .inference import WeightModel, confidence_set, default_resolution, point_test
from .inference import projection_interval

__all__ = ["McSpec", "CoverageReport", "generate_panel", "coverage_experiment"]

SeedLike = Union[int, np.random.bit_generator.ISeedSequence]

# Bytes of the largest per-replication array (the pivot or ``psi_H``) held
# for a chunk; a chunk stacks as many replications as fit, at least one.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class McSpec:
    """Design of one coverage experiment.

    ``design`` selects the true weight: ``"interior"`` puts 0.2 on the first
    donor group and spreads the rest evenly, ``"boundary"`` splits the mass
    between the first two donor groups and zeroes the others. ``w0_override``
    replaces either choice with an explicit simplex point (useful for edge cases).
    """

    K: int = 3
    n_j: int = 100
    t0: int = 10
    design: str = "interior"
    reps: int = 1000
    seed: int = 0
    alpha: float = 0.05
    grid_n: Optional[int] = None
    w0_override: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"K must be at least 2, got {self.K}")
        if self.n_j < 2:
            raise ValueError(f"group size must be at least 2, got {self.n_j}")
        if self.t0 < 1:
            raise ValueError(f"t0 must be at least 1, got {self.t0}")
        if self.design not in ("interior", "boundary"):
            raise ValueError(f"design must be 'interior' or 'boundary', got {self.design!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.grid_n is not None and self.grid_n < 1:
            raise ValueError(f"grid_n must be at least 1, got {self.grid_n}")
        if self.w0_override is not None:
            check_simplex_point(self.w0_override, self.K)

    @property
    def w0(self) -> np.ndarray:
        """The true weight vector implied by the design."""
        if self.w0_override is not None:
            return np.asarray(self.w0_override, dtype=float)
        w = np.zeros(self.K)
        if self.design == "interior":
            w[0] = 0.2
            w[1:] = 0.8 / (self.K - 1)
        else:
            w[0] = 0.5
            w[1] = 0.5
        return w


def _rng(seed: SeedLike) -> np.random.Generator:
    """Counter-based (Philox) generator from an integer seed or a
    ``SeedSequence``."""
    return np.random.Generator(np.random.Philox(seed))


def _population_means(spec: McSpec, eta_seed: SeedLike) -> np.ndarray:
    """The ``(K + 1, T)`` group-mean paths, treated path in row 0."""
    K, T = spec.K, spec.t0
    eta = _rng(eta_seed).standard_normal((K, T))
    trend = np.arange(1, T + 1) / T
    signs = (-1.0) ** np.arange(K)
    untreated = 0.5 + 0.5 * signs[:, None] * trend[None, :] + eta
    treated = spec.w0 @ untreated
    return np.vstack([treated, untreated])


def _outcomes(spec: McSpec, paths: np.ndarray, rep_seed: SeedLike) -> np.ndarray:
    """One replication's ``(K + 1, n_j, T)`` outcomes: paths plus unit noise."""
    noise = _rng(rep_seed).standard_normal((spec.K + 1, spec.n_j, spec.t0))
    return paths[:, None, :] + noise


def generate_panel(spec: McSpec, eta_seed: SeedLike, rep_seed: SeedLike) -> PanelData:
    """One simulated panel.

    ``eta_seed`` drives the group-mean level draw that stays fixed across
    replications of an experiment; ``rep_seed`` drives the unit-level noise
    that is redrawn each replication. Identical seeds produce bit-identical
    panels.
    """
    K, T, size = spec.K, spec.t0, spec.n_j
    outcomes = _outcomes(spec, _population_means(spec, eta_seed), rep_seed)
    n_units = (K + 1) * size
    units = np.repeat(np.arange(n_units), T)
    groups = np.repeat(np.arange(K + 1), size * T)
    periods = np.tile(np.arange(1, T + 1), n_units)
    return PanelData.from_long(units, groups, periods, outcomes.reshape(-1), t_match=T)


@dataclass
class CoverageReport:
    """Aggregated results of a coverage experiment.

    ``coverage`` is the share of replications whose test at the true weight
    passed (replications that failed numerically count against coverage and
    are also reported in ``failures``). When the projection sweep ran,
    ``projection_coverage`` and ``mean_lengths`` hold per-coordinate results
    (lengths averaged over non-empty sets only), ``empty_rate`` the share of
    swept replications whose set had no members, and ``resolution`` the grid
    resolution used.
    """

    K: int
    n_j: int
    t0: int
    design: str
    reps: int
    alpha: float
    seed: int
    w0: List[float]
    coverage: float
    failures: int
    resolution: Optional[int] = None
    projection_coverage: Optional[List[float]] = None
    mean_lengths: Optional[List[Optional[float]]] = None
    empty_rate: Optional[float] = None

    def to_dict(self) -> dict:
        """The fields as a dict; the projection fields appear only when the
        sweep ran."""
        return {name: value for name, value in asdict(self).items() if value is not None}


def coverage_experiment(spec: McSpec, projection: bool = False) -> CoverageReport:
    """Run the replications of one design and aggregate coverage.

    Tests the true weight in every replication; with ``projection=True``
    additionally sweeps the lattice and records per-coordinate projection
    intervals. Numerical failures in single replications are counted, not
    fatal. Replications run in chunks: each draws its noise from its own
    substream, and a chunk's estimators up to the covariance at the true
    weight are computed along a leading axis, bit for bit as for one panel,
    and each replication's test is one ``point_test`` of a fixed-covariance
    model cut from the chunk's arrays. The whole experiment is a
    deterministic function of ``spec``; it does not depend on the chunk size.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.reps + 1)
    w0 = spec.w0
    resolution = spec.grid_n if spec.grid_n is not None else default_resolution(spec.K)
    paths = _population_means(spec, children[0])
    # the first replication's panel is validated once and fixes the pivot
    # layout (unit order and groups) that every replication shares
    labels, groups, _ = generate_panel(spec, children[0], children[1])._matched
    n, T = labels.size, spec.t0
    chunk = max(1, _CHUNK_BYTES // (8 * n * max(T, spec.K**2)))

    covered = failures = swept = empties = 0
    proj_hits = np.zeros(spec.K)
    length_sums = np.zeros(spec.K)

    for done in range(0, spec.reps, chunk):
        seeds = children[1 + done : 1 + min(done + chunk, spec.reps)]
        outcomes = np.stack([_outcomes(spec, paths, seed) for seed in seeds])
        matrix = outcomes.reshape(len(seeds), n, T)[:, labels]
        means, H, h = _quadratics(groups, matrix)
        infl = InfluenceSet(*_influence_arrays(groups, matrix, means))
        # the test at w0 needs the plug-in covariance at w0 alone, which
        # costs O(n K^2) where the moment tensor of a sweep costs O(n K^4)
        G, M = _fixed_arrays(H, h, variance_at(infl, w0))
        for i in range(len(seeds)):
            try:
                outcome = point_test(WeightModel(G=G[i], M=M[i], n=n), w0, spec.alpha)
            except (IllConditionedError, ConvergenceError):
                failures += 1
                continue
            covered += int(outcome.member)
            if projection:
                comps = QuadraticComponents(H=H[i], h=h[i])
                own = InfluenceSet(psi_H=infl.psi_H[i], psi_h=infl.psi_h[i])
                cs = confidence_set(make_weight_model(comps, own), spec.alpha, resolution)
                swept += 1
                empties += int(not cs.member_mask.any())
                # an empty set's intervals cover nothing and have length 0
                for j in range(spec.K):
                    interval = projection_interval(cs, j)
                    inside = interval.lower - 1e-12 <= w0[j] <= interval.upper + 1e-12
                    proj_hits[j] += int(inside)
                    length_sums[j] += interval.length

    report = CoverageReport(
        K=spec.K,
        n_j=spec.n_j,
        t0=spec.t0,
        design=spec.design,
        reps=spec.reps,
        alpha=spec.alpha,
        seed=spec.seed,
        w0=[float(x) for x in w0],
        coverage=covered / spec.reps,
        failures=failures,
    )
    if projection:
        report.resolution = resolution
        report.projection_coverage = [float(proj_hits[j] / swept) if swept else 0.0 for j in range(spec.K)]
        filled = swept - empties
        report.mean_lengths = [float(total / filled) if filled else None for total in length_sums]
        report.empty_rate = float(empties / swept) if swept else 0.0
    return report
