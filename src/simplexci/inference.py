"""Pointwise tests for candidate weights, confidence sets over simplex
lattices, and the projection and Bonferroni intervals derived from them.

The test at a point ``w`` projects the transformed gradient estimate onto
the polyhedral cone attached to ``w`` in the inverse-covariance norm, scales
the squared residual by the sample size, and compares it with a chi-square
quantile whose degrees of freedom adapt to the face of the cone hit by the
projection. Sweeping a lattice of the simplex and keeping the points that
pass yields a confidence set that is valid whether or not the true weight
sits on the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .distributions import chi2_quantile, normal_quantile
from .exceptions import IllConditionedError
from .geometry import _cap_error, check_simplex_point, factor_spd, project_cone

__all__ = [
    "WeightModel",
    "PointTest",
    "ConfidenceSet",
    "Interval",
    "default_resolution",
    "simplex_grid",
    "point_test",
    "confidence_set",
    "projection_interval",
    "bonferroni_interval",
]

_GRID_CAP = 5_000_000
# Lattice points a sweep tests in one batch. A batch holds a few arrays of
# up to (K+1)^2 entries per point, so batching keeps a sweep's working
# memory small beside its records.
_BATCH_POINTS = 1024


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Inputs of the pointwise test: an affine gradient and a quadratic
    covariance, in basis coordinates.

    With ``v = (w, 1)`` the transformed gradient estimate at a weight ``w``
    is ``f(w) = G v`` and its covariance is
    ``Omega(w) = sum_ab v_a v_b M[a, b]``. ``G`` has shape ``(K-1, K+1)``
    and ``M`` shape ``(K+1, K+1, K-1, K-1)``; ``K`` is taken from ``G``. A
    covariance that does not depend on ``w`` (for example a bootstrap
    covariance at the estimated weights) is the block ``M[K, K]`` with every
    other block zero. ``n`` is the sample size that scales the test
    statistic. Coordinates refer to the Helmert basis ``build_basis(K)``.
    Both arrays are copied and made read-only.
    """

    G: np.ndarray
    M: np.ndarray
    n: int

    def __post_init__(self) -> None:
        G = np.array(self.G, dtype=float)
        M = np.array(self.M, dtype=float, order="C")
        if G.ndim != 2 or G.shape[1] != G.shape[0] + 2:
            raise ValueError(f"G must have shape (K-1, K+1), got {G.shape}")
        K = G.shape[0] + 1
        if K < 2:
            raise ValueError(f"K must be at least 2, got {K}")
        if M.shape != (K + 1, K + 1, K - 1, K - 1):
            raise ValueError(f"M must have shape {(K + 1, K + 1, K - 1, K - 1)}, got {M.shape}")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(M))):
            raise ValueError("G and M must have finite entries")
        if self.n < 1:
            raise ValueError(f"sample size must be positive, got {self.n}")
        G.setflags(write=False)
        M.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "M", M)

    @property
    def K(self) -> int:
        return self.G.shape[0] + 1

    def evaluate(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients ``F`` (N, K-1) and covariances ``Omega`` (N, K-1, K-1)
        at the rows of ``points`` (N, K), which are not validated. A
        covariance that does not depend on ``w`` (``M[K, K]`` is the only
        nonzero block) is returned once, as ``M[K, K]`` of shape
        (1, K-1, K-1), for all rows."""
        N, K = points.shape
        lifted = np.column_stack([points, np.ones(N)])
        blocks = self.M.reshape((K + 1) ** 2, (K - 1) ** 2)
        gradients = lifted @ self.G.T
        if not blocks[:-1].any():
            return gradients, self.M[K, K][None]
        # zero blocks add nothing, so only the used products are formed
        used = np.flatnonzero(blocks.any(axis=1))
        a, b = divmod(used, K + 1)
        omegas = (lifted[:, a] * lifted[:, b]) @ blocks[used]
        return gradients, omegas.reshape(N, K - 1, K - 1)


@dataclass(frozen=True)
class PointTest:
    """Outcome of testing a single candidate weight.

    ``statistic`` is the scaled squared projection residual, ``zeros`` the
    count of vanishing entries of the mapped residual, ``dof`` the adaptive
    chi-square degrees of freedom ``max(K - 1 - zeros, 1)``, and ``member``
    records whether the statistic is at most the critical value. ``error``
    is set (and ``member`` is False) when the point was skipped for a
    numerical reason during a sweep.
    """

    w: np.ndarray
    statistic: float
    zeros: int
    dof: int
    critical: float
    member: bool
    error: Optional[str] = None


@dataclass
class ConfidenceSet:
    """A simplex lattice and the test results of its points, as columns.

    Entry ``i`` of ``statistic``, ``zeros``, ``dof``, ``critical`` and
    ``member_mask`` belongs to ``grid[i]``, with the meaning of the
    ``PointTest`` field of the same name (``member_mask`` holds ``member``).
    A point skipped for a numerical reason has statistic ``inf``, zero
    count 0, ``dof`` ``K - 1``, critical value NaN and is not a member;
    ``errors`` maps its lattice index to the message.
    """

    alpha: float
    grid: np.ndarray
    resolution: int
    statistic: np.ndarray
    zeros: np.ndarray
    dof: np.ndarray
    critical: np.ndarray
    member_mask: np.ndarray
    errors: Dict[int, str] = field(default_factory=dict)

    @property
    def records(self) -> List[PointTest]:
        """One ``PointTest`` per lattice point, built from the columns."""
        columns = (self.statistic, self.zeros, self.dof, self.critical, self.member_mask)
        rows = zip(self.grid, *(column.tolist() for column in columns))
        return [PointTest(*row, error=self.errors.get(i)) for i, row in enumerate(rows)]

    def member_points(self) -> np.ndarray:
        """Grid rows whose test passed."""
        return self.grid[self.member_mask]


@dataclass(frozen=True)
class Interval:
    """Closed interval, possibly empty (lower and upper are NaN when empty)."""

    lower: float
    upper: float
    empty: bool = False

    def __post_init__(self) -> None:
        if not self.empty and not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    @classmethod
    def empty_interval(cls) -> "Interval":
        return cls(float("nan"), float("nan"), True)

    @property
    def length(self) -> float:
        return 0.0 if self.empty else self.upper - self.lower


def default_resolution(K: int) -> int:
    """Default lattice resolution: 100 for K <= 3, 40 for K <= 5, 20 for
    K <= 7, 10 beyond."""
    if K <= 3:
        return 100
    if K <= 5:
        return 40
    if K <= 7:
        return 20
    return 10


def simplex_grid(K: int, resolution: int) -> np.ndarray:
    """Lattice of simplex points with coordinates in multiples of 1/resolution.

    Rows enumerate all length-K compositions of ``resolution`` divided by
    ``resolution``, in ascending lexicographic order, so the output is
    deterministic. The row count is ``comb(resolution + K - 1, K - 1)``;
    resolutions whose lattice would exceed 5,000,000 points are rejected.
    """
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    size = math.comb(resolution + K - 1, K - 1)
    if size > _GRID_CAP:
        raise ValueError(
            f"lattice would hold {size} points, above the cap {_GRID_CAP}; "
            "use a coarser resolution"
        )
    # each row with ``rest`` units left becomes rest + 1 rows, one per value
    # of the next coordinate in ascending order; the last takes what is left
    counts = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([resolution], dtype=np.int64)
    for _ in range(K - 1):
        ways = rest + 1
        value = np.arange(ways.sum()) - np.repeat(np.cumsum(ways) - ways, ways)
        counts = np.column_stack([np.repeat(counts, ways, axis=0), value])
        rest = np.repeat(rest, ways) - value
    return np.column_stack([counts, rest]) / float(resolution)


def _test_rows(
    model: WeightModel, points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Exception]]:
    """``n`` times the projection objective, the zero count and the error of
    each row of ``points`` (N, K), which are not validated: the one test
    behind ``point_test`` and ``confidence_set``. ``errors`` maps each failed
    row, in order, to its covariance's error, else its iteration cap's; a
    covariance that does not depend on ``w`` is checked once, and its
    failure is every row's."""
    gradients, omegas = model.evaluate(points)
    _, white, failures = factor_spd(omegas)
    if failures and len(omegas) < len(points):
        failures = dict.fromkeys(range(len(points)), failures[0])
    # a failed row carries an identity whitening, so projecting it is harmless
    _, _, objective, _, zeros, over_cap = project_cone(gradients, points, white)
    errors = {i: _cap_error(model.K) for i in np.flatnonzero(over_cap).tolist()}
    errors.update((i, _covariance_error(points[i], exc)) for i, exc in failures.items())
    return model.n * objective, zeros, dict(sorted(errors.items()))


def point_test(model: WeightModel, w: np.ndarray, alpha: float) -> PointTest:
    """Test whether the candidate weight ``w`` is compatible with the data.

    Runs the three steps at ``w``: project the transformed gradient estimate
    onto the cone in the inverse-covariance norm, count the zeros of the
    mapped residual, and compare ``n`` times the squared residual norm with
    the chi-square quantile at ``1 - alpha`` whose degrees of freedom are
    ``max(K - 1 - zeros, 1)``. This is one row of ``confidence_set``'s
    sweep. A covariance at ``w`` that fails ``factor_spd`` raises
    ``IllConditionedError`` naming ``w``, and a projection over its
    iteration cap raises ``ConvergenceError``.

    Parameters
    ----------
    model : WeightModel
    w : array_like, shape (K,)
        Candidate weight on the simplex.
    alpha : float
        Test level in (0, 1).

    Returns
    -------
    PointTest
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    wv = check_simplex_point(w, model.K).copy()
    wv.setflags(write=False)
    statistic, zeros, errors = _test_rows(model, wv[None, :])
    if errors:
        raise errors[0]
    statistic, zeros = float(statistic[0]), int(zeros[0])
    dof = max(model.K - 1 - zeros, 1)
    critical = chi2_quantile(1.0 - alpha, dof)
    return PointTest(w=wv, statistic=statistic, zeros=zeros, dof=dof, critical=critical,
                     member=statistic <= critical)


def _covariance_error(w: np.ndarray, exc: Exception) -> IllConditionedError:
    """The error of a point whose covariance failed ``factor_spd``."""
    return IllConditionedError(f"covariance matrix at w={w.tolist()} failed validation: {exc}")


def confidence_set(
    model: WeightModel,
    alpha: float,
    resolution: Optional[int] = None,
    *,
    strict: bool = False,
) -> ConfidenceSet:
    """Sweep a simplex lattice and keep the points whose test passes.

    Every point gets ``point_test``'s result, computed by the same code for
    batches of 1,024 points at once: ``factor_spd`` checks the covariances
    and whitens them by its certified Cholesky rule, and ``project_cone``
    projects. A covariance that does not depend on ``w`` (``M[K, K]`` is the
    only nonzero block of ``model.M``) is checked and whitened once per
    batch, and ``project_cone`` whitens the generators with it once per
    batch instead of once per point. A point whose covariance fails or
    whose projection goes over its iteration cap is skipped with the error
    ``point_test`` would raise: it is not a member, the message goes to the
    set's ``errors``, and a warning is issued; with ``strict=True`` the
    first one in lattice order raises instead.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    K = model.K
    res = resolution if resolution is not None else default_resolution(K)
    grid = simplex_grid(K, res)
    grid.setflags(write=False)
    statistic, zeros = np.empty(len(grid)), np.empty(len(grid), dtype=int)
    errors: Dict[int, Exception] = {}
    for start in range(0, len(grid), _BATCH_POINTS):
        stop = start + _BATCH_POINTS
        statistic[start:stop], zeros[start:stop], failed = _test_rows(model, grid[start:stop])
        errors.update((start + i, exc) for i, exc in failed.items())
    for i, exc in errors.items():
        if strict:
            raise exc
        message = f"skipping grid point {grid[i].tolist()}: {exc}"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    skipped = list(errors)
    statistic[skipped], zeros[skipped] = math.inf, 0
    dof = np.maximum(K - 1 - zeros, 1)
    table = np.full(K, math.nan)  # the critical value of each dof
    for k in np.unique(np.delete(dof, skipped)).tolist():
        table[k] = chi2_quantile(1.0 - alpha, k)
    critical = table[dof]
    critical[skipped] = math.nan
    return ConfidenceSet(
        alpha=alpha, grid=grid, resolution=res, statistic=statistic, zeros=zeros, dof=dof,
        critical=critical, member_mask=statistic <= critical,
        errors={i: str(exc) for i, exc in errors.items()},
    )


def projection_interval(cs: ConfidenceSet, coord: int) -> Interval:
    """Range of one weight coordinate over the members of a confidence set.

    Returns the empty interval when no grid point is a member.
    """
    K = cs.grid.shape[1]
    if not 0 <= coord < K:
        raise ValueError(f"coordinate must lie in [0, {K - 1}], got {coord}")
    mask = cs.member_mask
    if not mask.any():
        return Interval.empty_interval()
    values = cs.grid[mask, coord]
    return Interval(float(values.min()), float(values.max()))


def bonferroni_interval(
    cs: ConfidenceSet,
    theta_hat: Callable[[np.ndarray], float],
    v_hat: Callable[[np.ndarray], float],
    n: int,
    alpha: float = 0.05,
) -> Interval:
    """Two-step interval for a scalar functional of the weights.

    Splits the error budget: the share ``kappa = cs.alpha``, the level the
    weight confidence set was built at, goes to the set and the rest to a
    normal interval for the functional at each member point. The result is
    the union of the pointwise intervals
    ``theta_hat(w) +/- z * v_hat(w) / sqrt(n)`` over member points ``w``,
    with ``z`` the standard normal quantile at ``1 - (alpha - kappa) / 2``.
    ``theta_hat`` and ``v_hat`` are called once per member.

    Returns the empty interval when the confidence set has no members.
    """
    kappa = cs.alpha
    if not 0.0 < kappa < alpha < 1.0:
        raise ValueError(f"need 0 < kappa < alpha < 1, got kappa={kappa}, alpha={alpha}")
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    members = cs.member_points()
    if members.shape[0] == 0:
        return Interval.empty_interval()
    theta = np.array([float(theta_hat(w)) for w in members])
    spread = np.array([float(v_hat(w)) for w in members])
    if not (spread > 0.0).all():
        i = int(np.argmin(spread > 0.0))
        raise ValueError(f"v_hat must be positive, got {spread[i]} at w={members[i].tolist()}")
    half = normal_quantile(1.0 - (alpha - kappa) / 2.0) * spread / math.sqrt(n)
    return Interval(float((theta - half).min()), float((theta + half).max()))
