"""Group-level synthetic control estimator.

Panel observations carry a unit label, a group (0 is the treated group,
1..K are untreated donor groups), an integer period and an outcome. Group
means over the matching periods define a quadratic objective whose minimizer
over the simplex is the synthetic-control weight; this module computes the
components of that objective, the per-unit influence functions that feed the
covariance estimators (plug-in at every candidate weight, or bootstrap at
the estimated weight), and the treated-minus-synthetic functional used for
post-period effect intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import DataError
from .geometry import SpdMatrix, _quadratic, build_basis, check_simplex_point
from .inference import WeightModel

__all__ = [
    "PanelData",
    "QuadraticComponents",
    "InfluenceSet",
    "quadratic_components",
    "influence_set",
    "variance_at",
    "bootstrap_variance",
    "treatment_functional",
    "make_weight_model",
]


def _integer_column(name: str, values) -> np.ndarray:
    """``values`` as an integer array; a non-finite, non-integral or
    out-of-int64 entry raises ``DataError`` naming the column, its position
    and its value."""
    arr = np.asarray(values)
    if arr.dtype.kind == "i" or (arr.dtype.kind == "u" and arr.max(initial=0) < 2**63):
        return arr.astype(int, copy=False)
    floats = arr.astype(float, copy=False)
    with np.errstate(invalid="ignore"):
        ints = floats.astype(int)
    # numpy holds integers beyond int64 as uint64, objects or rounded
    # floats, so a list's own entries are compared
    exact = floats
    if arr.dtype.kind in "uO" or not isinstance(values, np.ndarray):
        exact = np.asarray(values, dtype=object).ravel()
    bad = np.flatnonzero(exact != ints)
    if bad.size:
        i, value = bad[0], exact[bad[0]]
        if isinstance(value, int) or float(value).is_integer():
            raise DataError(f"column {name} has an out-of-range entry {value} at position {i}")
        raise DataError(f"column {name} has a non-integer entry {value} at position {i}")
    return ints


def _label_codes(labels: np.ndarray):
    """``np.unique``'s ``(units, first, code)``, with one sorted copy of ``labels``, not two."""
    perm = np.argsort(labels, kind="stable")  # so a label's first row comes first
    ordered = labels[perm]
    new = np.append(True, ordered[1:] != ordered[:-1])
    if ordered.dtype.kind in "cfmM":  # as np.unique, every NaN (sorted last) is one label
        new[1:] &= ~np.isnan(ordered[:-1])
    units, first = ordered[new], perm[new]
    del ordered  # before the cumsum
    code = np.empty_like(perm)
    code[perm] = np.cumsum(new) - 1
    return units, first, code


@dataclass(eq=False)
class PanelData:
    """Long-format panel of grouped outcomes.

    Groups must form the contiguous set {0, ..., K} with K >= 1, every group
    needs at least two units, and every unit must be observed at every
    matching period 1..t_match exactly once; ``t_match`` defaults to the
    last period present. Periods beyond ``t_match`` (for example a
    post-treatment period) may be present and are ignored by the matching
    computations. A unit label may not hold a NUL character. An array column
    of the right dtype, such as a view of a reader's table, is kept, unwritten.
    """

    unit: np.ndarray
    group: np.ndarray
    time: np.ndarray
    outcome: np.ndarray
    t_match: Optional[int] = None
    K: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.unit, np.ndarray) or self.unit.dtype == object:
            for i, label in enumerate(self.unit):  # a numpy string drops trailing NULs
                if isinstance(label, str) and "\x00" in label:
                    raise DataError(f"unit label {label!r} at position {i} holds a NUL character")
        self.unit = np.asarray(self.unit)
        self.group = _integer_column("group", self.group)
        self.time = _integer_column("time", self.time)
        self.outcome = np.asarray(self.outcome, dtype=float)
        n_obs = self.unit.size
        if n_obs == 0:
            raise DataError("panel has no observations")
        for name, arr in (("group", self.group), ("time", self.time), ("outcome", self.outcome)):
            if arr.size != n_obs:
                raise DataError(f"column {name} has {arr.size} entries, expected {n_obs}")
        if not np.all(np.isfinite(self.outcome)):
            raise DataError("outcome column has non-finite entries")
        if self.time.min() < 1:
            raise DataError("periods must be integers >= 1")
        if self.t_match is None:
            self.t_match = int(self.time.max())
        if self.t_match < 1:
            raise DataError(f"t_match must be at least 1, got {self.t_match}")
        self.K = int(self.group.max())
        if not (0 <= self.group.min() and self.K < n_obs and np.bincount(self.group).all()):
            found = sorted(set(self.group.tolist()))
            raise DataError(f"groups must form a contiguous range 0..K, found {found}")
        if self.K < 1:
            raise DataError("need at least one untreated group besides group 0")
        units, first, code = _label_codes(self.unit)
        # a stable sort by (unit, period) puts the first row of each pair first
        order = np.lexsort((self.time, code))
        repeat = (np.diff(code[order]) == 0) & (np.diff(self.time[order]) == 0)
        if repeat.any():
            i = int(order[1:][repeat].min())
            raise DataError(
                f"duplicate observation for unit {self.unit.item(i)!r} "
                f"at period {self.time[i]}"
            )
        del order, repeat  # before the pivot, the peak of a panel with short labels
        # one group per unit: the group of its first row
        unit_group = self.group[first]
        split = np.flatnonzero(self.group != unit_group[code])
        if split.size:
            i = split[0]
            raise DataError(
                f"unit {self.unit.item(i)!r} appears in groups "
                f"{unit_group[code[i]]} and {self.group[i]}"
            )
        for g, c in enumerate(np.bincount(unit_group, minlength=self.K + 1).tolist()):
            if c < 2:
                raise DataError(f"group {g} has {c} unit(s); each group needs at least 2")
        # units ordered by (group, label string), independent of row order
        by_group = np.lexsort((units.astype(str), unit_group))
        rank = np.empty_like(by_group)
        rank[by_group] = np.arange(by_group.size)
        self._pivot_row = rank[code]
        # the pivot of the matching periods: (labels, unit groups, n x T
        # outcomes); (unit, period) pairs are unique and periods start at 1,
        # so every cell the window's rows leave unset is a hole
        T = self.t_match
        in_window = self.time <= T
        holes = units.size * int(T) - int(np.count_nonzero(in_window))
        if holes:
            raise DataError(
                f"panel is unbalanced: {holes} missing unit-period cell(s) over "
                f"matching periods 1..{T}"
            )
        matrix = np.empty((units.size, T))
        matrix[self._pivot_row[in_window], self.time[in_window] - 1] = self.outcome[in_window]
        self._matched = (units[by_group], unit_group[by_group], matrix)

    @classmethod
    def from_long(
        cls,
        unit,
        group,
        time,
        outcome,
        t_match: Optional[int] = None,
    ) -> "PanelData":
        """Build a panel from four parallel columns.

        When ``t_match`` is omitted, every period present is a matching
        period.
        """
        return cls(unit=unit, group=group, time=time, outcome=outcome, t_match=t_match)


@dataclass(frozen=True)
class QuadraticComponents:
    """Components of the quadratic matching objective 0.5 w'Hw - w'h.

    ``H`` is the K x K period-averaged cross-product of the untreated group
    means and ``h`` its counterpart against the treated mean, so the
    objective gradient at ``w`` is ``H w - h``. ``group_means`` stacks the
    per-period means with the treated group in row 0; ``group_probs`` are the
    plug-in group membership shares. The last two are None when components
    are supplied directly by a user-defined quadratic objective.
    """

    H: np.ndarray
    h: np.ndarray
    group_means: Optional[np.ndarray] = None
    group_probs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        H, h, _, _ = _quadratic(self.H, self.h, "H")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class InfluenceSet:
    """Per-unit influence functions of the objective gradient.

    ``psi_H`` has shape (n, K, K) and ``psi_h`` shape (n, K); the influence
    of unit i on the gradient at ``w`` is ``psi_H[i] @ w - psi_h[i]``. Both
    arrays must be column-mean-zero (they are exactly so for the plug-in
    construction; user-supplied sets are validated within a small tolerance).
    A stack of sets of one size carries leading axes on both arrays.
    """

    psi_H: np.ndarray
    psi_h: np.ndarray

    def __post_init__(self) -> None:
        psi_H = np.asarray(self.psi_H, dtype=float)
        psi_h = np.asarray(self.psi_h, dtype=float)
        if psi_H.ndim < 3 or psi_H.shape[-1] != psi_H.shape[-2]:
            raise ValueError(f"psi_H must have shape (n, K, K), got {psi_H.shape}")
        if psi_h.shape != psi_H.shape[:-1]:
            raise ValueError(f"psi_h must have shape {psi_H.shape[:-1]}, got {psi_h.shape}")
        if not (np.all(np.isfinite(psi_H)) and np.all(np.isfinite(psi_h))):
            raise ValueError("influence arrays have non-finite entries")
        scale = 1.0 + max(float(np.max(np.abs(psi_H))), float(np.max(np.abs(psi_h))))
        worst = max(
            float(np.max(np.abs(psi_H.mean(axis=-3)))),
            float(np.max(np.abs(psi_h.mean(axis=-2)))),
        )
        if worst > 1e-8 * scale:
            raise ValueError(
                f"influence functions are not mean zero (max mean {worst:.3e}); "
                "center them before constructing an InfluenceSet"
            )
        object.__setattr__(self, "psi_H", psi_H)
        object.__setattr__(self, "psi_h", psi_h)

    @property
    def n(self) -> int:
        """The number of units, ``psi_H.shape[-3]``."""
        return self.psi_H.shape[-3]


def _group_means(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Group means along axis -2 of ``rows``, ``(..., n, T)`` to ``(..., K + 1, T)``,
    for units ordered by group as in the matching pivot. Each group's block
    is summed as ``mean(axis=0)`` sums it, so the means are bit for bit
    those (``np.add.reduceat`` sums differently)."""
    ends = np.cumsum(sizes).tolist()
    sums = [rows[..., end - size:end, :].sum(axis=-2) for size, end in zip(sizes.tolist(), ends)]
    return np.stack(sums, axis=-2) / sizes[:, None]


def _quadratics(groups: np.ndarray, matrix: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Group means, ``H`` and ``h`` of a ``(..., n, T)`` pivot, per leading index."""
    T = matrix.shape[-1]
    means = _group_means(matrix, np.bincount(groups))
    untreated = means[..., 1:, :]
    H = untreated @ np.swapaxes(untreated, -1, -2) / T
    h = (untreated @ means[..., 0, :, None])[..., 0] / T
    return means, H, h


def quadratic_components(panel: PanelData) -> QuadraticComponents:
    """Group means over matching periods and the implied quadratic objective."""
    _, groups, matrix = panel._matched
    means, H, h = _quadratics(groups, matrix)
    probs = np.bincount(groups) / matrix.shape[0]
    return QuadraticComponents(H=H, h=h, group_means=means, group_probs=probs)


def _influence_arrays(groups, matrix, means, probs) -> Tuple[np.ndarray, np.ndarray]:
    """``psi_H`` and ``psi_h`` of a ``(..., n, T)`` pivot with group means ``(..., K + 1, T)``."""
    n, T = matrix.shape[-2:]
    K = means.shape[-2] - 1
    deviations = (matrix - means[..., groups, :]) / probs[groups][:, None]
    against_untreated = deviations @ np.swapaxes(means[..., 1:, :], -1, -2) / T  # (..., n, K)
    against_treated = (deviations @ means[..., 0, :, None])[..., 0] / T  # (..., n)

    psi_H = np.zeros(matrix.shape[:-2] + (n, K, K))
    psi_h = np.zeros(matrix.shape[:-2] + (n, K))
    untreated_rows = np.flatnonzero(groups >= 1)
    donor = groups[untreated_rows] - 1
    donor_rows = against_untreated[..., untreated_rows, :]
    psi_H[..., untreated_rows, donor, :] += donor_rows
    np.swapaxes(psi_H, -1, -2)[..., untreated_rows, donor, :] += donor_rows  # the columns
    psi_h[..., untreated_rows, donor] = against_treated[..., untreated_rows]
    treated_rows = groups == 0
    psi_h[..., treated_rows, :] = against_untreated[..., treated_rows, :]
    return psi_H, psi_h


def influence_set(
    panel: PanelData, components: Optional[QuadraticComponents] = None
) -> InfluenceSet:
    """Per-unit influence functions of the estimated gradient.

    Each unit contributes through its within-group outcome deviations,
    inverse-weighted by the plug-in group share: for a unit of untreated
    group g the deviation enters row and column g of ``psi_H`` through its
    period-averaged product with every group-mean path, and entry g of
    ``psi_h`` through its product with the treated path; treated units only
    move ``psi_h``. The resulting arrays are exactly mean zero because group
    means and shares are the plug-in estimates.
    """
    comps = components if components is not None else quadratic_components(panel)
    if comps.group_means is None or comps.group_probs is None:
        raise ValueError("components must carry group means and probabilities")
    if np.any(comps.group_probs <= 0.0):
        raise ValueError("group probabilities must all be positive")
    _, groups, matrix = panel._matched
    psi_H, psi_h = _influence_arrays(groups, matrix, comps.group_means, comps.group_probs)
    return InfluenceSet(psi_H=psi_H, psi_h=psi_h)


def variance_at(influence: InfluenceSet, w) -> np.ndarray:
    """Outer-product covariance of the per-unit gradient influences at ``w``.

    Returns the K x K matrix ``mean_i psi_i(w) psi_i(w)'`` with
    ``psi_i(w) = psi_H[i] @ w - psi_h[i]``, one per set of a stacked
    ``influence``. The result is symmetric positive semidefinite; it is the
    zero matrix for an all-zero influence set.
    """
    wv = check_simplex_point(w, influence.psi_h.shape[-1])
    per_unit = influence.psi_H @ wv - influence.psi_h
    return np.swapaxes(per_unit, -1, -2) @ per_unit / influence.n


# Bytes a chunk of ``bootstrap_variance`` holds at once: its gathered rows,
# ``T`` doubles a unit, and the doubles and indices that pick them, two
# more. It runs as many draws per chunk as fit (at least one), so a chunk
# takes the same memory whatever the draw count.
_BOOTSTRAP_CHUNK_BYTES = 1 << 20


def bootstrap_variance(panel: PanelData, w_hat, n_draws: int, seed: int) -> np.ndarray:
    """Bootstrap covariance of the scaled gradient estimate at ``w_hat``.

    Units are resampled with replacement within each group (group sizes held
    fixed), the group means and the gradient at ``w_hat`` are recomputed per
    draw, and the second-moment matrix of the scaled deviations from the
    original gradient is returned. The draws read one generator,
    ``np.random.default_rng(seed)``, in draw order: each draw takes one
    ``random()`` double ``u`` per unit, group by group, and a unit of a group
    of ``b`` units picks its index ``floor(u * b)``. Since ``b`` is below
    2**53, even the largest ``u``, ``1 - 2**-53``, picks ``b - 1``, and each
    index is as likely as the next to within ``b / 2**53``.
    Draws run in chunks of about 1 MiB: the resampled rows and the doubles
    and indices that pick them. A chunk's rows are gathered by ``np.take``,
    which copies whole rows in well under the time of fancy indexing,
    unit-major over several periods and draw-major at one period, so that
    each group's sum adds in the order of one draw's ``mean(axis=0)``. The chunk is averaged per group and turned into
    gradients by stacked products, as one array program; its outer products
    are added to the running sum strictly in draw order. So the result does
    not depend on the chunk size, and memory does not grow with ``n_draws``.
    """
    if not isinstance(n_draws, (int, np.integer)):
        raise ValueError(f"bootstrap draw count must be an integer, got {n_draws!r}")
    if n_draws < 100:
        raise ValueError(f"bootstrap needs at least 100 draws, got {n_draws}")
    wv = check_simplex_point(w_hat, panel.K)
    _, groups, matrix = panel._matched
    n, T = matrix.shape
    sizes = np.bincount(groups)
    means = _group_means(matrix, sizes)
    gradient = (means[1:] @ (means[1:].T @ wv)) / T - means[1:] @ means[0] / T
    rng = np.random.default_rng(seed)
    bounds = np.repeat(sizes, sizes).astype(float)
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    chunk = max(1, _BOOTSTRAP_CHUNK_BYTES // (n * (T + 2) * 8))
    accum = np.zeros((panel.K, panel.K))
    for done in range(0, n_draws, chunk):
        take = offsets + (rng.random((min(chunk, n_draws - done), n)) * bounds).astype(np.intp)
        # The layout sets the order of each group's sum, which must be that of
        # one draw's mean(axis=0). Over several periods that mean adds the
        # group's units one at a time, as a sum over units does in either
        # layout; unit-major rows are summed several times faster, with the
        # inner loop over draws x periods. At one period it sums the units
        # pairwise, as numpy sums contiguous values, so each draw's units must
        # be contiguous: draw-major rows. No name holds the rows, so they are
        # freed before the next chunk's are gathered.
        if T > 1:
            stars = _group_means(np.swapaxes(np.take(matrix, take.T, axis=0), 0, 1), sizes)
        else:
            stars = _group_means(np.take(matrix, take, axis=0), sizes)
        S = stars[:, 1:]
        # stacked (K, T) @ (T, 1) products sum each inner product as one
        # draw's matrix-vector product does; einsum sums in another order
        grad_stars = (S @ (np.swapaxes(S, 1, 2) @ wv)[..., None])[..., 0] / T
        grad_stars -= (S @ stars[:, 0, :, None])[..., 0] / T
        deltas = grad_stars - gradient
        outers = deltas[:, :, None] * deltas[:, None, :]
        # cumsum adds one draw at a time; a sum over the chunk adds pairwise
        accum = np.cumsum(np.concatenate([accum[None], outers]), axis=0)[-1]
    return n * accum / n_draws


def treatment_functional(
    panel: PanelData, post_period: int
) -> Tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], float]]:
    """Treated-minus-synthetic outcome difference at a post period.

    Returns a pair ``(theta_hat, v_hat)``: ``theta_hat(w)`` is the treated
    group mean at ``post_period`` minus the ``w``-weighted untreated group
    means, and ``v_hat(w)`` the square root of the sample second moment of
    its per-unit influence function. Every unit must have an outcome at the
    post period.
    """
    labels, groups, _ = panel._matched
    K = panel.K
    n = labels.size
    at_post = panel.time == int(post_period)
    if not at_post.any():
        raise DataError(f"no observations at post period {post_period}")
    y_post = np.full(n, np.nan)
    y_post[panel._pivot_row[at_post]] = panel.outcome[at_post]
    if np.isnan(y_post).any():
        short = sorted(
            {int(groups[i]) for i in np.flatnonzero(np.isnan(y_post))}
        )
        raise DataError(
            f"groups {short} have units without an outcome at post period {post_period}"
        )
    sizes = np.bincount(groups)
    mean_post = _group_means(y_post[:, None], sizes)[:, 0]
    probs = sizes / n
    scaled = (y_post - mean_post[groups]) / probs[groups]
    second_moment = np.zeros(K + 1)
    np.add.at(second_moment, groups, scaled * scaled)
    second_moment /= n

    treated_level = float(mean_post[0])
    untreated_levels = mean_post[1:].copy()
    treated_term = float(second_moment[0])
    untreated_terms = second_moment[1:].copy()

    def theta_hat(w) -> float:
        wv = check_simplex_point(w, K)
        return treated_level - float(untreated_levels @ wv)

    def v_hat(w) -> float:
        wv = check_simplex_point(w, K)
        return math.sqrt(treated_term + float((wv * wv) @ untreated_terms))

    return theta_hat, v_hat


def _fixed_arrays(H, h, v) -> Tuple[np.ndarray, np.ndarray]:
    """``G = B2'[H | -h]`` and ``M`` with ``B2' v B2`` as its one nonzero block
    ``M[K, K]``, along any leading axes: a model whose covariance is ``v``."""
    K = h.shape[-1]
    b2 = build_basis(K)
    M = np.zeros(h.shape[:-1] + (K + 1, K + 1, K - 1, K - 1))
    M[..., K, K, :, :] = b2.T @ v @ b2
    return b2.T @ np.concatenate([H, -h[..., None]], axis=-1), M


def make_weight_model(
    components: QuadraticComponents,
    influence: InfluenceSet,
    *,
    mode: str = "pointwise",
    v_fixed: Optional[np.ndarray] = None,
) -> WeightModel:
    """Assemble the WeightModel consumed by the pointwise tests.

    The gradient ``B2'(H w - h)`` is ``G v`` with ``v = (w, 1)`` and
    ``G = B2'[H | -h]``, with ``B2`` the Helmert basis. In ``"pointwise"``
    mode the covariance is the transformed plug-in covariance re-evaluated at
    each candidate: unit i's rotated influence at ``w`` is ``R_i v`` with
    ``R_i = B2'[psi_H[i] | -psi_h[i]]``, so ``M[a, b]`` is the mean of
    ``R_i[:, a] R_i[:, b]'`` over units, built once in O(n K^4). In
    ``"fixed"`` mode the K x K covariance ``v_fixed`` (for example a
    bootstrap covariance at the estimated weights) is transformed and
    validated by ``SpdMatrix.from_matrix`` once and becomes the constant
    block ``M[K, K]``. The sample size is that of ``influence``. Any
    quadratic objective can be routed through here by constructing
    ``QuadraticComponents`` and ``InfluenceSet`` from user-supplied arrays.
    """
    K = components.h.size
    if K < 2:
        raise ValueError("need at least two untreated groups for weights on a simplex")
    size = influence.n
    if mode == "pointwise":
        if v_fixed is not None:
            raise ValueError("v_fixed is taken only in fixed mode")
        if influence.psi_h.shape[1] != K:
            raise ValueError("influence dimension does not match components")
        b2 = build_basis(K)
        G = b2.T @ np.column_stack([components.H, -components.h])
        lifted = np.concatenate([influence.psi_H, -influence.psi_h[:, :, None]], axis=2)
        rotated = np.matmul(b2.T, lifted).reshape(size, -1)
        gram = rotated.T @ rotated / size
        M = gram.reshape(K - 1, K + 1, K - 1, K + 1).transpose(1, 3, 0, 2)
    elif mode == "fixed":
        if v_fixed is None:
            raise ValueError("fixed mode requires v_fixed")
        v = np.asarray(v_fixed, dtype=float)
        if v.shape != (K, K):
            raise ValueError(f"v_fixed must have shape {(K, K)}, got {v.shape}")
        G, M = _fixed_arrays(components.H, components.h, v)
        M[K, K] = SpdMatrix.from_matrix(M[K, K]).entries
    else:
        raise ValueError(f"mode must be 'pointwise' or 'fixed', got {mode!r}")
    return WeightModel(G=G, M=M, n=size)
