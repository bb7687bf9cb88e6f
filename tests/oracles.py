"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration instead of
active sets, explicit Python loops instead of vectorised algebra, and
quadrature or ``math.erf`` instead of the package's own special functions.
Slow is fine; these only run in tests.
"""

from __future__ import annotations

import csv
import itertools
import math
from operator import itemgetter

import numpy as np

from simplexci import geometry
from simplexci.estimators import influence_set, make_weight_model, quadratic_components, variance_at
from simplexci.exceptions import ConvergenceError, IllConditionedError
from simplexci.inference import confidence_set, default_resolution, point_test, projection_interval
from simplexci.montecarlo import CoverageReport, generate_panel


# ---------------------------------------------------------------------------
# distribution oracles


def normal_quantile_erf(p: float) -> float:
    """Standard normal quantile via bisection on the erf-based CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_cdf_quadrature(x: float, k: int, panels: int = 4000) -> float:
    """Chi-squared CDF by composite Simpson integration of the density.

    The substitution t = u^2 turns the integrand into 2 u^(k-1) e^(-u^2/2),
    which is smooth at the origin for every k >= 1, so Simpson converges at
    full rate even for odd degrees of freedom.
    """
    if x <= 0.0:
        return 0.0
    a = 0.5 * k

    def integrand(u: float) -> float:
        return 2.0 * u ** (k - 1) * math.exp(-0.5 * u * u)

    upper = math.sqrt(x)
    h = upper / panels
    total = integrand(0.0) + integrand(upper)
    for i in range(1, panels):
        total += integrand(i * h) * (4.0 if i % 2 else 2.0)
    integral = total * h / 3.0
    return integral / (2.0**a * math.gamma(a))


def chi2_quantile_quadrature(p: float, k: int) -> float:
    """Chi-squared quantile by bisection on the quadrature CDF."""
    lo, hi = 0.0, 10.0 * k + 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_quadrature(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# covariance rule, cone projection and QP oracles


def cone_projection_enumeration(f, w, omega, b2, support_tol=1e-10, zero_tol=1e-8):
    """Projection onto the restricted nonnegative cone by support enumeration.

    Tries every subset of the allowed generator indices, solves the
    unrestricted least squares problem on that subset in the whitened
    geometry, and keeps the best candidate whose coefficients are
    nonnegative. Returns (objective, lambda_full, residual, zero_count).
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    omega = np.asarray(omega, dtype=float)
    K = b2.shape[0]
    chol = np.linalg.cholesky(omega)
    allowed = [j for j in range(K) if w[j] <= support_tol]

    def whiten(v):
        return np.linalg.solve(chol, v)

    best = None
    for size in range(len(allowed) + 1):
        for subset in itertools.combinations(allowed, size):
            lam = np.zeros(K)
            if subset:
                design = np.column_stack([whiten(b2[j]) for j in subset])
                coef, *_ = np.linalg.lstsq(design, whiten(f), rcond=None)
                if np.min(coef) < -1e-12:
                    continue
                for j, c in zip(subset, coef):
                    lam[j] = max(c, 0.0)
            resid = f - b2.T @ lam
            objective = float(whiten(resid) @ whiten(resid))
            if best is None or objective < best[0] - 1e-15:
                best = (objective, lam, resid)
    objective, lam, resid = best
    gradient = b2 @ np.linalg.solve(omega, resid)
    mapped = b2 @ np.linalg.solve(omega, f)  # the gradient at lam = 0
    cutoff = zero_tol * max(np.max(np.abs(mapped)), np.max(np.abs(gradient)))
    zeros = int(np.sum(np.abs(gradient) <= cutoff))
    return objective, lam, resid, zeros


def qp_simplex_enumeration(hessian, linear):
    """Simplex-constrained QP minimum by enumerating supports.

    For every nonempty support the equality-constrained stationary point is
    solved from the bordered KKT system; feasible candidates (nonnegative on
    the support) compete on objective value. Returns (w, objective).
    """
    H = np.asarray(hessian, dtype=float)
    h = np.asarray(linear, dtype=float)
    K = H.shape[0]
    best = None
    for size in range(1, K + 1):
        for subset in itertools.combinations(range(K), size):
            idx = list(subset)
            m = len(idx)
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = H[np.ix_(idx, idx)]
            kkt[:m, m] = 1.0
            kkt[m, :m] = 1.0
            rhs = np.concatenate([h[idx], [1.0]])
            sol, residual, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if not np.all(np.isfinite(sol)):
                continue
            if np.linalg.norm(kkt @ sol - rhs) > 1e-8:
                continue
            w = np.zeros(K)
            w[idx] = sol[:m]
            if np.min(w[idx]) < -1e-10:
                continue
            w = np.clip(w, 0.0, None)
            w = w / np.sum(w)
            objective = float(0.5 * w @ H @ w - h @ w)
            if best is None or objective < best[1] - 1e-15:
                best = (w, objective)
    return best


def span_projection_kkt(y, subset, omega, b2):
    """Equality-constrained projection via a bordered KKT solve.

    Projects y onto {x : [B2 Omega^-1 x]_J = 0} in the Omega^-1 geometry by
    solving the stationarity system for the multipliers directly.
    """
    y = np.asarray(y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    idx = list(subset)
    if not idx:
        return y.copy()
    rows = b2[idx]  # constraints rows @ omega^-1 x = 0
    # minimise (x-y)' Omega^-1 (x-y) subject to rows Omega^-1 x = 0:
    # x = y - rows' mu with rows Omega^-1 (y - rows' mu) = 0
    gram = rows @ np.linalg.solve(omega, rows.T)
    mu = np.linalg.lstsq(gram, rows @ np.linalg.solve(omega, y), rcond=None)[0]
    return y - rows.T @ mu


def factor_spd_eigen(matrices):
    """``geometry.factor_spd`` as it was before the Cholesky certificate:
    every matrix of the stack is decided and whitened by its own
    eigendecomposition. The tolerance and the cap are read from
    ``geometry`` when the rule runs, so a test that sets them governs both.
    """
    sym_tol, cond_cap = geometry._SYM_TOL, geometry._COND_CAP
    a = np.asarray(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    transposed = a.transpose(0, 2, 1)
    magnitude = np.abs(a).max(axis=(1, 2))  # not finite exactly when an entry is not
    finite = np.isfinite(magnitude)
    # the arithmetic of a matrix with an infinite entry may meet inf - inf;
    # those results are never read
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, magnitude)
        usable = finite & (np.abs(a - transposed).max(axis=(1, 2)) <= sym_tol * scale)
        entries = 0.5 * (a + transposed)
    failures = {} if usable.all() else {
        i: ValueError("matrix has non-finite entries" if not finite[i]
                      else f"matrix is not symmetric within {sym_tol}")
        for i in np.flatnonzero(~usable).tolist()
    }
    if failures:  # so that the stack decomposes as a whole
        entries[list(failures)] = np.eye(a.shape[1])
    eigs, vecs = np.linalg.eigh(entries)
    low, high = eigs[:, 0], eigs[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or negative eigenvalue
        bad = ~(low > 0.0) | (high / low > cond_cap)
        white = np.swapaxes(vecs, 1, 2) / np.sqrt(eigs)[..., None]
    for i in np.flatnonzero(bad).tolist():
        if low[i] <= 0.0:
            message = f"matrix is not positive definite (min eigenvalue {low[i]:.6e})"
        else:
            cond = high[i] / low[i] if low[i] > 0.0 else math.inf  # low[i] may be NaN
            message = f"condition number {cond:.6e} exceeds the cap {cond_cap:.1e}"
        failures[i] = IllConditionedError(message)
    if failures:
        entries[list(failures)] = white[list(failures)] = np.eye(a.shape[1])
    return entries, white, failures


# ---------------------------------------------------------------------------
# lattice oracle (itertools.combinations of bar positions)


def simplex_grid_combinations(K, resolution):
    """The simplex lattice from ``itertools.combinations`` of bar positions.

    The former body of ``inference.simplex_grid``, after its checks: each
    combination of K - 1 bars among ``resolution + K - 1`` slots gives the
    composition of the gaps between them, in ascending lexicographic order.
    """
    size = math.comb(resolution + K - 1, K - 1)
    bars = itertools.combinations(range(resolution + K - 1), K - 1)
    flat = np.fromiter(
        (pos for combo in bars for pos in combo), dtype=np.int64, count=size * (K - 1)
    ).reshape(size, K - 1)
    padded = np.column_stack(
        [
            np.full(size, -1, dtype=np.int64),
            flat,
            np.full(size, resolution + K - 1, dtype=np.int64),
        ]
    )
    counts = np.diff(padded, axis=1) - 1
    return counts / float(resolution)


# ---------------------------------------------------------------------------
# estimator oracles (explicit loops over the long panel)


def naive_group_means(unit, group, time, outcome, K, T):
    """Group-period means computed by dictionary accumulation."""
    sums = {}
    counts = {}
    for u, g, t, y in zip(unit, group, time, outcome):
        sums[(g, t)] = sums.get((g, t), 0.0) + y
        counts[(g, t)] = counts.get((g, t), 0) + 1
    means = np.zeros((K + 1, T))
    for g in range(K + 1):
        for t in range(1, T + 1):
            means[g, t - 1] = sums[(g, t)] / counts[(g, t)]
    return means


def naive_quadratics(means, K, T):
    """H and h from the group-period means by explicit summation."""
    H = np.zeros((K, K))
    h = np.zeros(K)
    for j in range(K):
        for l in range(K):
            H[j, l] = sum(means[j + 1, s] * means[l + 1, s] for s in range(T)) / T
        h[j] = sum(means[j + 1, s] * means[0, s] for s in range(T)) / T
    return H, h


def naive_influence(unit, group, time, outcome, means, probs, K, T):
    """Per-unit influence contributions built one observation at a time."""
    labels = sorted(set(zip(group, unit)), key=lambda pair: (pair[0], str(pair[1])))
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    paths = np.zeros((n, T))
    unit_group = np.zeros(n, dtype=int)
    for u, g, t, y in zip(unit, group, time, outcome):
        i = index[(g, u)]
        paths[i, t - 1] = y
        unit_group[i] = g
    psi_H = np.zeros((n, K, K))
    psi_h = np.zeros((n, K))
    for i in range(n):
        g = unit_group[i]
        dev = (paths[i] - means[g]) / probs[g]
        a = np.array([sum(means[j + 1, s] * dev[s] for s in range(T)) / T for j in range(K)])
        if g == 0:
            psi_h[i] = a
        else:
            b = sum(means[0, s] * dev[s] for s in range(T)) / T
            psi_H[i, g - 1, :] += a
            psi_H[i, :, g - 1] += a
            psi_h[i, g - 1] = b
    return psi_H, psi_h


def naive_variance(psi_H, psi_h, w):
    """Sample second moment of the influence at w, one unit at a time."""
    n = psi_H.shape[0]
    K = psi_h.shape[1]
    acc = np.zeros((K, K))
    for i in range(n):
        psi = psi_H[i] @ w - psi_h[i]
        acc += np.outer(psi, psi)
    return acc / n


def bootstrap_variance_loop(groups, matrix, wv, n_draws, seed):
    """The bootstrap covariance drawn one draw and one group at a time.

    ``groups`` and ``matrix`` are the matching pivot and ``wv`` a checked
    simplex point. One generator seeded by ``seed`` is read in draw order,
    one ``random()`` double per unit scaled by its group's size.
    """
    n, T = matrix.shape
    K = int(groups.max())
    means = np.vstack([matrix[groups == j].mean(axis=0) for j in range(K + 1)])
    gradient = (means[1:] @ (means[1:].T @ wv)) / T - means[1:] @ means[0] / T
    rows_by_group = [np.flatnonzero(groups == j) for j in range(K + 1)]
    rng = np.random.default_rng(seed)
    accum = np.zeros((K, K))
    star = np.empty_like(means)
    for _ in range(n_draws):
        for j, rows in enumerate(rows_by_group):
            take = rows[(rng.random(rows.size) * rows.size).astype(int)]
            star[j] = matrix[take].mean(axis=0)
        grad_star = (star[1:] @ (star[1:].T @ wv)) / T - star[1:] @ star[0] / T
        delta = grad_star - gradient
        accum += np.outer(delta, delta)
    return n * accum / n_draws


def naive_post_functional(unit, group, time, outcome, post, K):
    """Post-period level functional and its variance, by explicit loops."""
    rows = [(g, u, y) for u, g, t, y in zip(unit, group, time, outcome) if t == post]
    n = len(rows)
    sums = {}
    counts = {}
    for g, u, y in rows:
        sums[g] = sums.get(g, 0.0) + y
        counts[g] = counts.get(g, 0) + 1
    means = np.array([sums[g] / counts[g] for g in range(K + 1)])
    probs = np.array([counts[g] / n for g in range(K + 1)])
    second = np.zeros(K + 1)
    for g, u, y in rows:
        second[g] += ((y - means[g]) / probs[g]) ** 2 / n

    def theta(w):
        return means[0] - means[1:] @ np.asarray(w, dtype=float)

    def v(w):
        w = np.asarray(w, dtype=float)
        return math.sqrt(second[0] + np.sum(w**2 * second[1:]))

    return theta, v


def naive_panel(unit, group, time, outcome, t_match):
    """The panel checks and the matching pivot, one row at a time.

    Returns the message of the first failing check, or the pivot as
    (labels, groups, matrix) with units ordered by (group, label string).
    """
    labels = sorted(set(group))
    if labels != list(range(len(labels))):
        return f"groups must form a contiguous range 0..K, found {labels}"
    if len(labels) < 2:
        return "need at least one untreated group besides group 0"
    seen = set()
    for u, t in zip(unit, time):
        if (u, t) in seen:
            return f"duplicate observation for unit {u!r} at period {t}"
        seen.add((u, t))
    unit_group = {}
    for u, g in zip(unit, group):
        prev = unit_group.setdefault(u, g)
        if prev != g:
            return f"unit {u!r} appears in groups {prev} and {g}"
    for g in labels:
        count = sum(1 for v in unit_group.values() if v == g)
        if count < 2:
            return f"group {g} has {count} unit(s); each group needs at least 2"
    order = sorted(unit_group, key=lambda u: (unit_group[u], str(u)))
    position = {u: i for i, u in enumerate(order)}
    matrix = np.full((len(order), t_match), np.nan)
    for u, t, y in zip(unit, time, outcome):
        if t <= t_match:
            matrix[position[u], t - 1] = y
    holes = int(np.isnan(matrix).sum())
    if holes:
        return (
            f"panel is unbalanced: {holes} missing unit-period cell(s) over "
            f"matching periods 1..{t_match}"
        )
    return order, [unit_group[u] for u in order], matrix


# ---------------------------------------------------------------------------
# Monte Carlo oracle (one panel per replication through the public functions)


def coverage_experiment_loop(spec, projection=False):
    """``montecarlo.coverage_experiment`` as it was before replications ran
    in chunks: every replication builds its panel with ``generate_panel`` and
    runs the public estimator functions on it. The body is unchanged.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.reps + 1)
    eta_seed = children[0]
    w0 = spec.w0
    resolution = spec.grid_n if spec.grid_n is not None else default_resolution(spec.K)

    covered = 0
    failures = 0
    swept = 0
    empties = 0
    proj_hits = np.zeros(spec.K)
    length_sums = np.zeros(spec.K)
    nonempty = 0

    for rep in range(spec.reps):
        panel = generate_panel(spec, eta_seed, children[rep + 1])
        comps = quadratic_components(panel)
        infl = influence_set(panel, comps)
        try:
            # the test at w0 needs the plug-in covariance at w0 alone, which
            # costs O(n K^2) where the moment tensor of a sweep costs O(n K^4)
            at_truth = make_weight_model(
                comps, infl, mode="fixed", v_fixed=variance_at(infl, w0)
            )
            outcome = point_test(at_truth, w0, spec.alpha)
        except (IllConditionedError, ConvergenceError):
            failures += 1
            continue
        covered += int(outcome.member)
        if projection:
            cs = confidence_set(make_weight_model(comps, infl), spec.alpha, resolution)
            swept += 1
            if not cs.member_mask.any():
                empties += 1
                continue
            nonempty += 1
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
        report.mean_lengths = [
            (float(length_sums[j] / nonempty) if nonempty else None) for j in range(spec.K)
        ]
        report.empty_rate = float(empties / swept) if swept else 0.0
    return report


# ---------------------------------------------------------------------------
# CSV ingest oracle (csv.reader over the file, one list per row)

_REQUIRED_COLUMNS = ("unit", "group", "time", "outcome")


def panel_columns_csv_reader(path):
    """The columns ``cli.read_panel_csv`` took from a file when it tokenised
    every file with ``csv.reader``, or None where that check failed: the
    file is read as it was, then the old column function runs unchanged."""
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        body = list(filter(None, reader))  # csv.reader gives [] for a blank line
    if header is None or sorted(header) != sorted(_REQUIRED_COLUMNS) or not body:
        return None
    if set(map(len, body)) != {len(_REQUIRED_COLUMNS)}:
        return None
    unit, group, time, outcome = (
        map(itemgetter(header.index(column)), body) for column in _REQUIRED_COLUMNS
    )
    units = list(map(str.strip, unit))
    if not all(units):
        return None
    try:
        groups = np.fromiter(map(int, group), np.int64, len(body))
        times = np.fromiter(map(int, time), np.int64, len(body))
        outcomes = np.fromiter(map(float, outcome), float, len(body))
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(outcomes).all():
        return None
    return units, groups, times, outcomes
