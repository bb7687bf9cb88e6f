"""Tests for the panel container, moment estimators, and influence sets."""

import math
import tracemalloc

import numpy as np
import pytest

from simplexci import estimators
from simplexci.estimators import (
    InfluenceSet,
    PanelData,
    QuadraticComponents,
    bootstrap_variance,
    influence_set,
    make_weight_model,
    quadratic_components,
    treatment_functional,
    variance_at,
)
from simplexci.exceptions import DataError
from simplexci.geometry import build_basis, solve_simplex_qp
from simplexci.inference import point_test, simplex_grid
from simplexci.montecarlo import McSpec, generate_panel

from oracles import (
    bootstrap_variance_loop,
    naive_group_means,
    naive_influence,
    naive_panel,
    naive_post_functional,
    naive_quadratics,
    naive_variance,
)


def random_panel(rng, K=3, n_j=6, T=5, spread=1.0):
    """Balanced long panel with distinct group locations."""
    n_units = (K + 1) * n_j
    unit = np.repeat(np.arange(n_units), T)
    group = np.repeat(np.arange(K + 1), n_j * T)
    time = np.tile(np.arange(1, T + 1), n_units)
    base = rng.standard_normal((K + 1, T))
    outcome = base[group, time - 1] + spread * rng.standard_normal(unit.size)
    return PanelData.from_long(unit, group, time, outcome)


def constant_panel(value=2.0, K=3, n_j=3, T=4):
    n_units = (K + 1) * n_j
    unit = np.repeat(np.arange(n_units), T)
    group = np.repeat(np.arange(K + 1), n_j * T)
    time = np.tile(np.arange(1, T + 1), n_units)
    outcome = np.full(unit.size, value)
    return PanelData.from_long(unit, group, time, outcome)


# ---------------------------------------------------------------------------
# PanelData validation


def test_from_long_defaults_t_match_to_last_period():
    panel = constant_panel(T=6)
    assert panel.t_match == 6
    assert PanelData(panel.unit, panel.group, panel.time, panel.outcome).t_match == 6


def test_panel_rejects_malformed_input():
    unit = np.repeat(np.arange(8), 2)
    group = np.repeat([0, 0, 1, 1], 4)
    time = np.tile([1, 2], 8)
    y = np.zeros(16)
    PanelData.from_long(unit, group, time, y)  # baseline is fine
    with pytest.raises(DataError):
        PanelData.from_long(unit[:-1], group, time, y)
    with pytest.raises(DataError, match="^panel has no observations$"):
        PanelData.from_long([], [], [], [])
    with pytest.raises(DataError, match="^t_match must be at least 1, got 0$"):
        PanelData.from_long(unit, group, time, y, t_match=0)
    with pytest.raises(DataError):
        PanelData.from_long(unit, group, time, np.full(16, np.inf))
    with pytest.raises(DataError):
        PanelData.from_long(unit, group, np.tile([0, 1], 8), y)
    with pytest.raises(DataError):
        PanelData.from_long(unit, np.repeat([0, 0, 2, 2], 4), time, y)  # gap in ids
    with pytest.raises(DataError):
        PanelData.from_long(unit, np.full(16, 0), time, y)  # no untreated group
    dup_time = time.copy()
    dup_time[1] = 1
    with pytest.raises(DataError):
        PanelData.from_long(unit, group, dup_time, y)  # duplicate (unit, period)
    split_group = group.copy()
    split_group[0:1] = 1
    with pytest.raises(DataError):
        PanelData.from_long(unit, split_group, time, y)  # unit in two groups


def test_panel_rejects_non_integer_groups_and_periods():
    unit = np.repeat(np.arange(8), 2)
    group = np.repeat([0, 0, 1, 1], 4)
    time = np.tile([1, 2], 8)
    y = np.zeros(16)
    with pytest.raises(DataError, match=r"column time .* 2\.5 at position 1$"):
        PanelData.from_long(unit, group, np.tile([1.0, 2.5], 8), y)
    with pytest.raises(DataError, match=r"column group .* 0\.6 at position 0$"):
        PanelData.from_long(unit, group + 0.6, time, y)
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(DataError, match="at position 3$"):
            PanelData.from_long(unit, group, np.where(np.arange(16) == 3, bad, time), y)
        with pytest.raises(DataError, match="column group"):
            PanelData(unit, np.where(np.arange(16) == 3, bad, group), time, y, t_match=2)
    # integral floats are integers
    panel = PanelData.from_long(unit, group.astype(float), time.astype(float), y)
    assert np.array_equal(panel.group, group) and np.array_equal(panel.time, time)
    assert panel.t_match == 2


@pytest.mark.parametrize("labels, position", [
    # the two units' periods overlap: a duplicate observation of 'c'
    (["a", "a", "b", "b", "c\x00", "c\x00", "c", "c"], 4),
    # they do not: one silent unit 'c'
    (["a", "a", "b", "b", "c\x00", "c", "d", "d"], 4),
    (["a", "a", "b", "b", "c", "c", "d", "x\x00y"], 7),
])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "object array"])
def test_panel_rejects_a_unit_label_holding_nul(labels, position, as_array):
    # a numpy string drops trailing NULs, which would merge 'c\x00' into 'c'
    unit = np.array(labels, dtype=object) if as_array else labels
    message = f"unit label {labels[position]!r} at position {position} holds a NUL character"
    with pytest.raises(DataError) as exc:
        PanelData.from_long(unit, [0, 0, 0, 0, 1, 1, 1, 1], [1, 2] * 4, [0.0] * 8)
    assert str(exc.value) == message


# pools the random label arrays draw from, with replacement: equal prefixes,
# labels that differ only by case, non-ASCII labels and one label alone
LABEL_POOLS = {
    "equal prefixes": ["unit1", "unit10", "unit100", "unit", "unit1000", "unit2"],
    "case only": ["a", "A", "ab", "aB", "Ab", "AB"],
    "non-ASCII": ["\u00e9", "e", "\u00fc", "\u65e5\u672c", "z\u00e9", "\U0001f600"],
    "one label": ["only"],
    "mixed": ["", " ", "b", "\u00e9t\u00e9", "x" * 40, "x" * 39 + "y", "B"],
}


@pytest.mark.parametrize("pool", list(LABEL_POOLS))
def test_label_codes_are_those_of_np_unique(pool):
    rng = np.random.default_rng(7)
    labels = LABEL_POOLS[pool]
    for size in (1, 2, 5, 40, 1000):
        picked = [labels[i] for i in rng.integers(len(labels), size=size)]
        # a U array, an object array, and a strided field of a table as the C reader gives
        table = np.zeros(size, dtype=[("x", "f8"), ("unit", f"U{max(map(len, picked), default=1)}")])
        table["unit"] = picked
        for arr in (np.array(picked), np.array(picked, dtype=object), table["unit"]):
            got = estimators._label_codes(arr)
            want = np.unique(arr, return_index=True, return_inverse=True)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_label_codes_count_every_nan_label_as_one_unit():
    for labels in ([np.nan] * 4, [2.0, np.nan, 1.0, np.nan, 2.0, 1.0], [1.0, -0.0, 0.0, 1.0]):
        arr = np.array(labels)
        got = estimators._label_codes(arr)
        want = np.unique(arr, return_index=True, return_inverse=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def test_panel_names_integers_beyond_int64_exactly():
    unit = np.repeat(np.arange(8), 2)
    group = np.repeat([0, 0, 1, 1], 4).tolist()
    time = np.tile([1, 2], 8)
    y = np.zeros(16)
    # numpy holds these as objects, as uint64 and as float64
    for column in ([10**20], [2**63], np.array([2**63], dtype=np.uint64), [-(2**63) - 1]):
        big = np.asarray(column, dtype=object)[0]
        with pytest.raises(DataError) as exc:
            PanelData.from_long(unit, group[:7] + list(column) + group[8:], time, y)
        assert str(exc.value) == f"column group has an out-of-range entry {big} at position 7"
    with pytest.raises(DataError, match=r"^column time has an out-of-range entry 1e\+20 at position 0$"):
        PanelData.from_long(unit, group, [1e20] + time[1:].tolist(), y)


def test_panel_rejects_single_unit_groups():
    unit = np.repeat([0, 1, 2], 2)
    group = np.repeat([0, 0, 1], 2)
    time = np.tile([1, 2], 3)
    with pytest.raises(DataError):
        PanelData.from_long(unit, group, time, np.zeros(6))


def test_panel_rejects_unbalanced_matching_window():
    unit = np.repeat(np.arange(4), 3)
    group = np.repeat([0, 0, 1, 1], 3)
    time = np.tile([1, 2, 3], 4)
    keep = np.ones(12, dtype=bool)
    keep[5] = False  # drop unit 1, period 3
    with pytest.raises(DataError):
        PanelData.from_long(unit[keep], group[keep], time[keep], np.zeros(11))


def test_panel_allows_extra_periods_beyond_matching_window():
    unit = np.repeat(np.arange(4), 3)
    group = np.repeat([0, 0, 1, 1], 3)
    time = np.tile([1, 2, 3], 4)
    outcome = np.arange(12, dtype=float) ** 1.5
    keep = np.ones(12, dtype=bool)
    keep[5] = False  # hole only at period 3, outside the window
    panel = PanelData.from_long(unit[keep], group[keep], time[keep], outcome[keep], t_match=2)
    labels, groups, matrix = panel._matched
    assert matrix.shape == (4, 2)
    window = time <= 2
    trimmed = PanelData.from_long(unit[window], group[window], time[window], outcome[window])
    want, got = quadratic_components(trimmed), quadratic_components(panel)
    assert np.array_equal(got.H, want.H) and np.array_equal(got.h, want.h)
    want_means = estimators._quadratics(*trimmed._matched[1:])[0]
    assert np.array_equal(estimators._quadratics(*panel._matched[1:])[0], want_means)


def faulty_panel(rng):
    """Shuffled long panel with integer or string unit labels, extra
    periods past the window and up to three random faults."""
    K, n_j, T = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    n_units = (K + 1) * n_j
    if rng.random() < 0.5:
        names = rng.permutation(40)[:n_units].tolist()  # 9 < 10 but "9" > "10"
    else:
        names = [f"u{i}" for i in rng.permutation(40)[:n_units]]
    rows = [
        [names[i], i % (K + 1), t, float(rng.standard_normal())]
        for i in range(n_units)
        for t in range(1, T + 2)
    ]
    for _ in range(int(rng.integers(0, 4))):
        fault = int(rng.integers(4))
        row = rows[int(rng.integers(len(rows)))]
        if fault == 0:  # a second outcome for one (unit, period)
            rows.append([row[0], row[1], row[2], 0.5])
        elif fault == 1:  # one row filed in another group
            row[1] = (row[1] + 1) % (K + 1)
        elif fault == 2:  # a missing cell
            rows.remove(row)
        else:  # a unit moved, with all its rows, to another group
            moved = (row[1] + 1) % (K + 1)
            for other in rows:
                if other[0] == row[0]:
                    other[1] = moved
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return [list(column) for column in zip(*rows)], T


def test_panel_checks_match_the_row_by_row_reference():
    rng = np.random.default_rng(16)
    outcomes = set()
    for _ in range(400):
        (unit, group, time, outcome), T = faulty_panel(rng)
        want = naive_panel(unit, group, time, outcome, T)
        try:
            panel = PanelData(unit, group, time, outcome, t_match=T)
        except DataError as exc:
            assert str(exc) == want
            outcomes.add(str(exc).split(" ")[0])
            continue
        labels, groups, matrix = panel._matched
        assert labels.tolist() == want[0]
        assert groups.tolist() == want[1]
        assert np.array_equal(matrix, want[2])
        outcomes.add("ok")
    # every check was reached
    assert outcomes == {"ok", "duplicate", "unit", "group", "groups", "need", "panel"}


# ---------------------------------------------------------------------------
# moments


def test_constant_outcomes_give_rank_one_objective():
    c = 2.0
    panel = constant_panel(value=c)
    comps = quadratic_components(panel)
    assert np.allclose(comps.H, c * c * np.ones((3, 3)), atol=1e-12)
    assert np.allclose(comps.h, c * c * np.ones(3), atol=1e-12)


def test_quadratic_components_match_naive_loops():
    rng = np.random.default_rng(14)
    panel = random_panel(rng)
    K, T = panel.K, panel.t_match
    means = naive_group_means(panel.unit, panel.group, panel.time, panel.outcome, K, T)
    H, h = naive_quadratics(means, K, T)
    comps = quadratic_components(panel)
    assert np.allclose(estimators._quadratics(*panel._matched[1:])[0], means, atol=1e-12)
    assert np.allclose(comps.H, H, atol=1e-12)
    assert np.allclose(comps.h, h, atol=1e-12)


def test_influence_set_matches_naive_loops_and_is_mean_zero():
    rng = np.random.default_rng(15)
    balanced = random_panel(rng, K=4, n_j=5, T=6)
    # without units 5 and 6, group 1 holds 3 of the 23 units and the others 5
    keep = ~np.isin(balanced.unit, [5, 6])
    uneven = PanelData.from_long(
        balanced.unit[keep], balanced.group[keep], balanced.time[keep], balanced.outcome[keep]
    )
    for panel, sizes in ((balanced, [5, 5, 5, 5, 5]), (uneven, [5, 3, 5, 5, 5])):
        influence = influence_set(panel, quadratic_components(panel))
        K, T = panel.K, panel.t_match
        means = naive_group_means(panel.unit, panel.group, panel.time, panel.outcome, K, T)
        probs = np.array(sizes) / sum(sizes)
        psi_H, psi_h = naive_influence(
            panel.unit, panel.group, panel.time, panel.outcome, means, probs, K, T
        )
        assert np.allclose(influence.psi_H, psi_H, atol=1e-10)
        assert np.allclose(influence.psi_h, psi_h, atol=1e-10)
        assert np.max(np.abs(influence.psi_H.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(influence.psi_h.mean(axis=0))) <= 1e-12
        assert influence.n == sum(sizes)  # the unit count, psi_H.shape[-3]
    stacked = InfluenceSet(np.stack([psi_H, psi_H]), np.stack([psi_h, psi_h]))
    assert stacked.n == 23


def test_unit_sitting_on_its_group_mean_has_zero_influence():
    # three units at m-d, m+d, m: the third deviates by zero everywhere
    T = 4
    unit = np.repeat(np.arange(6), T)
    group = np.repeat([0, 0, 1, 1, 1, 1], T)
    time = np.tile(np.arange(1, T + 1), 6)
    m = 1.5
    d = 0.25
    rows = [np.zeros(T), np.zeros(T), np.full(T, m - d), np.full(T, m + d),
            np.full(T, m), np.full(T, m)]
    outcome = np.concatenate(rows)
    panel = PanelData.from_long(unit, group, time, outcome)
    influence = influence_set(panel)
    # units are ordered by group then label; units '4' and '5' sit at the mean
    assert np.allclose(influence.psi_H[4:], 0.0, atol=1e-14)
    assert np.allclose(influence.psi_h[4:], 0.0, atol=1e-14)
    assert not np.allclose(influence.psi_H[2:4], 0.0)


def test_variance_matches_naive_loops():
    rng = np.random.default_rng(16)
    panel = random_panel(rng)
    influence = influence_set(panel)
    for w in simplex_grid(3, 3):
        fast = variance_at(influence, w)
        slow = naive_variance(influence.psi_H, influence.psi_h, w)
        assert np.allclose(fast, slow, atol=1e-12)
        assert np.allclose(fast, fast.T, atol=0.0)
        assert np.min(np.linalg.eigvalsh(fast)) >= -1e-12


def test_variance_is_quadratic_along_simplex_lines():
    # third differences of a quadratic along equispaced points vanish
    rng = np.random.default_rng(17)
    panel = random_panel(rng)
    influence = influence_set(panel)
    base = np.array([0.5, 0.3, 0.2])
    step = np.array([-0.1, 0.05, 0.05])
    v = [variance_at(influence, base + t * step) for t in range(4)]
    third = v[0] - 3.0 * v[1] + 3.0 * v[2] - v[3]
    assert np.max(np.abs(third)) <= 1e-10 * (1.0 + np.max(np.abs(v[0])))


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_variance_is_deterministic():
    rng = np.random.default_rng(18)
    panel = random_panel(rng, n_j=4, T=4)
    w = np.array([0.5, 0.25, 0.25])
    first = bootstrap_variance(panel, w, n_draws=150, seed=9)
    second = bootstrap_variance(panel, w, n_draws=150, seed=9)
    assert np.array_equal(first, second)
    other = bootstrap_variance(panel, w, n_draws=150, seed=10)
    assert not np.array_equal(first, other)


def sized_panel(rng, sizes, T):
    """Balanced long panel with ``sizes[g]`` units in group g, rows shuffled."""
    sizes = np.asarray(sizes)
    unit = np.repeat(np.arange(sizes.sum()), T)
    group = np.repeat(np.repeat(np.arange(sizes.size), sizes), T)
    time = np.tile(np.arange(1, T + 1), sizes.sum())
    outcome = group + rng.standard_normal(unit.size)
    order = rng.permutation(unit.size)
    return PanelData.from_long(unit[order], group[order], time[order], outcome[order])


@pytest.mark.parametrize(
    "sizes, T, n_draws, chunks",
    [
        ((2, 3, 57, 8), 4, 100, 1),
        ((2, 3, 57, 8), 4, 101, 1),
        ((2, 3, 57, 8), 4, 1100, 3),
        # one period: a group's sum over its units is numpy's pairwise sum
        ((9, 12, 30), 1, 101, 1),
        # more than the chunk budget for one draw's rows
        ((4000, 5000, 4200), 10, 100, 100),
    ],
    ids=["100 draws", "101 draws", "partial last chunk", "one period", "one draw per chunk"],
)
def test_bootstrap_variance_matches_the_per_group_loop(sizes, T, n_draws, chunks):
    rng = np.random.default_rng(len(sizes) + T)
    panel = sized_panel(rng, sizes, T)
    _, groups, matrix = panel._matched
    per_chunk = max(1, estimators._BOOTSTRAP_CHUNK_BYTES // matrix.nbytes)
    assert -(-n_draws // per_chunk) == chunks
    w = rng.dirichlet(np.ones(panel.K))
    expected = bootstrap_variance_loop(groups, matrix, w, n_draws, seed=11)
    assert np.array_equal(bootstrap_variance(panel, w, n_draws, seed=11), expected)


@pytest.mark.parametrize("T", [1, 2, 3, 5])
@pytest.mark.parametrize("per_chunk", [None, 7, 1], ids=["one chunk", "partial chunk", "one draw"])
def test_bootstrap_variance_matches_the_per_group_loop_on_random_shapes(monkeypatch, T, per_chunk):
    # group sizes straddle numpy's pairwise-sum blocks of 8 and 128; at one
    # period a group's sum over its units is that pairwise sum
    rng = np.random.default_rng([T, per_chunk or 0])
    for _ in range(3):
        sizes = rng.choice([2, 5, 7, 8, 9, 31, 127, 128, 129, 300], int(rng.integers(3, 7)))
        panel = sized_panel(rng, sizes, T)
        _, groups, matrix = panel._matched
        if per_chunk is not None:
            monkeypatch.setattr(estimators, "_BOOTSTRAP_CHUNK_BYTES", per_chunk * matrix.nbytes)
        n_draws = int(rng.integers(100, 130))
        w = rng.dirichlet(np.ones(panel.K))
        expected = bootstrap_variance_loop(groups, matrix, w, n_draws, seed=T)
        got = bootstrap_variance(panel, w, n_draws, seed=T)
        assert np.array_equal(got, expected), (sizes.tolist(), n_draws)


def test_bootstrap_variance_matches_the_per_group_loop_at_the_cli_chunk_shape(monkeypatch):
    # the shape `project --variance bootstrap` runs on a K=6 panel of 100
    # units per group and 10 periods: 67 chunks of 15 draws, the last of 10,
    # as the library's own draws show
    rng = np.random.default_rng(26)
    panel = sized_panel(rng, (100,) * 7, 10)
    _, groups, matrix = panel._matched
    w = rng.dirichlet(np.ones(panel.K))
    expected = bootstrap_variance_loop(groups, matrix, w, 1000, seed=4)
    real, chunks = np.random.default_rng, []

    class Recording:
        def __init__(self, seed):
            self.rng = real(seed)

        def random(self, size):
            chunks.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    assert np.array_equal(bootstrap_variance(panel, w, 1000, seed=4), expected)
    assert chunks == [(15, 700)] * 66 + [(10, 700)]


def test_bootstrap_memory_does_not_grow_with_draws():
    # chunks of 133 draws on this panel, so 400 draws already fill one
    panel = random_panel(np.random.default_rng(24), K=6, n_j=20, T=5)
    panel._matched
    w = np.full(6, 1 / 6)

    def peak(n_draws):
        tracemalloc.start()
        try:
            bootstrap_variance(panel, w, n_draws, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(400), peak(4000)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.parametrize("T", [1, 2, 10])
def test_bootstrap_holds_one_chunk_of_rows_at_a_time(T):
    # a chunk holds T rows' doubles and two more per unit and draw: 62, 46
    # and 15 draws here, so 1,000 draws fill many chunks; a chunk's rows
    # must be freed before the next chunk's are gathered
    panel = random_panel(np.random.default_rng(25), K=6, n_j=100, T=T)
    panel._matched
    w = np.full(6, 1 / 6)
    tracemalloc.start()
    try:
        bootstrap_variance(panel, w, 1000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * estimators._BOOTSTRAP_CHUNK_BYTES, peak


_POWERS = 2 ** np.arange(1, 53)


@pytest.mark.parametrize(
    "bounds",
    [
        np.arange(2, 1001),
        _POWERS - 1,
        _POWERS,
        _POWERS + 1,
        # far from any power of two, and the largest size below 2**53
        np.array([3 * 2**30 - 3, 3 * 2**30, 3 * 2**30 + 3, 2**53 - 1]),
    ],
    ids=["2 to 1000", "powers of two minus one", "powers of two", "powers of two plus one",
         "far from a power of two"],
)
def test_a_resample_index_stays_below_its_group_size(bounds):
    # the largest double Generator.random returns, times a group size b below
    # 2**53, must floor to b - 1, and the smallest, 0, to 0: no resample
    # index leaves its group
    top = np.nextafter(1.0, 0.0)
    assert top == 1 - 2**-53
    assert np.array_equal((top * bounds.astype(float)).astype(np.intp), bounds - 1)
    assert not (0.0 * bounds.astype(float)).astype(np.intp).any()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (7, ["0x1.3c3d47ae147aep-2", "0x1.60bc7ae147ae1p-2", "0x1.49cda8f5c28f6p-1"]),
        (0, ["0x1.57b099999999ap-2", "0x1.79707ae147ae1p-2", "0x1.60e1800000000p-1"]),
        (1, ["0x1.616b147ae147bp-2", "0x1.6af90a3d70a3dp-2", "0x1.458aae147ae14p-1"]),
        (2**32, ["0x1.6f0b1eb851eb8p-2", "0x1.5770e147ae148p-2", "0x1.3298b33333333p-1"]),
        (2**64 - 1, ["0x1.8ee7666666666p-2", "0x1.a839ae147ae14p-2", "0x1.54ba8f5c28f5cp-1"]),
        (2**128 - 1, ["0x1.c7e1e147ae148p-2", "0x1.b6eb70a3d70a4p-2", "0x1.694e428f5c28fp-1"]),
        (2**128, ["0x1.5decb851eb852p-2", "0x1.b5e0147ae147bp-2", "0x1.a86a3851eb852p-1"]),
        (2**200 + 3, ["0x1.4a89e147ae148p-2", "0x1.70ac3d70a3d71p-2", "0x1.5efa3d70a3d71p-1"]),
    ],
    # past 2**128 the seed has more words than SeedSequence's pool
    ids=["7", "0", "1", "2**32", "2**64-1", "2**128-1", "2**128", "2**200+3"],
)
def test_bootstrap_variance_keeps_its_committed_values(seed, expected):
    # dyadic outcomes, groups of four units and two periods keep every sum
    # exact, so only the resample indices set these values; a numpy whose
    # Generator.random stream or seeding changed must fail here instead of
    # shifting bootstrap output
    unit = np.repeat(np.arange(12), 2)
    group = np.repeat(np.arange(3), 8)
    time = np.tile([1, 2], 12)
    outcome = np.arange(24) * 5 % 8 / 8 + group
    panel = PanelData.from_long(unit, group, time, outcome)
    v_star = bootstrap_variance(panel, np.array([0.5, 0.5]), n_draws=100, seed=seed)
    (a, b), (c, d) = v_star.tolist()
    assert b == c
    assert [a.hex(), b.hex(), d.hex()] == expected


def test_bootstrap_variance_validates_draw_count():
    rng = np.random.default_rng(19)
    panel = random_panel(rng, n_j=3, T=3)
    w = np.array([0.4, 0.3, 0.3])
    with pytest.raises(ValueError):
        bootstrap_variance(panel, w, n_draws=99, seed=0)
    for count in (150.0, "150"):
        with pytest.raises(ValueError, match=f"must be an integer, got {count!r}"):
            bootstrap_variance(panel, w, n_draws=count, seed=0)
    assert np.array_equal(
        bootstrap_variance(panel, w, n_draws=np.int64(150), seed=0),
        bootstrap_variance(panel, w, n_draws=150, seed=0),
    )


def test_bootstrap_variance_validates_the_seed_as_seed_sequence_does():
    panel = random_panel(np.random.default_rng(25), n_j=3, T=3)
    w = np.array([0.4, 0.3, 0.3])
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error) as numpy_error:
            np.random.SeedSequence(bad)
        with pytest.raises(error) as ours:
            bootstrap_variance(panel, w, n_draws=150, seed=bad)
        assert str(ours.value) == str(numpy_error.value)
    assert np.array_equal(
        bootstrap_variance(panel, w, n_draws=150, seed=np.int64(3)),
        bootstrap_variance(panel, w, n_draws=150, seed=3),
    )


def test_bootstrap_variance_is_zero_without_noise():
    panel = constant_panel()
    v_star = bootstrap_variance(panel, np.array([0.2, 0.4, 0.4]), n_draws=120, seed=3)
    assert np.allclose(v_star, 0.0, atol=1e-24)


def test_bootstrap_and_plugin_agree_roughly():
    rng = np.random.default_rng(20)
    panel = random_panel(rng, K=3, n_j=120, T=6, spread=0.7)
    comps = quadratic_components(panel)
    influence = influence_set(panel, comps)
    w_hat = solve_simplex_qp(comps.H, comps.h)
    plug = variance_at(influence, w_hat)
    boot = bootstrap_variance(panel, w_hat, n_draws=800, seed=1)
    rel = np.linalg.norm(boot - plug) / np.linalg.norm(plug)
    assert rel <= 0.35, rel


# ---------------------------------------------------------------------------
# post-period functional


def test_treatment_functional_constant_outcomes_are_flat():
    panel = constant_panel(value=1.7)
    theta, v = treatment_functional(panel, post_period=4)
    for w in simplex_grid(3, 2):
        assert theta(w) == pytest.approx(0.0, abs=1e-12)


def test_treatment_functional_matches_naive_loops():
    rng = np.random.default_rng(24)
    panel = random_panel(rng, K=3, n_j=7, T=5)
    theta, v = treatment_functional(panel, post_period=5)
    slow_theta, slow_v = naive_post_functional(
        panel.unit, panel.group, panel.time, panel.outcome, post=5, K=3
    )
    for w in simplex_grid(3, 4):
        assert theta(w) == pytest.approx(slow_theta(w), abs=1e-12)
        assert v(w) == pytest.approx(slow_v(w), abs=1e-12)


def test_treatment_functional_vertex_reduces_to_two_group_difference():
    rng = np.random.default_rng(25)
    panel = random_panel(rng)
    theta, _ = treatment_functional(panel, post_period=2)
    at_post = panel.time == 2
    treated = panel.outcome[at_post & (panel.group == 0)].mean()
    donor = panel.outcome[at_post & (panel.group == 2)].mean()
    w = np.array([0.0, 1.0, 0.0])
    assert theta(w) == pytest.approx(treated - donor, abs=1e-12)


def test_treatment_functional_requires_complete_post_period():
    unit = np.repeat(np.arange(4), 3)
    group = np.repeat([0, 0, 1, 1], 3)
    time = np.tile([1, 2, 3], 4)
    keep = np.ones(12, dtype=bool)
    keep[5] = False  # unit 1 misses period 3
    panel = PanelData.from_long(unit[keep], group[keep], time[keep], np.zeros(11), t_match=2)
    with pytest.raises(DataError):
        treatment_functional(panel, post_period=3)
    with pytest.raises(DataError):
        treatment_functional(panel, post_period=7)


def test_treatment_functional_refuses_a_non_integer_post_period():
    panel = random_panel(np.random.default_rng(29), T=6)
    theta, _ = treatment_functional(panel, post_period=6)
    w = np.array([0.2, 0.3, 0.5])
    for post in (np.int64(6), np.uint8(6)):
        assert treatment_functional(panel, post_period=post)[0](w) == theta(w)
    for post, shown in ((6.7, "6.7"), (6.0, "6.0"), ("6", "'6'"), (True, "True")):
        with pytest.raises(DataError, match=f"^post period must be an integer, got {shown}$"):
            treatment_functional(panel, post_period=post)


# ---------------------------------------------------------------------------
# model assembly


def test_weight_model_gradient_is_affine_in_w():
    rng = np.random.default_rng(26)
    panel = random_panel(rng)
    comps = quadratic_components(panel)
    influence = influence_set(panel, comps)
    model = make_weight_model(comps, influence)
    b2 = build_basis(3)
    grid = simplex_grid(3, 3)
    gradients, omegas = model.evaluate(grid)
    for w, f, omega in zip(grid, gradients, omegas):
        assert np.allclose(f, b2.T @ (comps.H @ w - comps.h), atol=1e-13)
        assert np.allclose(omega, b2.T @ variance_at(influence, w) @ b2, atol=1e-13)


def test_weight_model_statistic_vanishes_at_the_estimate():
    rng = np.random.default_rng(27)
    panel = random_panel(rng, n_j=30)
    comps = quadratic_components(panel)
    influence = influence_set(panel, comps)
    model = make_weight_model(comps, influence)
    w_hat = solve_simplex_qp(comps.H, comps.h)
    result = point_test(model, w_hat, 0.05)
    assert result.statistic <= 1e-8
    assert result.member


def test_make_weight_model_argument_validation():
    rng = np.random.default_rng(28)
    panel = random_panel(rng, n_j=3, T=4)
    comps = quadratic_components(panel)
    influence = influence_set(panel, comps)
    with pytest.raises(ValueError):
        make_weight_model(comps, influence, mode="fixed")  # fixed without v_fixed
    assert make_weight_model(comps, influence, mode="fixed", v_fixed=np.eye(3)).n == influence.n
    with pytest.raises(ValueError):
        make_weight_model(comps, influence, mode="other")
    with pytest.raises(ValueError, match="v_fixed"):
        make_weight_model(comps, influence, v_fixed=np.eye(3))  # v_fixed outside fixed mode
    with pytest.raises(ValueError, match=r"^v_fixed must have shape \(3, 3\), got \(2, 2\)$"):
        make_weight_model(comps, influence, mode="fixed", v_fixed=np.eye(2))
    other = InfluenceSet(np.zeros((4, 2, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="^influence dimension does not match components$"):
        make_weight_model(comps, other)
    with pytest.raises(ValueError, match="^influence dimension does not match components$"):
        make_weight_model(comps, other, mode="fixed", v_fixed=np.eye(3))
    one = QuadraticComponents(H=np.eye(1), h=np.zeros(1))
    with pytest.raises(ValueError, match="^need at least two untreated groups for weights"):
        make_weight_model(one, InfluenceSet(np.zeros((4, 1, 1)), np.zeros((4, 1))))


def test_influence_set_refuses_the_components_of_another_panel():
    spec = McSpec(K=3, n_j=5, t0=4, reps=1)
    panel = generate_panel(spec, eta_seed=1, rep_seed=2)
    comps = quadratic_components(panel)
    # rebuilt from the same arrays, the components are the panel's own
    own = influence_set(panel, QuadraticComponents(H=comps.H.copy(), h=comps.h.tolist()))
    assert np.array_equal(own.psi_H, influence_set(panel).psi_H)
    others = [
        generate_panel(McSpec(K=3, n_j=6, t0=4, reps=1), eta_seed=1, rep_seed=2),  # n_j
        generate_panel(McSpec(K=3, n_j=5, t0=5, reps=1), eta_seed=1, rep_seed=2),  # t0
        generate_panel(spec, eta_seed=1, rep_seed=3),  # another noise draw, same shape
    ]
    for other in others:
        with pytest.raises(ValueError, match="^components were not computed from this panel$"):
            influence_set(panel, quadratic_components(other))
    last = quadratic_components(others[-1])
    with pytest.raises(ValueError, match="^components were not computed from this panel$"):
        influence_set(panel, QuadraticComponents(H=comps.H, h=last.h))  # h alone differs


def test_influence_set_rejects_uncentered_arrays():
    with pytest.raises(ValueError):
        InfluenceSet(psi_H=np.ones((4, 3, 3)), psi_h=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        InfluenceSet(psi_H=np.zeros((4, 3, 3)), psi_h=np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"^psi_H must have shape \(n, K, K\), got \(4, 3\)$"):
        InfluenceSet(psi_H=np.zeros((4, 3)), psi_h=np.zeros(4))
    with pytest.raises(ValueError, match="^influence arrays have non-finite entries$"):
        InfluenceSet(psi_H=np.zeros((4, 3, 3)), psi_h=np.full((4, 3), np.nan))


def test_quadratic_components_validation():
    with pytest.raises(ValueError):
        QuadraticComponents(H=np.array([[1.0, 0.5], [0.4, 1.0]]), h=np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticComponents(H=-np.eye(2), h=np.zeros(2))
    with pytest.raises(ValueError, match=r"^H must have shape \(2, 2\), got \(3, 3\)$"):
        QuadraticComponents(H=np.eye(3), h=np.zeros(2))
    with pytest.raises(ValueError, match=r"^H must have at least one entry, got shape \(0, 0\)$"):
        QuadraticComponents(H=np.zeros((0, 0)), h=[])
    with pytest.raises(ValueError, match="^H or its linear term has non-finite entries$"):
        QuadraticComponents(H=np.array([[1.0, np.inf], [np.inf, 1.0]]), h=np.zeros(2))
    # an asymmetry within tolerance is accepted, and the symmetrized H is stored
    H = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])
    stored = QuadraticComponents(H=H, h=np.zeros(2)).H
    np.testing.assert_array_equal(stored, 0.5 * (H + H.T))
    np.testing.assert_array_equal(stored, stored.T)
