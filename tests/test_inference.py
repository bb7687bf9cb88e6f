"""Tests for the pointwise test, grid sweep, and subvector intervals."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from simplexci import geometry, inference
from simplexci.distributions import chi2_quantile, normal_quantile
from simplexci.estimators import (
    InfluenceSet,
    PanelData,
    QuadraticComponents,
    bootstrap_variance,
    influence_set,
    make_weight_model,
    quadratic_components,
)
from simplexci.exceptions import ConvergenceError, IllConditionedError
from simplexci.geometry import build_basis, factor_spd
from simplexci.inference import (
    ConfidenceSet,
    Interval,
    PointTest,
    WeightModel,
    bonferroni_interval,
    confidence_set,
    default_resolution,
    point_test,
    projection_interval,
    simplex_grid,
)
from simplexci.montecarlo import McSpec, generate_panel

from model_helpers import constant_model, project_one
from oracles import chi2_quantile_quadrature, cone_projection_enumeration, simplex_grid_combinations


def toy_model(K=3, n=400, seed=0, scale=1.0):
    """Model with a fixed random f and identity-ish covariance."""
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal(K - 1)
    return constant_model(f, np.eye(K - 1), n), f


def panel_model(K=3, n_j=40, seed=3):
    spec = McSpec(K=K, n_j=n_j, reps=1, seed=seed)
    panel = generate_panel(spec, seed, seed + 1)
    components = quadratic_components(panel)
    influence = influence_set(panel, components)
    return make_weight_model(components, influence), panel


# ---------------------------------------------------------------------------
# grid


def test_simplex_grid_k2_exact():
    grid = simplex_grid(2, 2)
    expected = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(grid, expected)


def test_simplex_grid_counts_and_membership():
    grid = simplex_grid(3, 100)
    assert grid.shape == (5151, 3)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(grid) >= 0.0
    steps = np.round(grid * 100)
    assert np.allclose(grid, steps / 100, atol=1e-12)
    # ascending lexicographic ordering
    order = np.lexsort(grid[:, ::-1].T)
    assert np.array_equal(order, np.arange(len(grid)))


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7, 8, 10])
def test_simplex_grid_matches_the_combinations_oracle(K):
    for resolution in (1, 2, 3, 5, 8):
        grid = simplex_grid(K, resolution)
        expected = simplex_grid_combinations(K, resolution)
        assert grid.dtype == expected.dtype and grid.flags.c_contiguous
        assert np.array_equal(grid, expected)


def test_simplex_grid_rejects_oversized_lattices(monkeypatch):
    with pytest.raises(ValueError):
        simplex_grid(3, 5000)
    monkeypatch.setattr(inference, "_GRID_CAP", 1000)
    with pytest.raises(ValueError, match="above the cap 1000"):
        simplex_grid(4, 100)
    with pytest.raises(ValueError):
        simplex_grid(1, 10)
    with pytest.raises(ValueError):
        simplex_grid(3, 0)


def test_default_resolution_tiers():
    assert default_resolution(2) == 100
    assert default_resolution(3) == 100
    assert default_resolution(5) == 40
    assert default_resolution(7) == 20
    assert default_resolution(9) == 10


# ---------------------------------------------------------------------------
# point test


def test_point_test_interior_is_full_quadratic_form():
    model, f = toy_model()
    w = np.array([0.2, 0.3, 0.5])
    result = point_test(model, w, 0.05)
    assert result.statistic == pytest.approx(model.n * f @ f, rel=1e-12)
    assert result.zeros == 0
    assert result.dof == 2
    assert result.critical == chi2_quantile(0.95, 2)
    assert result.member == (result.statistic <= result.critical)


def test_point_test_vertex_cone_member_gets_dof_floor():
    b2 = build_basis(3)
    f = b2.T @ np.array([0.0, 1.0, 1.0])
    model = constant_model(f, np.eye(2), 500)
    result = point_test(model, np.array([1.0, 0.0, 0.0]), 0.05)
    assert result.statistic <= 1e-18
    assert result.zeros == 3
    assert result.dof == 1
    assert result.critical == chi2_quantile(0.95, 1)
    assert result.member


def test_point_test_validation():
    model, _ = toy_model()
    with pytest.raises(ValueError):
        point_test(model, np.array([0.2, 0.3, 0.5]), 0.0)
    with pytest.raises(ValueError):
        point_test(model, np.array([0.2, 0.3, 0.6]), 0.05)
    with pytest.raises(ValueError):
        point_test(model, np.array([0.5, 0.5]), 0.05)
    # the sweep checks its level as the test does
    with pytest.raises(ValueError, match=r"^alpha must lie strictly in \(0, 1\), got 1.0$"):
        confidence_set(model, 1.0, 4)


def test_point_test_reports_ill_conditioned_covariance():
    f = np.array([0.1, 0.2])
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    model = constant_model(f, singular, 100)
    with pytest.raises(IllConditionedError):
        point_test(model, np.array([0.2, 0.3, 0.5]), 0.05)


def test_weight_model_validation():
    model = constant_model(np.ones(2), np.eye(2), 10)
    G, M = np.array(model.G), np.array(model.M)
    assert model.K == 3
    assert not (model.G.flags.writeable or model.M.flags.writeable)
    with pytest.raises(ValueError):  # G and M disagree on K
        WeightModel(G=G, M=np.zeros((5, 5, 3, 3)), n=10)
    with pytest.raises(ValueError):  # G is not (K-1, K+1)
        WeightModel(G=np.zeros((2, 3)), M=M, n=10)
    for bad in (np.nan, np.inf):
        broken = G.copy()
        broken[0, 1] = bad
        with pytest.raises(ValueError):
            WeightModel(G=broken, M=M, n=10)
        broken = M.copy()
        broken[3, 3, 0, 0] = bad
        with pytest.raises(ValueError):
            WeightModel(G=G, M=broken, n=10)
    with pytest.raises(ValueError):  # K = 1
        WeightModel(G=np.zeros((0, 2)), M=np.zeros((2, 2, 0, 0)), n=10)
    with pytest.raises(ValueError):
        WeightModel(G=G, M=M, n=0)


# ---------------------------------------------------------------------------
# confidence set sweeps


def test_zero_gradient_makes_everything_a_member():
    model = constant_model(np.zeros(2), np.eye(2), 100)
    cs = confidence_set(model, 0.05, resolution=10)
    assert cs.member_mask.all()
    for coord in range(3):
        interval = projection_interval(cs, coord)
        assert interval.lower == 0.0
        assert interval.upper == 1.0


def test_sweep_agrees_with_scalar_oracle_on_a_panel():
    # membership decisions on a coarse grid, checked against the subset
    # enumeration oracle and the quadrature quantiles
    model, _ = panel_model()
    cs = confidence_set(model, 0.05, resolution=12)
    b2 = build_basis(3)
    crit = {k: chi2_quantile_quadrature(0.95, k) for k in (1, 2)}
    disagreements = 0
    for record in cs.records:
        w = record.w
        gradients, omegas = model.evaluate(w[None, :])
        f, omega = gradients[0], omegas[0]
        obj, _, _, zeros = cone_projection_enumeration(f, w, omega, b2)
        statistic = model.n * obj
        dof = max(2 - zeros, 1)
        member = statistic <= crit[dof] + 1e-9
        assert record.zeros == zeros, w
        assert record.statistic == pytest.approx(statistic, rel=1e-9, abs=1e-12)
        if member != record.member:
            disagreements += 1
    assert disagreements == 0


def test_point_estimate_is_always_a_member():
    # the minimiser of the sample objective has statistic approximately zero
    from simplexci.geometry import solve_simplex_qp

    for seed in range(5):
        model, panel = panel_model(seed=seed)
        components = quadratic_components(panel)
        w_hat = solve_simplex_qp(components.H, components.h)
        result = point_test(model, w_hat, 0.05)
        assert result.statistic <= 1e-6
        assert result.member


def test_alpha_monotonicity_nests_the_sets():
    model, _ = panel_model(seed=9)
    loose = confidence_set(model, 0.05, resolution=15)
    tight = confidence_set(model, 0.20, resolution=15)
    assert np.all(tight.member_mask <= loose.member_mask)


@pytest.mark.parametrize(
    "seed, perm",
    [(0, [2, 0, 1]), (1, [1, 0, 2]), (2, [2, 0, 1, 3]), (3, [3, 2, 1, 0]),
     (4, [2, 4, 3, 0, 1]), (5, [4, 0, 1, 2, 3])],
)
def test_relabelling_donor_groups_permutes_the_confidence_set(seed, perm):
    # donor group j + 1 becomes group perm[j] + 1 and the treated group 0
    # keeps its label, so weight coordinate j moves to position perm[j]
    K, perm = len(perm), np.array(perm)
    resolution = {3: 14, 4: 8, 5: 6}[K]
    spec = McSpec(K=K, n_j=30, design="boundary", reps=1, seed=seed)
    panel = generate_panel(spec, seed, seed + 1)
    relabel = np.concatenate([[0], perm + 1])
    sets = []
    for group in (panel.group, relabel[panel.group]):
        relabelled = PanelData.from_long(panel.unit, group, panel.time, panel.outcome)
        components = quadratic_components(relabelled)
        model = make_weight_model(components, influence_set(relabelled, components))
        sets.append(confidence_set(model, 0.05, resolution))
    base, moved = sets
    assert base.member_mask.any() and not base.member_mask.all() and base.zeros.any()
    moved_grid = np.empty_like(base.grid)
    moved_grid[:, perm] = base.grid
    index = {w: i for i, w in enumerate(map(tuple, moved.grid.tolist()))}
    match = np.array([index[w] for w in map(tuple, moved_grid.tolist())])
    assert np.array_equal(moved.zeros[match], base.zeros)
    assert np.array_equal(moved.dof[match], base.dof)
    assert np.array_equal(moved.member_mask[match], base.member_mask)
    gap = np.abs(moved.statistic[match] - base.statistic)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(base.statistic)))


def test_sweep_warns_and_skips_on_singular_points():
    # Omega(w) = I + 4 w_2 w_3 [[0, 1], [1, 0]] is singular on the res-2
    # lattice only at (0, 0.5, 0.5)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    M = np.zeros((4, 4, 2, 2))
    M[3, 3] = np.eye(2)
    M[1, 2] = M[2, 1] = 2.0 * swap
    model = WeightModel(G=np.zeros((2, 4)), M=M, n=100)
    with pytest.warns(RuntimeWarning):
        cs = confidence_set(model, 0.05, resolution=2)
    failed = [r for r in cs.records if r.error is not None]
    assert len(failed) == 1
    assert np.array_equal(failed[0].w, [0.0, 0.5, 0.5])
    assert not failed[0].member
    assert math.isinf(failed[0].statistic)
    with pytest.raises(IllConditionedError):
        confidence_set(model, 0.05, resolution=2, strict=True)


# ---------------------------------------------------------------------------
# intervals


def make_confidence_set(members, resolution=10, kappa=0.005):
    """Confidence set over the K=3 lattice with a prescribed member list."""
    grid = simplex_grid(3, resolution)
    grid.setflags(write=False)
    member_rows = {tuple(np.round(m, 12)) for m in members}
    mask = np.array([tuple(np.round(row, 12)) in member_rows for row in grid], dtype=bool)
    size = len(grid)
    return ConfidenceSet(
        alpha=kappa,
        grid=grid,
        resolution=resolution,
        statistic=np.where(mask, 0.0, 100.0),
        zeros=np.zeros(size, dtype=int),
        dof=np.full(size, 2),
        critical=np.full(size, 5.99),
        member_mask=mask,
    )


def test_projection_interval_bounds_and_validation():
    cs = make_confidence_set([np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.1, 0.5])])
    assert projection_interval(cs, 0) == Interval(0.2, 0.4)
    assert projection_interval(cs, 1) == Interval(0.1, 0.3)
    assert projection_interval(cs, 2) == Interval(0.5, 0.5)
    assert projection_interval(cs, np.int64(1)) == Interval(0.1, 0.3)
    for coord in (3, -1, 1.5, True, "1"):
        with pytest.raises(ValueError, match=r"^coordinate must be an integer in \[0, 2\], got "):
            projection_interval(cs, coord)
    empty = make_confidence_set([])
    result = projection_interval(empty, 0)
    assert result.empty
    assert result.length == 0.0


def test_bonferroni_single_member_half_width():
    w_star = np.array([0.2, 0.3, 0.5])
    cs = make_confidence_set([w_star])
    theta = lambda w: 1.5
    v = lambda w: 2.0
    interval = bonferroni_interval(cs, theta, v, n=400, alpha=0.05)
    z = 2.004654461765097  # normal quantile at 1 - (0.05 - 0.005) / 2
    half = z * 2.0 / math.sqrt(400)
    assert interval.lower == pytest.approx(1.5 - half, abs=1e-12)
    assert interval.upper == pytest.approx(1.5 + half, abs=1e-12)
    assert normal_quantile(0.9775) == pytest.approx(z, abs=1e-9)
    # the weight set's share of the level is the level it was built at
    wider = bonferroni_interval(make_confidence_set([w_star], kappa=0.01), theta, v, n=400)
    assert wider.upper == pytest.approx(1.5 + normal_quantile(0.98) * 2.0 / 20.0, abs=1e-12)


def test_bonferroni_unions_pointwise_intervals():
    members = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.2, 0.2])]
    cs = make_confidence_set(members)
    theta = lambda w: float(w[0])
    v = lambda w: float(0.5 + w[1])
    interval = bonferroni_interval(cs, theta, v, n=100, alpha=0.05)
    z = normal_quantile(0.9775)
    bounds = [
        (theta(w) - z * v(w) / 10.0, theta(w) + z * v(w) / 10.0) for w in members
    ]
    assert interval.lower == pytest.approx(min(b[0] for b in bounds), abs=1e-12)
    assert interval.upper == pytest.approx(max(b[1] for b in bounds), abs=1e-12)


def test_bonferroni_validation():
    cs = make_confidence_set([np.array([0.2, 0.3, 0.5])])
    theta = lambda w: 0.0
    v = lambda w: 1.0
    # a set built at a level kappa >= alpha
    for kappa in (0.05, 0.1):
        high = make_confidence_set([np.array([0.2, 0.3, 0.5])], kappa=kappa)
        with pytest.raises(ValueError, match=f"< 1, got kappa={kappa}, alpha=0.05$"):
            bonferroni_interval(high, theta, v, n=100, alpha=0.05)
    with pytest.raises(ValueError, match="^sample size must be positive, got 0$"):
        bonferroni_interval(cs, theta, v, n=0)
    # nonpositive spread at a member
    with pytest.raises(ValueError, match=r"^v_hat must be positive, got 0.0 at w=\[0.2, 0.3, 0.5"):
        bonferroni_interval(cs, theta, lambda w: 0.0, n=100)
    empty = make_confidence_set([])
    assert bonferroni_interval(empty, theta, v, n=100).empty


def test_interval_type():
    with pytest.raises(ValueError, match="^lower bound 2.0 exceeds upper bound 1.0$"):
        Interval(2.0, 1.0)
    assert Interval(1.0, 3.0).length == pytest.approx(2.0)
    assert not Interval(1.0, 3.0).empty
    assert Interval().empty and math.isnan(Interval().lower) and math.isnan(Interval().upper)
    assert Interval().length == 0.0
    assert Interval() == Interval()
    for lower, upper in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="^bounds must both be NaN or neither, got "):
            Interval(lower, upper)
    with pytest.raises(TypeError):
        Interval(0.1, 0.2, True)  # no empty flag beside the bounds
    assert [f.name for f in dataclasses.fields(Interval)] == ["lower", "upper"]


def test_records_holding_arrays_compare_by_identity():
    model, _ = panel_model()
    cs = confidence_set(model, 0.05, resolution=4)
    point = point_test(model, [0.2, 0.3, 0.5], 0.05)
    comps = QuadraticComponents(H=np.eye(2), h=[0.0, 1.0])
    influence = InfluenceSet(np.zeros((4, 2, 2)), np.zeros((4, 2)))
    pairs = [
        (comps, QuadraticComponents(H=np.eye(2), h=[0.0, 1.0])),
        (influence, InfluenceSet(np.zeros((4, 2, 2)), np.zeros((4, 2)))),
        (point, point_test(model, [0.2, 0.3, 0.5], 0.05)),
        (cs, confidence_set(model, 0.05, resolution=4)),
    ]
    for record, twin in pairs:
        assert record == record and record != twin
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2
    for name, value in (("alpha", 0.5), ("member_mask", cs.member_mask), ("errors", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cs, name, value)
    moved = dataclasses.replace(cs, alpha=0.01)
    assert moved.alpha == 0.01 and cs.alpha == 0.05 and moved.grid is cs.grid


def test_fixed_mode_reuses_one_covariance():
    model, panel = panel_model(seed=5)
    from simplexci.estimators import influence_set, quadratic_components, variance_at

    components = quadratic_components(panel)
    influence = influence_set(panel, components)
    w_hat = np.array([0.2, 0.4, 0.4])
    v_fixed = variance_at(influence, w_hat)
    fixed = make_weight_model(components, influence, mode="fixed", v_fixed=v_fixed)
    b2 = build_basis(3)
    constant = fixed.M[3, 3]
    assert np.allclose(constant, b2.T @ v_fixed @ b2, atol=1e-14)
    blocks = np.ones((4, 4), dtype=bool)
    blocks[3, 3] = False
    assert not fixed.M[blocks].any()  # M vanishes outside the constant block
    _, omegas = fixed.evaluate(simplex_grid(3, 5))
    assert all(np.array_equal(omega, constant) for omega in omegas)


# ---------------------------------------------------------------------------
# the batched sweep against the scalar point test


def scalar_sweep(model, alpha, resolution):
    """Per-point reference: ``point_test`` at every lattice point, with the
    skip record and warning text a sweep gives a numerically failed point."""
    records, messages = [], []
    for row in simplex_grid(model.K, resolution):
        try:
            records.append(point_test(model, row, alpha))
        except (IllConditionedError, ConvergenceError) as exc:
            messages.append(f"skipping grid point {row.tolist()}: {exc}")
            records.append(
                PointTest(
                    w=row, statistic=math.inf, zeros=0, dof=model.K - 1,
                    critical=math.nan, member=False, error=str(exc),
                )
            )
    return records, messages


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.w, b.w)
        assert (a.zeros, a.dof, a.member, a.error) == (b.zeros, b.dof, b.member, b.error), b.w
        if b.error is None:
            assert a.critical == b.critical
            assert abs(a.statistic - b.statistic) <= 1e-12 * abs(b.statistic), b.w
        else:
            assert math.isinf(a.statistic) and math.isnan(a.critical)


def sweep_models(K, plugin_only=False, scale=1.0):
    """Plug-in and fixed-covariance models of a panel whose true weight sits
    on an edge, so that boundary projections hit faces of their cones. Every
    outcome is multiplied by ``scale``; the bootstrap draws the same units
    whatever it is."""
    spec = McSpec(K=K, n_j=30, design="boundary", reps=1, seed=K)
    panel = generate_panel(spec, K, K + 1)
    panel = PanelData(
        unit=panel.unit, group=panel.group, time=panel.time,
        outcome=scale * panel.outcome, t_match=panel.t_match,
    )
    components = quadratic_components(panel)
    influence = influence_set(panel, components)
    models = {"plugin": make_weight_model(components, influence)}
    if not plugin_only:
        v_star = bootstrap_variance(panel, spec.w0, 200, seed=K)
        models["fixed"] = make_weight_model(components, influence, mode="fixed", v_fixed=v_star)
    return models


@pytest.mark.parametrize("K,resolution", [(3, 20), (4, 12), (5, 8), (6, 7)])
@pytest.mark.parametrize("covariance", ["plugin", "fixed"])
def test_batched_sweep_matches_scalar_point_test(K, resolution, covariance):
    model = sweep_models(K)[covariance]
    assert model.M[:K, :K].any() == (covariance == "plugin")
    cs = confidence_set(model, 0.05, resolution)
    want, _ = scalar_sweep(model, 0.05, resolution)
    assert_same_records(cs.records, want)
    # the lattice holds every zero pattern with at least one positive weight
    patterns = {tuple(r.w == 0.0) for r in cs.records}
    assert len(patterns) == 2**K - 1
    assert any(r.zeros > 0 for r in cs.records)


@pytest.mark.parametrize("K", range(3, 13))
def test_sweep_matches_the_enumeration_oracle(K):
    # a seeded sample of boundary lattice points of a panel whose true weight
    # sits on an edge; the oracle tries all 2^|Z| supports per point
    model = sweep_models(K, plugin_only=True)["plugin"]
    resolution = 4 if K >= 6 else 8
    cs = confidence_set(model, 0.05, resolution)
    assert not cs.errors  # no point is left over the iteration cap
    boundary = np.flatnonzero((cs.grid == 0.0).any(axis=1))
    sample = np.random.default_rng(K).choice(boundary, size=min(16, boundary.size), replace=False)
    assert cs.zeros[sample].any()  # some projections land on a face
    b2 = build_basis(K)
    for i in sample.tolist():
        w = cs.grid[i]
        gradients, omegas = model.evaluate(w[None, :])
        objective, _, _, zeros = cone_projection_enumeration(gradients[0], w, omegas[0], b2)
        assert cs.zeros[i] == zeros, w
        assert cs.statistic[i] == pytest.approx(model.n * objective, rel=1e-9, abs=1e-12), w


def test_sweep_skips_points_over_the_iteration_cap_with_the_scalar_error(monkeypatch):
    # with an iteration cap of 0 every boundary point whose gradient leaves
    # the polar cone needs a least-squares solve, which is over the cap
    model, _ = panel_model(K=5, n_j=30, seed=3)
    monkeypatch.setattr(geometry, "_MAX_ITER_FACTOR", 0)
    want, messages = scalar_sweep(model, 0.05, 4)
    assert 0 < len(messages) < len(want)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cs = confidence_set(model, 0.05, 4)
    assert_same_records(cs.records, want)
    assert [str(w.message) for w in caught] == messages
    assert set(cs.errors.values()) == {"nonnegative least squares exceeded 0 iterations"}
    with pytest.raises(ConvergenceError) as exc:
        confidence_set(model, 0.05, 4, strict=True)
    assert str(exc.value) == next(r.error for r in want if r.error is not None)


def test_a_failed_covariance_outranks_the_iteration_cap(monkeypatch):
    # a failed covariance's row is projected with the identity whitening, and
    # at the vertex this gradient needs a least-squares solve, over a cap of 0
    f = build_basis(3).T @ np.array([0.0, 1.0, 1.0])
    vertex = np.array([1.0, 0.0, 0.0])
    model = constant_model(f, np.array([[1.0, 2.0], [2.0, 1.0]]), n=100)
    monkeypatch.setattr(geometry, "_MAX_ITER_FACTOR", 0)
    assert project_one(f, vertex, np.eye(2)).over_cap
    with pytest.raises(IllConditionedError, match="not positive definite"):
        point_test(model, vertex, 0.05)
    with pytest.warns(RuntimeWarning):
        cs = confidence_set(model, 0.05, 1)
    assert len(cs.errors) == 3
    assert all("failed validation" in message for message in cs.errors.values())


def test_batched_sweep_keeps_skip_records_warnings_and_strict_order(monkeypatch):
    model, _ = panel_model(K=3, n_j=40, seed=3)
    monkeypatch.setattr(geometry, "_COND_CAP", 1.9)
    want, messages = scalar_sweep(model, 0.05, 10)
    assert 0 < len(messages) < len(want)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cs = confidence_set(model, 0.05, 10)
    assert_same_records(cs.records, want)
    assert [str(w.message) for w in caught] == messages
    assert all(w.category is RuntimeWarning for w in caught)
    # the columns hold the same results; records are a view built from them
    columns = (cs.statistic, cs.zeros, cs.dof, cs.critical, cs.member_mask)
    assert all(len(column) == len(cs.grid) for column in columns)
    assert np.array_equal(cs.member_mask, cs.statistic <= cs.critical)
    assert sorted(cs.errors) == [i for i, r in enumerate(want) if r.error is not None]
    assert not cs.grid.flags.writeable
    assert not any(r.w.flags.writeable for r in cs.records)
    # strict mode raises the error of the first failing point in lattice order
    first = next(r for r in want if r.error is not None)
    with pytest.raises(IllConditionedError) as exc:
        confidence_set(model, 0.05, 10, strict=True)
    assert str(exc.value) == first.error
    assert f"w={first.w.tolist()}" in first.error


def test_constant_covariance_is_checked_once_per_batch(monkeypatch):
    stacks = []

    def counting_factor_spd(matrices):
        stacks.append(len(matrices))
        return factor_spd(matrices)

    monkeypatch.setattr(inference, "factor_spd", counting_factor_spd)
    models = sweep_models(4)
    # 1,771 points make two batches of at most 1,024
    assert len(confidence_set(models["fixed"], 0.05, 20).grid) == 1771
    assert stacks == [1, 1]
    stacks.clear()
    confidence_set(models["plugin"], 0.05, 20)
    assert stacks == [1024, 747]


def test_fixed_covariance_obeys_the_condition_cap(monkeypatch):
    model = sweep_models(3)["fixed"]
    eigs = np.linalg.eigvalsh(model.M[3, 3])
    monkeypatch.setattr(geometry, "_COND_CAP", 0.5 * eigs[-1] / eigs[0])
    want, messages = scalar_sweep(model, 0.05, 6)
    assert len(messages) == len(want)  # every point exceeds the cap
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cs = confidence_set(model, 0.05, 6)
    assert_same_records(cs.records, want)
    assert [str(w.message) for w in caught] == messages
    with pytest.raises(IllConditionedError) as exc:
        confidence_set(model, 0.05, 6, strict=True)
    assert str(exc.value) == want[0].error


# ---------------------------------------------------------------------------
# metamorphic relations


def rescaled_sweeps(K, resolution, c):
    """Sweeps of each ``sweep_models`` model of K, before and after every
    outcome is multiplied by ``c``."""
    base, scaled = sweep_models(K), sweep_models(K, scale=c)
    for name in base:
        before = confidence_set(base[name], 0.05, resolution)
        after = confidence_set(scaled[name], 0.05, resolution)
        assert not (before.errors or after.errors)
        yield name, before, after


SCALES = [-3.0, 0.01, 1e3, 1e4, 1e5]
SCALED_LATTICES = [(3, 20), (4, 10)]


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("K,resolution", SCALED_LATTICES)
def test_rescaled_outcomes_leave_every_statistic_unchanged(K, resolution, c):
    # the gradient scales by c^2 and its covariance by c^4, so T does not move
    for name, before, after in rescaled_sweeps(K, resolution, c):
        gap = np.abs(after.statistic - before.statistic)
        assert np.all(gap <= 1e-9 * np.abs(before.statistic)), name


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("K,resolution", SCALED_LATTICES)
def test_rescaled_outcomes_leave_zero_counts_and_members_unchanged(K, resolution, c):
    for name, before, after in rescaled_sweeps(K, resolution, c):
        assert np.array_equal(after.zeros, before.zeros), name
        assert np.array_equal(after.dof, before.dof), name
        assert np.array_equal(after.member_mask, before.member_mask), name


@pytest.mark.parametrize("K,resolution", SCALED_LATTICES)
def test_confidence_sets_are_nested_in_alpha(K, resolution):
    # a 99% set holds the 95% set: the same statistics meet larger quantiles
    for name, model in sweep_models(K).items():
        wide = confidence_set(model, 0.01, resolution)
        narrow = confidence_set(model, 0.05, resolution)
        assert np.array_equal(narrow.statistic, wide.statistic), name
        assert narrow.member_mask.any(), name
        assert not (narrow.member_mask & ~wide.member_mask).any(), name
        assert (wide.member_mask & ~narrow.member_mask).any(), name
