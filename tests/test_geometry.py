"""Tests for the basis, cone projection, and simplex QP solver."""

import math

import numpy as np
import pytest

from simplexci import geometry, inference
from simplexci.estimators import QuadraticComponents
from simplexci.exceptions import ConvergenceError, IllConditionedError
from simplexci.inference import confidence_set, point_test
from simplexci.geometry import (
    SpdMatrix,
    build_basis,
    check_simplex_point,
    factor_spd,
    project_cone,
    solve_simplex_qp,
)

from model_helpers import constant_model, project_one
from oracles import (
    cone_projection_enumeration,
    factor_spd_eigen,
    qp_simplex_enumeration,
    span_projection_kkt,
)


def random_spd(rng, dim, jitter=0.3):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + jitter * np.eye(dim)


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# basis


def test_basis_k2_is_the_normalized_difference():
    b2 = build_basis(2)
    assert b2.shape == (2, 1)
    assert b2[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert b2[1, 0] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
    with pytest.raises(ValueError, match="^dimension K must be at least 2, got 1$"):
        build_basis(1)


def test_basis_columns_orthonormal_and_orthogonal_to_ones():
    for K in range(2, 9):
        b2 = build_basis(K)
        assert b2.shape == (K, K - 1)
        assert np.allclose(b2.T @ b2, np.eye(K - 1), atol=1e-14)
        assert np.allclose(np.ones(K) @ b2, 0.0, atol=1e-14)
        # completion identity: projector onto the ones-complement
        assert np.allclose(b2 @ b2.T, np.eye(K) - np.ones((K, K)) / K, atol=1e-14)


def test_basis_is_deterministic_and_read_only():
    first = build_basis(5)
    second = build_basis(5)
    assert np.array_equal(first, second)
    with pytest.raises(ValueError):
        first[0, 0] = 2.0


def test_rank_lemma_every_row_subset_is_independent():
    # rows of the basis indexed by any proper subset are linearly independent
    for K in range(2, 9):
        b2 = build_basis(K)
        for mask in range(1, 2 ** K):
            idx = [j for j in range(K) if mask >> j & 1]
            if len(idx) > K - 1:
                continue
            rows = b2[idx]
            smallest = np.linalg.svd(rows, compute_uv=False)[-1]
            assert smallest > 1e-8, (K, idx)


def test_zero_row_lemma_mapped_basis_has_no_null_row():
    rng = np.random.default_rng(11)
    for K in range(2, 9):
        b2 = build_basis(K)
        assert np.min(np.linalg.norm(b2, axis=1)) > 0.0
        omega = random_spd(rng, K - 1)
        mapped = b2 @ np.linalg.inv(omega)
        assert np.min(np.linalg.norm(mapped, axis=1)) > 1e-10


# ---------------------------------------------------------------------------
# SpdMatrix and simplex checks


def test_spd_matrix_accepts_and_symmetrizes():
    base = np.array([[2.0, 0.5], [0.5, 1.0]])
    tilted = base + np.array([[0.0, 1e-12], [-1e-12, 0.0]])
    spd = SpdMatrix.from_matrix(tilted)
    assert np.allclose(spd.entries, spd.entries.T, atol=0.0)


def test_spd_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SpdMatrix.from_matrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(IllConditionedError):
        SpdMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(IllConditionedError):
        SpdMatrix.from_matrix(np.diag([1.0, 1e-15]))
    with pytest.raises(ValueError):
        SpdMatrix.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        SpdMatrix.from_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"stack of square matrices, got shape \(2, 2\)$"):
        factor_spd(np.eye(2))


def test_spd_matrix_is_built_only_by_from_matrix():
    with pytest.raises(TypeError):
        SpdMatrix(np.eye(2), np.eye(2))
    spd = SpdMatrix.from_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert not spd.entries.flags.writeable and not spd.white.flags.writeable


def assert_whitens(white, entries):
    """``W entries W'`` is the identity within 1e-12, row by row."""
    eye = np.eye(entries.shape[-1])
    assert np.abs(white @ entries @ np.swapaxes(white, -1, -2) - eye).max() <= 1e-12


def test_whitening_turns_random_covariances_into_the_identity():
    rng = np.random.default_rng(4)
    for K in range(2, 11):
        stack = np.stack([random_spd(rng, K - 1) for _ in range(20)])
        entries, white, failures = factor_spd(stack)
        assert not failures
        assert_whitens(white, entries)


# one matrix of each kind the covariance rule tells apart
RULE_CASES = {
    "good": np.array([[2.0, 0.3], [0.3, 1.0]]),
    "tilted within 1e-10": np.array([[2.0, 0.3], [0.3 + 1e-11, 1.0]]),
    "non-finite": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "asymmetric by 1e-9": np.array([[2.0, 0.3], [0.3 + 1e-9, 1.0]]),
    "indefinite": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "singular": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "condition 1e14": np.diag([1.0, 1e-14]),
    "condition 1e11": np.diag([1.0, 1e-11]),  # passes by its eigenvalues
}


def raised_by(fn, *args, **kwargs):
    with pytest.raises((ValueError, IllConditionedError)) as info:
        fn(*args, **kwargs)
    return info.value


def test_stacked_rule_agrees_row_for_row_with_from_matrix(monkeypatch):
    cases = list(RULE_CASES.values())
    # failing rows before, between and after passing ones: a row's result
    # is its own, bit for bit, wherever it sits in whatever stack
    for order in ([0, 1, 2, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1, 0], [2, 0, 6, 7, 3, 1, 4, 5]):
        entries, white, failures = factor_spd(np.stack([cases[j] for j in order]))
        assert sorted(order[i] for i in failures) == [2, 3, 4, 5, 6]
        for i, j in enumerate(order):
            if i in failures:
                exc = raised_by(SpdMatrix.from_matrix, cases[j])
                assert (type(failures[i]), str(failures[i])) == (type(exc), str(exc))
                # a failed row carries the identity
                assert np.array_equal(entries[i], np.eye(2))
                assert np.array_equal(white[i], np.eye(2))
            else:
                spd = SpdMatrix.from_matrix(cases[j])
                assert np.array_equal(entries[i], spd.entries)
                assert np.array_equal(white[i], spd.white)
                assert_whitens(spd.white, spd.entries)
    # the condition cap is read when the rule runs
    monkeypatch.setattr(geometry, "_COND_CAP", 1e15)
    assert 6 not in factor_spd(np.stack(cases))[2]


def graded_spd(rng, dim, cond):
    """``S C S`` for a well-conditioned ``C`` and a diagonal ``S`` whose
    squares span ``cond``: a condition number near ``cond`` that either
    whitening resolves to a few ulps."""
    s = np.sqrt(np.geomspace(1.0, 1.0 / cond, dim))
    graded = s[:, None] * random_spd(rng, dim, jitter=dim) * s
    return 0.5 * (graded + graded.T)


def straddling_stack(rng, dim):
    """A shuffled stack of graded and dense matrices with condition numbers
    from 1e9 to 1e13, well-conditioned ones, and one indefinite, singular,
    1e-9-asymmetric, infinite and NaN matrix each. Returns the stack and the
    mask of its graded and well-conditioned rows."""
    rows, held = [], []
    for cond in np.geomspace(1e9, 1e13, 17):
        q = random_rotation(rng, dim)
        dense = (q * np.geomspace(1.0, 1.0 / cond, dim)) @ q.T
        rows += [graded_spd(rng, dim, cond), 0.5 * (dense + dense.T)]
        held += [True, False]
    rows += [random_spd(rng, dim) for _ in range(8)]
    held += [True] * 8
    q, v = random_rotation(rng, dim), rng.standard_normal(dim)
    asymmetric = random_spd(rng, dim)
    asymmetric /= np.abs(asymmetric).max()  # so that 1e-9 is over the tolerance
    asymmetric[-1, 0] += 1e-9
    infinite, missing = random_spd(rng, dim), random_spd(rng, dim)
    infinite[0, -1] = np.inf
    missing[-1, -1] = np.nan
    rows += [(q * np.linspace(-1.0, 2.0, dim)) @ q.T, np.outer(v, v), asymmetric, infinite, missing]
    held += [False] * 5
    order = rng.permutation(len(rows))
    return np.stack(rows)[order], np.array(held)[order]


@pytest.mark.parametrize("cap", [1e12, 1e10, 1e8])
def test_certified_rule_fails_and_whitens_as_the_eigen_oracle(cap, monkeypatch):
    monkeypatch.setattr(geometry, "_COND_CAP", cap)  # governs both rules
    rng = np.random.default_rng(31)
    for dim in (2, 3, 5, 9):
        stack, held = straddling_stack(rng, dim)
        entries, white, failures = factor_spd(stack)
        want_entries, want_white, want = factor_spd_eigen(stack)
        got = [(i, type(exc), str(exc)) for i, exc in failures.items()]
        assert got == [(i, type(exc), str(exc)) for i, exc in want.items()]
        assert np.array_equal(entries, want_entries)
        messages = [str(exc) for exc in failures.values()]
        for cause in ("non-finite", "not symmetric", "not positive definite", "exceeds the cap"):
            assert any(cause in message for message in messages)
        passing = [i for i in range(len(stack)) if i not in failures]
        # a row the bound clears gets its inverse Cholesky factor, which is
        # lower triangular; every other row keeps the oracle's whitening
        certified = [i for i in passing if not np.array_equal(white[i], want_white[i])]
        assert all(not np.triu(white[i], 1).any() for i in certified)
        assert len(certified) >= 8  # the well-conditioned rows at least
        for i in range(len(stack)):  # a row's result is its own, bit for bit
            alone = factor_spd(stack[i:i + 1])
            assert np.array_equal(alone[0][0], entries[i]) and np.array_equal(alone[1][0], white[i])
            want_alone = [str(failures[i])] if i in failures else []
            assert [str(exc) for exc in alone[2].values()] == want_alone
        # W Omega W' = I within 1e-12 on graded and well-conditioned rows; a
        # dense matrix of condition c is whitened only to about c * eps, by
        # either rule
        for i in passing:
            error = np.abs(white[i] @ entries[i] @ white[i].T - np.eye(dim)).max()
            slack = 0.0 if held[i] else dim * np.finfo(float).eps * np.linalg.cond(entries[i])
            assert error <= max(1e-12, slack)


def test_certificate_is_scale_free_and_spares_eigh(monkeypatch):
    rows = []
    eigh = np.linalg.eigh

    def counted(a):
        rows.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(8)
    for dim in (2, 5, 9):
        stack = np.stack([random_spd(rng, dim) for _ in range(64)])
        for scale in (1e-8, 1.0, 1e8):
            entries, white, failures = factor_spd(scale * stack)
            assert not failures and rows == []
            assert_whitens(white, entries)
    # a row the bound cannot clear still goes to eigh, at any scale
    for scale in (1e-8, 1e8):
        assert not factor_spd(scale * np.stack([np.eye(2), np.diag([1.0, 1e-11])]))[2]
    assert rows == [1, 1]


@pytest.mark.parametrize("case", ["asymmetric by 1e-9", "condition 1e14"])
def test_every_path_rejects_a_covariance_alike(case):
    matrix = RULE_CASES[case]
    exc = raised_by(SpdMatrix.from_matrix, matrix)
    f = np.array([0.3, -0.2])
    assert list(factor_spd(matrix[None])[2]) == [0]
    model = constant_model(f, matrix, n=100)
    for w in ([0.2, 0.3, 0.5], [1.0, 0.0, 0.0]):
        got = raised_by(point_test, model, np.array(w), 0.05)
        assert isinstance(got, IllConditionedError)
        assert str(got) == f"covariance matrix at w={w} failed validation: {exc}"
    with pytest.warns(RuntimeWarning):
        cs = confidence_set(model, 0.05, resolution=1)
    assert not cs.member_mask.any()
    assert sorted(cs.errors) == [0, 1, 2]
    assert all(message.endswith(f"failed validation: {exc}") for message in cs.errors.values())


def test_check_simplex_point():
    check_simplex_point(np.array([0.2, 0.8]))
    check_simplex_point(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        check_simplex_point(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        check_simplex_point(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        check_simplex_point(np.array([1.0]))
    with pytest.raises(ValueError):
        check_simplex_point(np.array([0.5, 0.5]), K=3)
    with pytest.raises(ValueError, match="^weight vector has non-finite entries$"):
        check_simplex_point(np.array([np.nan, 1.0]))


# ---------------------------------------------------------------------------
# cone projection


def test_interior_point_projects_to_the_origin():
    # no vanishing coordinate means the cone degenerates to {0}
    rng = np.random.default_rng(0)
    f = rng.standard_normal(2)
    omega = random_spd(rng, 2)
    w = np.array([0.2, 0.3, 0.5])
    proj = project_one(f, w, omega)
    assert np.array_equal(proj.lam, np.zeros(3))
    assert np.allclose(proj.residual, f, atol=0.0)
    direct = f @ np.linalg.solve(omega, f)
    assert proj.objective == pytest.approx(direct, rel=1e-12)


def test_vertex_point_recovers_interior_cone_member():
    # f built from the allowed generators is reproduced exactly: the
    # residual vanishes, so every mapped coordinate is a zero
    b2 = build_basis(3)
    lam = np.array([0.0, 1.0, 1.0])
    f = b2.T @ lam
    proj = project_one(f, np.array([1.0, 0.0, 0.0]), np.eye(2))
    assert proj.objective <= 1e-20
    assert np.allclose(proj.lam, lam, atol=1e-12)
    assert proj.zeros == 3


def random_simplex_point(rng, K, zeros):
    """Simplex point with the requested number of zeros, positives >= 0.01."""
    w = np.zeros(K)
    bulk = rng.dirichlet(np.ones(K - zeros)) + 0.05
    w[: K - zeros] = bulk / np.sum(bulk)
    rng.shuffle(w)
    return w


def test_projection_matches_subset_enumeration():
    from simplexci.inference import simplex_grid

    rng = np.random.default_rng(42)
    b2_cache = {K: build_basis(K) for K in (3, 4, 5)}
    lattice = {K: simplex_grid(K, 4) for K in (3, 4, 5)}
    for trial in range(300):
        K = int(rng.integers(3, 6))
        b2 = b2_cache[K]
        f = rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        w = lattice[K][int(rng.integers(len(lattice[K])))]
        proj = project_one(f, w, omega)
        obj, lam, resid, zeros = cone_projection_enumeration(f, w, omega, b2)
        assert abs(proj.objective - obj) <= 1e-9, (trial, K)
        assert proj.zeros == zeros, (trial, K)


def test_batched_projection_steps_back_and_matches_the_oracle(monkeypatch):
    # correlated weightings at vertices send many least-squares
    # solutions out of the cone, so rows step back and drop generators
    from simplexci import geometry

    lstsq = geometry._passive_lstsq
    left_the_cone = []

    def recording_lstsq(A, t, passive):
        z = lstsq(A, t, passive)
        left_the_cone.append(int(((z <= 0.0) & passive).any(axis=1).sum()))
        return z

    monkeypatch.setattr(geometry, "_passive_lstsq", recording_lstsq)
    rng = np.random.default_rng(5)
    for K in (5, 7, 9):
        n, b2 = 60, build_basis(K)
        a = rng.standard_normal((n, K - 1, K - 1))
        omega = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(K - 1)
        f = 3.0 * rng.standard_normal((n, K - 1))
        w = np.eye(K)[rng.integers(0, K, n)]
        lam, _, objective, _, zeros, over_cap = project_cone(f, w, factor_spd(omega)[1])
        assert not over_cap.any()
        for i in range(n):
            obj, lam_star, _, zeros_star = cone_projection_enumeration(f[i], w[i], omega[i], b2)
            assert objective[i] == pytest.approx(obj, rel=1e-9, abs=1e-12), (K, i)
            assert zeros[i] == zeros_star, (K, i)
            assert np.allclose(lam[i], lam_star, atol=1e-8 * (1.0 + np.abs(lam_star).max()))
    assert sum(left_the_cone) >= 5


def test_shared_factor_projects_as_the_factor_broadcast_to_every_row():
    rng = np.random.default_rng(12)
    K, b2 = 6, build_basis(6)
    points = inference.simplex_grid(K, 7)  # 786 boundary and 6 interior points
    f = 2.0 * rng.standard_normal((len(points), K - 1))
    white = factor_spd(random_spd(rng, K - 1)[None])[1]
    shared = project_cone(f, points, white)
    each = project_cone(f, points, np.broadcast_to(white, (len(points), K - 1, K - 1)))
    for got, expected in zip(shared, each):
        assert np.array_equal(got, expected)
    # a plug-in stack keeps one whitening per row; a failed row's is the identity
    omegas = np.stack([random_spd(rng, K - 1) for _ in points])
    omegas[5, 0, 1] += 1.0
    _, whites, failures = factor_spd(omegas)
    assert list(failures) == [5]
    omegas[5] = np.eye(K - 1)
    lam, _, objective, _, zeros, over_cap = project_cone(f, points, whites)
    assert not over_cap.any()
    for i in [5, *range(0, len(points), 7)]:
        obj, lam_star, _, zeros_star = cone_projection_enumeration(f[i], points[i], omegas[i], b2)
        assert objective[i] == pytest.approx(obj, rel=1e-9, abs=1e-12), i
        assert zeros[i] == zeros_star, i
        assert np.allclose(lam[i], lam_star, atol=1e-8 * (1.0 + np.abs(lam_star).max()))


def test_moreau_decomposition_and_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(300):
        K = int(rng.integers(3, 6))
        b2 = build_basis(K)
        f = 3.0 * rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        w = random_simplex_point(rng, K, int(rng.integers(1, K)))
        proj = project_one(f, w, omega)
        cone_part = b2.T @ proj.lam
        polar_part = proj.residual
        # decomposition restores the input
        assert np.allclose(cone_part + polar_part, f, atol=1e-9)
        # the two parts are orthogonal in the inverse-omega inner product
        cross = cone_part @ np.linalg.solve(omega, polar_part)
        assert abs(cross) <= 1e-9
        # objective equals the squared polar norm
        norm = polar_part @ np.linalg.solve(omega, polar_part)
        assert proj.objective == pytest.approx(norm, abs=1e-10)


def test_kkt_certificate_holds():
    rng = np.random.default_rng(8)
    for _ in range(300):
        K = int(rng.integers(3, 6))
        f = 2.0 * rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        w = random_simplex_point(rng, K, int(rng.integers(1, K)))
        proj = project_one(f, w, omega)
        g = proj.gradient_image
        scale = 1.0 + np.max(np.abs(g))
        vanished = w <= 1e-10
        # dual feasibility on allowed generators, stationarity on active ones
        assert np.all(g[vanished] <= 1e-9 * scale)
        assert np.all(np.abs(g[proj.lam > 0.0]) <= 1e-9 * scale)
        # complementary slackness
        assert np.all(np.abs(proj.lam * g) <= 1e-8 * scale)
        assert np.all(proj.lam[~vanished] == 0.0)


def test_projection_scale_equivariance():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(3)
    omega = random_spd(rng, 3)
    w = np.array([0.7, 0.3, 0.0, 0.0])
    base = project_one(f, w, omega)
    doubled = project_one(2.0 * f, w, omega)
    assert doubled.objective == pytest.approx(4.0 * base.objective, rel=1e-9)
    assert np.allclose(doubled.lam, 2.0 * base.lam, atol=1e-10)
    shrunk = project_one(f, w, 4.0 * omega)
    assert shrunk.objective == pytest.approx(0.25 * base.objective, rel=1e-9)
    assert np.allclose(shrunk.lam, base.lam, atol=1e-10)


def test_residual_equals_projection_on_active_face():
    # with the active generators pinned to equality the cone projection
    # reduces to the linear-span projection; cross-check against the
    # bordered KKT oracle
    rng = np.random.default_rng(10)
    b2 = build_basis(4)
    hits = 0
    for _ in range(200):
        f = 2.0 * rng.standard_normal(3)
        omega = random_spd(rng, 3)
        w = np.array([0.0, 0.0, 0.4, 0.6])
        proj = project_one(f, w, omega)
        active = [j for j in range(4) if proj.lam[j] > 0.0]
        if not active:
            continue
        hits += 1
        oracle = span_projection_kkt(f, active, omega, b2)
        assert np.allclose(proj.residual, oracle, atol=1e-9)
    assert hits > 50


def test_statistics_are_basis_invariant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        K = int(rng.integers(3, 6))
        q = random_rotation(rng, K - 1)
        f = rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        w = random_simplex_point(rng, K, 1)
        # the same problem in the rotated basis B2 q: f -> q'f, omega -> q' omega q
        first = project_one(f, w, omega)
        objective, _, _, zeros = cone_projection_enumeration(
            q.T @ f, w, q.T @ omega @ q, build_basis(K) @ q
        )
        assert abs(first.objective - objective) <= 1e-8
        assert first.zeros == zeros


def test_projection_honours_iteration_cap(monkeypatch):
    b2 = build_basis(3)
    f = b2.T @ np.array([0.0, 1.0, 1.0])
    vertex = np.array([1.0, 0.0, 0.0])
    monkeypatch.setattr(geometry, "_MAX_ITER_FACTOR", 0)
    assert project_one(f, vertex, np.eye(2)).over_cap
    with pytest.raises(ConvergenceError, match="exceeded 0 iterations"):
        point_test(constant_model(f, np.eye(2), n=100), vertex, 0.05)
    # an input already in the polar cone needs no pivots and still succeeds
    easy = project_one(-f, vertex, np.eye(2))
    assert not easy.over_cap and easy.objective > 0.0


def test_singular_omega_raises():
    model = constant_model(np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0]]), n=100)
    with pytest.raises(IllConditionedError):
        point_test(model, np.array([0.2, 0.3, 0.5]), 0.05)


# ---------------------------------------------------------------------------
# simplex QP


def test_qp_uniform_and_vertex_solutions():
    K = 4
    w = solve_simplex_qp(np.eye(K), np.zeros(K))
    assert np.allclose(w, np.full(K, 0.25), atol=1e-10)
    # strong pull toward the third coordinate
    w = solve_simplex_qp(np.eye(K), np.array([0.0, 0.0, 10.0, 0.0]))
    assert np.allclose(w, np.array([0.0, 0.0, 1.0, 0.0]), atol=1e-10)


def test_qp_matches_support_enumeration():
    rng = np.random.default_rng(21)
    for trial in range(300):
        K = int(rng.integers(2, 7))
        H = random_spd(rng, K, jitter=0.1)
        h = 2.0 * rng.standard_normal(K)
        w = solve_simplex_qp(H, h)
        check_simplex_point(w, K=K)
        w_star, obj_star = qp_simplex_enumeration(H, h)
        obj = 0.5 * w @ H @ w - h @ w
        assert obj <= obj_star + 1e-9, trial


def test_qp_handles_singular_hessian_by_objective():
    rng = np.random.default_rng(22)
    for _ in range(50):
        v = rng.standard_normal(3)
        H = np.outer(v, v)  # rank one, many minimizers
        h = rng.standard_normal(3)
        w = solve_simplex_qp(H, h)
        check_simplex_point(w, K=3)
        _, obj_star = qp_simplex_enumeration(H, h)
        obj = 0.5 * w @ H @ w - h @ w
        assert obj <= obj_star + 1e-8


def test_qp_kkt_multipliers_are_consistent():
    rng = np.random.default_rng(23)
    for _ in range(100):
        K = 5
        H = random_spd(rng, K)
        h = rng.standard_normal(K)
        w = solve_simplex_qp(H, h)
        grad = H @ w - h
        inside = w > 1e-9
        if np.any(inside):
            nu = -np.mean(grad[inside])
            # stationarity on the support, nonnegativity off it
            assert np.max(np.abs(grad[inside] + nu)) <= 1e-7 * (1.0 + np.abs(nu))
            assert np.all(grad[~inside] + nu >= -1e-7 * (1.0 + np.abs(nu)))


def test_qp_validation_and_iteration_cap(monkeypatch):
    with pytest.raises(ValueError):
        solve_simplex_qp(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        solve_simplex_qp(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    # the 1e-10 rule that QuadraticComponents applies
    for H in ([[1.0, 5e-9], [0.0, 1.0]], [[1.0, 0.0], [0.0, -5e-9]]):
        with pytest.raises(ValueError):
            solve_simplex_qp(np.array(H), np.zeros(2))
        with pytest.raises(ValueError):
            QuadraticComponents(H=np.array(H), h=np.zeros(2))
    for H, h in ((np.full((2, 2), np.nan), np.zeros(2)), (np.eye(2), [np.inf, 0.0])):
        with pytest.raises(ValueError, match="^hessian or its linear term has non-finite entries$"):
            solve_simplex_qp(H, h)
    with pytest.raises(ValueError, match="^the simplex QP needs at least two coordinates$"):
        solve_simplex_qp(np.eye(1), np.zeros(1))
    with pytest.raises(ValueError, match=r"^hessian must have shape \(2, 2\), got \(3, 3\)$"):
        solve_simplex_qp(np.eye(3), np.zeros(2))
    monkeypatch.setattr(geometry, "_MAX_ITER_FACTOR", 0)
    with pytest.raises(ConvergenceError, match="exceeded 0 active-set iterations"):
        solve_simplex_qp(np.eye(3), np.array([5.0, 0.0, 0.0]))


def test_tolerances_defaults():
    assert geometry._SUPPORT_TOL == 1e-10
    assert geometry._ZERO_TOL == 1e-8
    assert geometry._MAX_ITER_FACTOR == 50
    assert geometry._COND_CAP == 1e12
    assert inference._GRID_CAP == 5_000_000
