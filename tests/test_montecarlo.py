"""Tests for the simulation harness: DGP determinism and coverage plumbing."""

import json
import math

import numpy as np
import pytest

import oracles
from simplexci import montecarlo
from simplexci.estimators import quadratic_components
from simplexci.exceptions import IllConditionedError
from simplexci.montecarlo import CoverageReport, McSpec, coverage_experiment, generate_panel


def reconstruct_means(spec, eta_seed):
    """Population group-mean paths rebuilt from the documented recipe."""
    K, T = spec.K, spec.t0
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(eta_seed)))
    eta = gen.standard_normal((K, T))
    trend = np.arange(1, T + 1) / T
    signs = (-1.0) ** np.arange(K)
    untreated = 0.5 + 0.5 * signs[:, None] * trend[None, :] + eta
    treated = spec.w0 @ untreated
    return np.vstack([treated, untreated])


def test_generate_panel_is_bit_deterministic():
    spec = McSpec(K=3, n_j=5, t0=6, reps=1, seed=0)
    a = generate_panel(spec, eta_seed=7, rep_seed=40)
    b = generate_panel(spec, eta_seed=7, rep_seed=40)
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.unit, b.unit)
    assert np.array_equal(a.group, b.group)
    assert np.array_equal(a.time, b.time)
    c = generate_panel(spec, eta_seed=7, rep_seed=41)
    assert not np.array_equal(a.outcome, c.outcome)


def test_generate_panel_matches_documented_recipe_exactly():
    spec = McSpec(K=4, n_j=3, t0=5, reps=1, seed=0)
    panel = generate_panel(spec, eta_seed=11, rep_seed=12)
    means = reconstruct_means(spec, eta_seed=11)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
    noise = gen.standard_normal((spec.K + 1, spec.n_j, spec.t0))
    expected = (means[:, None, :] + noise).reshape(-1)
    assert np.array_equal(panel.outcome, expected)


def test_vertex_override_ties_treated_path_to_one_donor():
    spec = McSpec(K=3, n_j=4, t0=6, reps=1, seed=0, w0_override=(0.0, 1.0, 0.0))
    means = reconstruct_means(spec, eta_seed=3)
    assert np.array_equal(means[0], means[2])


def test_sample_means_track_population_paths():
    spec = McSpec(K=3, n_j=400, t0=8, reps=1, seed=0)
    panel = generate_panel(spec, eta_seed=21, rep_seed=22)
    sample = quadratic_components(panel).group_means
    population = reconstruct_means(spec, eta_seed=21)
    # unit noise has variance 1, so each cell mean has sd 1/sqrt(n_j)
    gap = np.abs(sample - population)
    assert np.max(gap) <= 4.5 / math.sqrt(spec.n_j), np.max(gap)


def test_coverage_experiment_is_deterministic():
    spec = McSpec(K=3, n_j=20, t0=6, reps=8, seed=11, grid_n=10)
    first = coverage_experiment(spec, projection=True)
    second = coverage_experiment(spec, projection=True)
    assert first.to_dict() == second.to_dict()
    # timing is wall clock and must stay out of the serialized form
    assert "timing_seconds" not in first.to_dict()


def test_projection_coverage_dominates_point_coverage_on_grid():
    # the interior truth (0.2, 0.4, 0.4) sits on the 1/10 lattice, so whenever
    # the point test accepts, the swept set is non-empty and every projection
    # interval contains the true coordinate
    spec = McSpec(K=3, n_j=30, t0=6, reps=12, seed=5, grid_n=10)
    report = coverage_experiment(spec, projection=True)
    assert report.failures == 0
    assert report.resolution == 10
    for j in range(spec.K):
        assert report.projection_coverage[j] >= report.coverage - 1e-12
    assert 0.0 <= report.empty_rate <= 1.0 - report.coverage + 1e-12


def test_small_run_coverage_is_sane():
    spec = McSpec(K=3, n_j=50, t0=10, reps=60, seed=2)
    report = coverage_experiment(spec)
    assert report.failures == 0
    se = math.sqrt(0.05 * 0.95 / spec.reps)
    assert report.coverage >= 0.95 - 4.0 * se
    assert report.coverage <= 1.0


def test_mcspec_validation_and_true_weights():
    with pytest.raises(ValueError):
        McSpec(K=1)
    with pytest.raises(ValueError):
        McSpec(n_j=1)
    with pytest.raises(ValueError):
        McSpec(t0=0)
    with pytest.raises(ValueError):
        McSpec(design="edge")
    with pytest.raises(ValueError):
        McSpec(reps=0)
    with pytest.raises(ValueError):
        McSpec(alpha=1.0)
    assert np.allclose(McSpec(K=5).w0, [0.2, 0.2, 0.2, 0.2, 0.2])
    assert np.allclose(McSpec(K=5, design="boundary").w0, [0.5, 0.5, 0.0, 0.0, 0.0])
    assert np.allclose(McSpec(K=3).w0, [0.2, 0.4, 0.4])


def test_mcspec_rejects_an_override_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected a weight vector of length 3, got 2"):
        McSpec(K=3, w0_override=(0.5, 0.5))


def test_mcspec_rejects_an_override_off_the_simplex():
    with pytest.raises(ValueError, match="is not on the simplex"):
        McSpec(K=3, w0_override=(0.7, 0.7, -0.4))


def test_mcspec_rejects_a_grid_resolution_below_one():
    with pytest.raises(ValueError, match="grid_n must be at least 1, got 0"):
        McSpec(K=3, grid_n=0)


def test_report_serialization_roundtrip():
    spec = McSpec(K=3, n_j=20, t0=6, reps=4, seed=1, grid_n=10)
    keys = ["K", "alpha", "coverage", "design", "failures", "n_j", "reps", "seed", "t0", "w0"]
    swept = ["empty_rate", "mean_lengths", "projection_coverage", "resolution"]
    for projection, want in ((False, keys), (True, sorted(keys + swept))):
        report = coverage_experiment(spec, projection=projection)
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc == report.to_dict()
        assert sorted(doc) == want


def _record_tests(monkeypatch, module):
    """Replace ``module.point_test`` by a wrapper that records, per call, the
    fields of the outcome; returns the list it fills."""
    seen = []
    real = module.point_test

    def record(model, w, alpha):
        outcome = real(model, w, alpha)
        seen.append((outcome.statistic, outcome.zeros, outcome.dof, outcome.critical, outcome.member))
        return outcome

    monkeypatch.setattr(module, "point_test", record)
    return seen


def _record_chunks(monkeypatch):
    """Record the number of replications of each chunk, from the stacked
    influence set that ``variance_at`` receives once per chunk."""
    sizes = []
    real = montecarlo.variance_at

    def record(influence, w):
        sizes.append(influence.psi_h.shape[0])
        return real(influence, w)

    monkeypatch.setattr(montecarlo, "variance_at", record)
    return sizes


# n_j=2 and t0=2 give n=8 units and K^2=9 > T entries per unit in psi_H, so a
# chunk holds 2**18 // (8 * 8 * 9) = 455 replications
LOOP_CASES = {
    "K3 interior": (McSpec(K=3, n_j=30, t0=6, reps=20, seed=1), False),
    "K3 boundary": (McSpec(K=3, n_j=30, t0=6, design="boundary", reps=20, seed=2), False),
    "K4": (McSpec(K=4, n_j=20, t0=5, reps=15, seed=3), False),
    "K6 boundary": (McSpec(K=6, n_j=15, t0=8, design="boundary", reps=12, seed=4), False),
    "vertex": (McSpec(K=3, n_j=20, t0=6, reps=15, seed=5, w0_override=(0.0, 1.0, 0.0)), False),
    "projection": (McSpec(K=3, n_j=20, t0=6, reps=8, seed=11, grid_n=10), True),
    "one rep": (McSpec(K=3, n_j=10, t0=1, reps=1, seed=6), False),
    "chunk plus one": (McSpec(K=3, n_j=2, t0=2, reps=456, seed=7), False),
}


@pytest.mark.parametrize("name", LOOP_CASES)
def test_chunked_experiment_matches_the_per_panel_loop(name, monkeypatch):
    spec, projection = LOOP_CASES[name]
    loop_tests = _record_tests(monkeypatch, oracles)
    chunk_tests = _record_tests(monkeypatch, montecarlo)
    chunks = _record_chunks(monkeypatch)
    expected = oracles.coverage_experiment_loop(spec, projection=projection)
    report = coverage_experiment(spec, projection=projection)
    assert report.to_dict() == expected.to_dict()
    # statistic, zeros, dof, critical value and membership, bit for bit
    assert chunk_tests == loop_tests
    assert len(chunk_tests) == spec.reps
    if name == "chunk plus one":
        assert chunks == [455, 1]


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    spec = McSpec(K=3, n_j=20, t0=6, design="boundary", reps=9, seed=12, grid_n=10)
    default = coverage_experiment(spec, projection=True).to_dict()
    chunks = _record_chunks(monkeypatch)
    for chunk_bytes, expected_chunks in ((1, [1] * 9), (1 << 40, [9])):
        chunks.clear()
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
        assert coverage_experiment(spec, projection=True).to_dict() == default
        assert chunks == expected_chunks


def test_only_the_projection_sweep_builds_components_and_plug_in_models(monkeypatch):
    spec = McSpec(K=3, n_j=10, t0=4, reps=5, seed=14, grid_n=5)
    calls = []
    for name in ("QuadraticComponents", "make_weight_model"):
        real = getattr(montecarlo, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counting)
    coverage_experiment(spec)
    assert calls == []
    coverage_experiment(spec, projection=True)
    assert sorted(calls) == ["QuadraticComponents"] * 5 + ["make_weight_model"] * 5


@pytest.mark.parametrize("chunk_bytes", [1, montecarlo._CHUNK_BYTES], ids=["one rep per chunk", "default"])
def test_failed_replications_count_against_coverage_and_are_not_swept(chunk_bytes, monkeypatch):
    spec = McSpec(K=3, n_j=20, t0=6, reps=8, seed=13, grid_n=10)
    with monkeypatch.context() as patch:
        tests = _record_tests(patch, montecarlo)
        coverage_experiment(spec)
    members = [test[-1] for test in tests]
    assert len(members) == spec.reps
    failing = {1, 4}
    assert any(members[rep] for rep in failing)  # so the failures move coverage

    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
    calls = []
    real_test = montecarlo.point_test

    def flaky(model, w, alpha):
        calls.append(len(calls))
        if calls[-1] in failing:
            raise IllConditionedError("injected failure")
        return real_test(model, w, alpha)

    swept = []
    real_set = montecarlo.confidence_set

    def counting(model, alpha, resolution):
        swept.append(resolution)
        return real_set(model, alpha, resolution)

    monkeypatch.setattr(montecarlo, "point_test", flaky)
    monkeypatch.setattr(montecarlo, "confidence_set", counting)
    report = coverage_experiment(spec, projection=True)
    assert report.failures == len(failing)
    kept = sum(member for rep, member in enumerate(members) if rep not in failing)
    assert report.coverage == kept / spec.reps
    assert len(swept) == spec.reps - len(failing)
