"""Acceptance checks, one verdict line per criterion.

Each test prints ``[PASS]``/``[FAIL]`` with the measured numbers before
asserting, so a full run shows the whole scoreboard.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from simplexci.distributions import chi2_quantile
from simplexci.estimators import (
    bootstrap_variance,
    influence_set,
    make_weight_model,
    quadratic_components,
    variance_at,
)
from simplexci.geometry import build_basis, solve_simplex_qp
from simplexci.inference import WeightModel, confidence_set, point_test, simplex_grid
from simplexci.montecarlo import McSpec, coverage_experiment, generate_panel

from model_helpers import constant_model, project_one
from oracles import cone_projection_enumeration, normal_quantile_erf


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_spd(rng, dim, jitter=0.3):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + jitter * np.eye(dim)


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def test_interior_coverage_at_desk_scale():
    start = time.perf_counter()
    spec = McSpec(K=3, n_j=100, design="interior", reps=500, seed=0)
    report = coverage_experiment(spec)
    elapsed = time.perf_counter() - start
    ok = abs(report.coverage - 0.95) <= 0.03 and elapsed < 120.0
    verdict(
        ok,
        "interior-coverage",
        f"coverage={report.coverage:.4f} target 0.95+/-0.03, "
        f"failures={report.failures}, elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_boundary_coverage_at_desk_scale():
    start = time.perf_counter()
    spec = McSpec(K=3, n_j=100, design="boundary", reps=500, seed=0)
    report = coverage_experiment(spec)
    elapsed = time.perf_counter() - start
    se = math.sqrt(0.05 * 0.95 / spec.reps)
    floor = max(0.93, 0.95 - 2.0 * se)
    ok = floor <= report.coverage <= 1.0 and elapsed < 120.0
    verdict(
        ok,
        "boundary-coverage",
        f"coverage={report.coverage:.4f} floor={floor:.4f} ceiling=1.0, "
        f"elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_projection_interval_coverage_and_length():
    start = time.perf_counter()
    spec = McSpec(K=3, n_j=100, design="interior", reps=200, seed=4, grid_n=100)
    report = coverage_experiment(spec, projection=True)
    elapsed = time.perf_counter() - start
    cov = report.projection_coverage[0]
    length = report.mean_lengths[0]
    ok = (
        abs(cov - 0.982) <= 0.04
        and length is not None
        and abs(length - 0.167) <= 0.03
        and elapsed < 1200.0
    )
    verdict(
        ok,
        "projection-coordinate-1",
        f"coverage={cov:.4f} target 0.982+/-0.04, mean length={length:.4f} "
        f"target 0.167+/-0.03, empty rate={report.empty_rate:.4f}, "
        f"elapsed={elapsed:.1f}s (limit 1200s)",
    )


def test_chi_square_quantile_reference_values():
    two = chi2_quantile(0.95, 2)
    closed = -2.0 * math.log(0.05)
    one = chi2_quantile(0.95, 1)
    squared_normal = normal_quantile_erf(0.975) ** 2
    gap2 = abs(two - closed)
    gap1 = abs(one - squared_normal)
    ok = gap2 <= 1e-9 and gap1 <= 1e-8
    verdict(
        ok,
        "chi-square-quantiles",
        f"dof 2 vs -2*ln(0.05): gap={gap2:.2e} (tol 1e-9); "
        f"dof 1 vs squared normal quantile: gap={gap1:.2e} (tol 1e-8)",
    )


def test_cone_projection_matches_enumeration_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    lattices = {K: simplex_grid(K, 4) for K in (3, 4, 5)}
    worst = 0.0
    zero_mismatches = 0
    for _ in range(1000):
        K = int(rng.integers(3, 6))
        omega = random_spd(rng, K - 1)
        f = 2.0 * rng.standard_normal(K - 1)
        grid = lattices[K]
        w = grid[int(rng.integers(grid.shape[0]))]
        result = project_one(f, w, omega)
        obj, _, _, zeros = cone_projection_enumeration(f, w, omega, build_basis(K))
        worst = max(worst, abs(result.objective - obj))
        zero_mismatches += int(result.zeros != zeros)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and zero_mismatches == 0 and elapsed < 60.0
    verdict(
        ok,
        "cone-projection-oracle",
        f"1000 instances K in {{3,4,5}}: max objective gap={worst:.2e} (tol 1e-9), "
        f"zero-count mismatches={zero_mismatches}, elapsed={elapsed:.1f}s (limit 60s)",
    )


def test_statistics_are_basis_invariant():
    rng = np.random.default_rng(777)
    worst_stat = 0.0
    mismatches = 0
    for trial in range(200):
        K = int(rng.integers(3, 6))
        n = 50
        b2 = build_basis(K)
        f = rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        rotation = random_rotation(rng, K - 1)
        grid = simplex_grid(K, 4)
        w = grid[int(rng.integers(grid.shape[0]))] if trial % 2 else rng.dirichlet(np.ones(K))
        a = point_test(constant_model(f, omega, n), w, 0.05)
        # the oracle in the rotated basis B2 R: f -> R'f, omega -> R' omega R
        objective, _, _, zeros = cone_projection_enumeration(
            rotation.T @ f, w, rotation.T @ omega @ rotation, b2 @ rotation
        )
        worst_stat = max(worst_stat, abs(a.statistic - n * objective))
        mismatches += int(a.zeros != zeros or a.dof != max(K - 1 - zeros, 1))
    ok = worst_stat <= 1e-8 and mismatches == 0
    verdict(
        ok,
        "basis-invariance",
        f"200 instances: max statistic gap={worst_stat:.2e} (tol 1e-8), "
        f"d/k mismatches={mismatches}",
    )


def test_moreau_kkt_and_basis_lemmas():
    rng = np.random.default_rng(2024)
    worst_decomp = 0.0
    worst_cross = 0.0
    kkt_violations = 0
    for _ in range(1000):
        K = int(rng.integers(3, 7))
        b2 = build_basis(K)
        f = 3.0 * rng.standard_normal(K - 1)
        omega = random_spd(rng, K - 1)
        zeros = int(rng.integers(1, K))
        w = np.zeros(K)
        bulk = rng.dirichlet(np.ones(K - zeros)) + 0.05
        w[: K - zeros] = bulk / np.sum(bulk)
        rng.shuffle(w)
        proj = project_one(f, w, omega)
        cone_part = b2.T @ proj.lam
        worst_decomp = max(worst_decomp, float(np.max(np.abs(cone_part + proj.residual - f))))
        cross = cone_part @ np.linalg.solve(omega, proj.residual)
        worst_cross = max(worst_cross, abs(float(cross)))
        g = proj.gradient_image
        scale = 1.0 + np.max(np.abs(g))
        vanished = w <= 1e-10
        dual_ok = np.all(g[vanished] <= 1e-9 * scale)
        stationary_ok = np.all(np.abs(g[proj.lam > 0.0]) <= 1e-9 * scale)
        slack_ok = np.all(np.abs(proj.lam * g) <= 1e-8 * scale)
        support_ok = np.all(proj.lam[~vanished] == 0.0)
        kkt_violations += int(not (dual_ok and stationary_ok and slack_ok and support_ok))

    rank_failures = 0
    zero_rows = 0
    for K in range(2, 9):
        b2 = build_basis(K)
        for mask in range(1, 2 ** K):
            idx = [j for j in range(K) if mask >> j & 1]
            if len(idx) > K - 1:
                continue
            smallest = np.linalg.svd(b2[idx], compute_uv=False)[-1]
            rank_failures += int(smallest <= 1e-8)
        zero_rows += int(np.min(np.linalg.norm(b2, axis=1)) <= 1e-10)
        omega = random_spd(rng, K - 1)
        mapped = b2 @ np.linalg.inv(omega)
        zero_rows += int(np.min(np.linalg.norm(mapped, axis=1)) <= 1e-10)

    ok = (
        worst_decomp <= 1e-9
        and worst_cross <= 1e-9
        and kkt_violations == 0
        and rank_failures == 0
        and zero_rows == 0
    )
    verdict(
        ok,
        "moreau-kkt-lemmas",
        f"1000 triples: decomposition gap={worst_decomp:.2e}, orthogonality "
        f"gap={worst_cross:.2e} (tol 1e-9), KKT violations={kkt_violations}; "
        f"rank failures={rank_failures}, zero rows={zero_rows} over all K<=8",
    )


def test_fixed_variance_equivalence_and_bootstrap_agreement():
    spec = McSpec(K=3, n_j=500, t0=10, reps=1, seed=0)
    panel = generate_panel(spec, eta_seed=1, rep_seed=2)
    comps = quadratic_components(panel)
    influence = influence_set(panel, comps)
    w_hat = solve_simplex_qp(comps.H, comps.h)
    v_plug = variance_at(influence, w_hat)

    # the single-matrix procedure must equal the per-point sweep with the
    # covariance frozen at that same matrix, record for record
    fixed_model = make_weight_model(comps, influence, mode="fixed", v_fixed=v_plug)
    b2 = build_basis(3)
    frozen = np.zeros((4, 4, 2, 2))
    frozen[3, 3] = b2.T @ v_plug @ b2
    reference = WeightModel(
        G=b2.T @ np.column_stack([comps.H, -comps.h]), M=frozen, n=fixed_model.n
    )
    sweep_a = confidence_set(fixed_model, 0.05, 20)
    sweep_b = confidence_set(reference, 0.05, 20)
    identical = all(
        a.statistic == b.statistic
        and a.zeros == b.zeros
        and a.dof == b.dof
        and a.critical == b.critical
        and a.member == b.member
        for a, b in zip(sweep_a.records, sweep_b.records)
    )

    v_boot = bootstrap_variance(panel, w_hat, n_draws=10_000, seed=0)
    rel = float(np.linalg.norm(v_boot - v_plug) / np.linalg.norm(v_plug))
    ok = identical and rel <= 0.10
    verdict(
        ok,
        "fixed-variance-consistency",
        f"record-for-record identity over {sweep_a.grid.shape[0]} grid points: "
        f"{identical}; bootstrap vs plug-in relative Frobenius gap={rel:.4f} "
        f"(tol 0.10) at 10000 draws, n={fixed_model.n}",
    )


def test_cli_reruns_are_byte_identical(tmp_path):
    base = [sys.executable, "-m", "simplexci"]

    sim_args = base + [
        "simulate", "--K", "3", "--nj", "20", "--reps", "5", "--seed", "3",
        "--grid", "10", "--projection",
    ]
    sim_out = []
    for name in ("sim_a.json", "sim_b.json"):
        path = tmp_path / name
        proc = subprocess.run(sim_args + ["--out", str(path)], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        sim_out.append(path.read_bytes())

    panel = generate_panel(McSpec(K=3, n_j=15, t0=6, reps=1, seed=0), eta_seed=5, rep_seed=6)
    csv_path = tmp_path / "panel.csv"
    rows = ["unit,group,time,outcome"]
    for u, g, t, y in zip(panel.unit, panel.group, panel.time, panel.outcome):
        rows.append(f"{u},{g},{t},{float(y)!r}")
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    infer_args = base + ["infer", str(csv_path), "--grid", "8"]
    infer_out = []
    for name in ("inf_a.json", "inf_b.json"):
        path = tmp_path / name
        proc = subprocess.run(infer_args + ["--out", str(path)], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        infer_out.append(path.read_bytes())

    sim_ok = sim_out[0] == sim_out[1]
    inf_ok = infer_out[0] == infer_out[1]
    ok = sim_ok and inf_ok and len(sim_out[0]) > 0 and len(infer_out[0]) > 0
    verdict(
        ok,
        "cli-determinism",
        f"simulate reruns byte-identical: {sim_ok} ({len(sim_out[0])} bytes); "
        f"infer reruns byte-identical: {inf_ok} ({len(infer_out[0])} bytes)",
    )
