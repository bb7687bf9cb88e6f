"""Correctness gate for one workload's CLI output.

The output is checked against the library's scalar path on a model built
only through the public API:

* every sweep record satisfies ``k == max(K-1-d, 1)``,
  ``member == (T <= critical)`` and ``critical == chi2_quantile(1-level, k)``,
  and the critical values match a reference table;
* a fixed sample of records (the first point of every boundary zero pattern
  plus a seeded set of interior points) is recomputed with ``point_test``:
  ``d``, ``k`` and ``member`` must be equal and ``T`` within ``T_RTOL``;
* ``project`` and ``bonferroni`` intervals must equal the ones derived from
  a reference sweep, and ``simulate`` coverage and failure count must equal
  a recount of all its replications with ``point_test``.

A failed check raises ``GateError``.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

import numpy as np

import simplexci
from simplexci.cli import read_panel_csv

from workloads import ALPHA, KAPPA

# Tolerance on the statistic T against the scalar point_test, relative to
# max(1, |T|). The scalar path is the reference; a batched implementation
# may reorder sums.
T_RTOL = 1e-9
INTERIOR_SAMPLE = 24

# chi-square quantiles at levels 0.95 and 0.995 for k = 1..5, from an
# independent implementation (relative accuracy better than 1e-12).
CHI2_REFERENCE = {
    0.95: (3.841458820694124, 5.991464547107979, 7.814727903251179, 9.487729036781154,
           11.070497693516351),
    0.995: (7.879438576622417, 10.596634733096073, 12.838156466598647, 14.860259000560243,
            16.74960234363904),
}


class GateError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def build_model(workload, csv_path: str, seed: int):
    """Panel and weight model through the public API, as the CLI builds them."""
    t_match = workload.post - 1 if workload.command == "bonferroni" else None
    panel = read_panel_csv(csv_path, t_match=t_match)
    comps = simplexci.quadratic_components(panel)
    infl = simplexci.influence_set(panel, comps)
    if workload.bootstrap_draws:
        w_hat = simplexci.solve_simplex_qp(comps.H, comps.h)
        v_star = simplexci.bootstrap_variance(panel, w_hat, workload.bootstrap_draws, seed)
        model = simplexci.make_weight_model(comps, infl, mode="fixed", v_fixed=v_star)
    else:
        model = simplexci.make_weight_model(comps, infl)
    return panel, model


def _record_of(test) -> dict:
    doc = {"w": [float(x) for x in test.w], "T": test.statistic, "d": test.zeros,
           "k": test.dof, "critical": test.critical, "member": test.member}
    if test.error is not None:
        doc["error"] = test.error
    return doc


def check_records(records: List[dict], K: int, level: float, expected: int) -> None:
    _require(len(records) == expected, f"expected {expected} records, got {len(records)}")
    reference = CHI2_REFERENCE.get(round(1.0 - level, 12))
    for i, r in enumerate(records):
        if "error" in r:
            continue  # a skipped point; counted as a failure, not checked here
        _require(r["k"] == max(K - 1 - r["d"], 1), f"record {i}: k={r['k']} with d={r['d']}")
        _require(r["member"] == (r["T"] <= r["critical"]), f"record {i}: member flag")
        _require(r["critical"] == simplexci.chi2_quantile(1.0 - level, r["k"]),
                 f"record {i}: critical value")
        if reference is not None and r["k"] <= len(reference):
            want = reference[r["k"] - 1]
            _require(abs(r["critical"] - want) <= 1e-9 * want,
                     f"record {i}: critical {r['critical']!r} != reference {want!r}")


def sample_indices(records: List[dict], rng: np.random.Generator) -> List[int]:
    """First record of every boundary zero pattern, plus seeded interior ones."""
    patterns = {}
    interior = []
    for i, r in enumerate(records):
        zeros = tuple(j for j, x in enumerate(r["w"]) if x == 0.0)
        if zeros:
            patterns.setdefault(zeros, i)
        else:
            interior.append(i)
    take = min(INTERIOR_SAMPLE, len(interior))
    chosen = rng.choice(len(interior), size=take, replace=False) if take else []
    return sorted(patterns.values()) + sorted(interior[c] for c in chosen)


def recompute(records: List[dict], indices: List[int], model, level: float) -> None:
    for i in indices:
        r = records[i]
        if "error" in r:
            continue
        ref = simplexci.point_test(model, np.asarray(r["w"]), level)
        where = f"record {i} at w={r['w']}"
        _require(r["d"] == ref.zeros and r["k"] == ref.dof, f"{where}: d/k differ from point_test")
        _require(r["member"] == ref.member, f"{where}: member differs from point_test")
        _require(abs(r["T"] - ref.statistic) <= T_RTOL * max(1.0, abs(ref.statistic)),
                 f"{where}: T={r['T']!r} vs point_test {ref.statistic!r}")


def _intervals(records: List[dict], K: int) -> List[dict]:
    members = np.array([r["w"] for r in records if r["member"]], dtype=float).reshape(-1, K)
    out = []
    for j in range(K):
        if members.shape[0]:
            out.append({"coordinate": j + 1, "lower": float(members[:, j].min()),
                        "upper": float(members[:, j].max()), "empty": False})
        else:
            out.append({"coordinate": j + 1, "lower": None, "upper": None, "empty": True})
    return out


def check(workload, output: bytes, csv_path: Optional[str], seed: int) -> dict:
    """Run every check for ``workload``; return the exact counts it saw."""
    doc = json.loads(output)
    _require(doc.get("schema_version") == 1, "schema_version is not 1")
    if workload.command == "simulate":
        return _check_simulate(workload, doc, seed)
    panel, model = build_model(workload, csv_path, seed)
    K, level = workload.K, workload.level
    _require(doc["K"] == K and doc["n"] == model.n, "K or n differ from the input")
    if workload.command == "infer":
        records = doc["records"]
    else:
        cs = simplexci.confidence_set(model, level, workload.grid)
        records = [_record_of(t) for t in cs.records]
    check_records(records, K, level, workload.items)
    rng = np.random.default_rng([seed, 7])
    indices = sample_indices(records, rng)
    recompute(records, indices, model, level)

    intervals = _intervals(records, K)
    if workload.command == "project":
        _require(doc["intervals"] == intervals, "projection intervals differ from the records")
    elif workload.command == "bonferroni":
        ws = doc["weight_set"]
        _require(ws["projection_intervals"] == intervals, "projection intervals differ")
        _require(ws["grid_size"] == len(records), "grid_size differs")
        _require(ws["members"] == sum(r["member"] for r in records), "member count differs")
        _check_theta(workload, doc["theta_interval"], records, panel, model.n)
    return {
        "lattice_points": len(records),
        "boundary_points": sum(any(x == 0.0 for x in r["w"]) for r in records),
        "members": sum(bool(r["member"]) for r in records),
        "recomputed_points": len(indices),
    }


def _check_theta(workload, got: dict, records: List[dict], panel, n: int) -> None:
    theta_hat, v_hat = simplexci.treatment_functional(panel, workload.post)
    z = simplexci.normal_quantile(1.0 - (ALPHA - KAPPA) / 2.0)
    members = [np.asarray(r["w"]) for r in records if r["member"]]
    if not members:
        _require(got["empty"], "theta interval should be empty")
        return
    centre = np.array([theta_hat(w) for w in members])
    half = z * np.array([v_hat(w) for w in members]) / math.sqrt(n)
    lower, upper = float((centre - half).min()), float((centre + half).max())
    for name, want in (("lower", lower), ("upper", upper)):
        _require(abs(got[name] - want) <= 1e-12 * max(1.0, abs(want)),
                 f"theta interval {name} {got[name]!r} vs {want!r}")


def _check_simulate(workload, doc: dict, seed: int) -> dict:
    spec = simplexci.McSpec(K=workload.K, n_j=workload.nj, design="boundary",
                            reps=workload.reps, seed=seed, alpha=ALPHA)
    _require(doc["reps"] == workload.reps and doc["seed"] == seed, "reps or seed differ")
    _require(doc["w0"] == [float(x) for x in spec.w0], "w0 differs from the design")
    # Coverage within five standard errors of the nominal level; a shared
    # defect of the CLI and the scalar path below would show here.
    floor = 1.0 - ALPHA - 5.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / workload.reps)
    _require(floor <= doc["coverage"] <= 1.0, f"implausible coverage {doc['coverage']}")

    # Recount every replication with the scalar point_test; a numerical
    # failure counts as a failure and against coverage, as in the library.
    children = np.random.SeedSequence(seed).spawn(workload.reps + 1)
    covered = failures = 0
    for rep in range(workload.reps):
        panel = simplexci.generate_panel(spec, children[0], children[rep + 1])
        comps = simplexci.quadratic_components(panel)
        model = simplexci.make_weight_model(comps, simplexci.influence_set(panel, comps))
        try:
            covered += int(simplexci.point_test(model, spec.w0, ALPHA).member)
        except (simplexci.IllConditionedError, simplexci.ConvergenceError):
            failures += 1
    _require(doc["coverage"] == covered / workload.reps,
             f"coverage {doc['coverage']!r} vs recount {covered}/{workload.reps}")
    _require(doc["failures"] == failures, f"failures {doc['failures']} vs recount {failures}")
    return {"replications": workload.reps, "covered": covered, "failures": failures}
