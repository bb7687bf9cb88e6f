"""End-to-end tests of the command-line front end."""

import csv
import dataclasses
import errno
import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from simplexci import cli, geometry, montecarlo
from simplexci.cli import RunConfig, _panel_rows, build_parser, main, read_panel_csv, resolve_config
from simplexci.exceptions import DataError
from simplexci.estimators import (
    PanelData,
    bootstrap_variance,
    influence_set,
    make_weight_model,
    quadratic_components,
    treatment_functional,
)
from simplexci.inference import (
    bonferroni_interval,
    confidence_set,
    projection_interval,
    simplex_grid,
)

from oracles import panel_columns_csv_reader


def make_fixture(tmp_path, seed=0, K=3, n_j=12, total_T=5, name="panel.csv"):
    """CSV panel whose treated path is a fixed convex mix of donor paths."""
    rng = np.random.default_rng(seed)
    mu = 1.0 + rng.standard_normal((K, total_T))
    w_star = np.zeros(K)
    w_star[0] = 0.25
    w_star[1] = 0.5
    w_star[2:] = 0.25 / max(K - 2, 1)
    means = np.vstack([w_star @ mu, mu])
    rows = ["unit,group,time,outcome"]
    for g in range(K + 1):
        for i in range(n_j):
            for t in range(1, total_T + 1):
                y = float(means[g, t - 1] + 0.4 * rng.standard_normal())
                rows.append(f"g{g}u{i},{g},{t},{y!r}")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def library_sweep(path, level=0.05, grid=4, t_match=None):
    panel = read_panel_csv(str(path), t_match=t_match)
    comps = quadratic_components(panel)
    infl = influence_set(panel, comps)
    model = make_weight_model(comps, infl)
    return panel, model, confidence_set(model, level, grid)


def test_infer_json_matches_library(tmp_path, capsys):
    path = make_fixture(tmp_path)
    rc = main(["infer", str(path), "--grid", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "infer"
    assert doc["alpha"] == 0.05
    assert doc["resolution"] == 4
    _, model, cs = library_sweep(path)
    assert len(doc["records"]) == len(cs.records)
    for got, want in zip(doc["records"], cs.records):
        assert got["w"] == [float(x) for x in want.w]
        assert got["T"] == want.statistic
        assert got["d"] == want.zeros
        assert got["k"] == want.dof
        assert got["critical"] == want.critical
        assert got["member"] is bool(want.member)
    # the data were built around w = (0.25, 0.5, 0.25); it must survive the test
    members = [tuple(r["w"]) for r in doc["records"] if r["member"]]
    assert (0.25, 0.5, 0.25) in members


def test_infer_csv_round_trips_floats(tmp_path):
    path = make_fixture(tmp_path, seed=1)
    out = tmp_path / "records.csv"
    rc = main(["infer", str(path), "--grid", "4", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "w_1,w_2,w_3,T,d,k,critical,member"
    _, model, cs = library_sweep(path)
    assert len(lines) == 1 + len(cs.records)
    for line, want in zip(lines[1:], cs.records):
        cells = line.split(",")
        assert [float(c) for c in cells[:3]] == [float(x) for x in want.w]
        assert float(cells[3]) == want.statistic  # 17 significant digits
        assert int(cells[4]) == want.zeros
        assert int(cells[5]) == want.dof
        assert float(cells[6]) == want.critical
        assert cells[7] == ("true" if want.member else "false")


def skipping_cap(path, monkeypatch):
    """The plug-in model of ``path``, with the condition cap set so that the
    sweep of its grid-4 lattice skips some points and keeps others."""
    _, model, _ = library_sweep(path)
    _, omegas = model.evaluate(simplex_grid(3, 4))
    eigs = np.linalg.eigvalsh(omegas)
    conds = eigs[:, -1] / eigs[:, 0]
    monkeypatch.setattr(geometry, "_COND_CAP", 0.5 * (conds.min() + conds.max()))
    return model


def test_infer_reports_skipped_points_in_both_formats(tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=4)
    model = skipping_cap(path, monkeypatch)
    with pytest.warns(RuntimeWarning):
        cs = confidence_set(model, 0.05, 4)
    errors = [r.error is not None for r in cs.records]
    assert any(errors) and not all(errors)

    with pytest.warns(RuntimeWarning):
        assert main(["infer", str(path), "--grid", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == len(cs.records)
    for got, want in zip(doc["records"], cs.records):
        assert got["w"] == [float(x) for x in want.w]
        assert (got["d"], got["k"], got["member"]) == (want.zeros, want.dof, want.member)
        if want.error is None:
            assert "error" not in got
            assert (got["T"], got["critical"]) == (want.statistic, want.critical)
        else:
            assert got["error"] == want.error
            assert got["T"] is None and got["critical"] is None

    out = tmp_path / "records.csv"
    with pytest.warns(RuntimeWarning):
        assert main(["infer", str(path), "--grid", "4", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(cs.records)
    for line, want in zip(lines[1:], cs.records):
        cells = line.split(",")
        assert [float(c) for c in cells[:3]] == [float(x) for x in want.w]
        assert cells[4:6] == [str(want.zeros), str(want.dof)]
        assert cells[7] == ("true" if want.member else "false")
        if want.error is None:
            assert (float(cells[3]), float(cells[6])) == (want.statistic, want.critical)
        else:
            assert (cells[3], cells[6]) == ("inf", "nan")


def reference_value(x):
    """``x``, or None for a non-finite float, as the documents hold it."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def reference_cell(x):
    """One CSV cell: empty for None, ``true``/``false``, 17 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def reference_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_csv(lines):
    return "\n".join(",".join(map(reference_cell, line)) for line in lines) + "\n"


def reference_infer_json(header, cs):
    """The ``infer`` document built as one dict per lattice point and written
    by ``json.dumps``: the construction the records writer replaced."""
    keys = ("T", "d", "k", "critical", "member")
    columns = (cs.statistic, cs.zeros, cs.dof, cs.critical, cs.member_mask)
    records = [
        dict(zip(keys, map(reference_value, values)), w=w)
        for w, values in zip(cs.grid.tolist(), zip(*(column.tolist() for column in columns)))
    ]
    for i, message in cs.errors.items():
        records[i]["error"] = message
    return reference_json({**header, "records": records})


def reference_infer_csv(cs):
    """The ``infer`` CSV written one cell at a time."""
    K = cs.grid.shape[1]
    lines = [[f"w_{j + 1}" for j in range(K)] + ["T", "d", "k", "critical", "member"]]
    columns = (cs.statistic, cs.zeros, cs.dof, cs.critical, cs.member_mask)
    for w, values in zip(cs.grid.tolist(), zip(*(column.tolist() for column in columns))):
        lines.append([*w, *values])
    return reference_csv(lines)


def reference_interval(interval):
    """An interval as the documents hold it: null bounds when it is empty."""
    return {
        "lower": None if interval.empty else reference_value(interval.lower),
        "upper": None if interval.empty else reference_value(interval.upper),
        "empty": interval.empty,
    }


def reference_intervals(cs):
    return [
        {"coordinate": j + 1, **reference_interval(projection_interval(cs, j))}
        for j in range(cs.grid.shape[1])
    ]


def reference_project(fmt, seen):
    intervals = reference_intervals(seen["confidence_set"])
    if fmt == "json":
        return reference_json({**seen["_sweep_doc"], "intervals": intervals})
    rows = [[item[key] for key in ("coordinate", "lower", "upper", "empty")] for item in intervals]
    return reference_csv([["coordinate", "lower", "upper", "empty"], *rows])


def reference_bonferroni(fmt, seen, cfg):
    cs = seen["confidence_set"]
    intervals = reference_intervals(cs)
    theta = reference_interval(seen["bonferroni_interval"])
    if fmt == "json":
        return reference_json({
            **seen["_sweep_doc"],
            "kappa": cfg["kappa"],
            "post_period": cfg["post"],
            "theta_interval": theta,
            "weight_set": {
                "grid_size": int(cs.grid.shape[0]),
                "members": int(cs.member_mask.sum()),
                "projection_intervals": intervals,
            },
        })
    bounds = ("lower", "upper", "empty")
    rows = [["theta", *(theta[key] for key in bounds)]]
    rows += [[f"w_{item['coordinate']}", *(item[key] for key in bounds)] for item in intervals]
    return reference_csv([["quantity", *bounds], *rows])


def reference_keyvalue(doc, prefix=""):
    """``key,value`` rows of a document: dotted keys in sorted order, with
    list positions as keys."""
    rows = []
    for key in sorted(doc):
        value, name = doc[key], f"{prefix}{key}"
        if isinstance(value, dict):
            rows += reference_keyvalue(value, f"{name}.")
        elif isinstance(value, list):
            rows += [[f"{name}.{i}", item] for i, item in enumerate(value)]
        else:
            rows.append([name, value])
    return rows


def reference_simulate(fmt, seen):
    doc = {"schema_version": 1, "command": "simulate",
           **seen["coverage_experiment"].to_dict()}
    if fmt == "json":
        return reference_json(doc)
    return reference_csv([["key", "value"], *reference_keyvalue(doc)])


def assert_bytes_match_the_reference(argv, names, reference, tmp_path, capsys, monkeypatch):
    """Run ``argv`` in both formats, to stdout and to ``--out``, and compare
    every output with ``reference(fmt, seen)``, where ``seen`` maps each of
    the ``cli`` functions ``names`` to what it returned in that run (a copy,
    for a dict)."""
    seen = {}
    for name in names:
        def recorded(*args, _inner=getattr(cli, name), _name=name, **kwargs):
            result = _inner(*args, **kwargs)
            seen[_name] = dict(result) if isinstance(result, dict) else result
            return result
        monkeypatch.setattr(cli, name, recorded)
    out = tmp_path / "out.txt"
    for fmt in ("json", "csv"):
        for target in ([], ["--out", str(out)]):
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert main([*argv, "--format", fmt, *target]) == 0
            got = out.read_bytes() if target else capsys.readouterr().out.encode("utf-8")
            assert got == reference(fmt, seen).encode("utf-8")
    return seen


def assert_infer_bytes_match_the_reference(argv, tmp_path, capsys, monkeypatch):
    """``assert_bytes_match_the_reference`` for ``infer``; returns the sweep."""
    def reference(fmt, seen):
        if fmt == "json":
            return reference_infer_json(seen["_sweep_doc"], seen["confidence_set"])
        return reference_infer_csv(seen["confidence_set"])

    seen = assert_bytes_match_the_reference(
        ["infer", *argv], ("confidence_set", "_sweep_doc"), reference,
        tmp_path, capsys, monkeypatch,
    )
    return seen["confidence_set"]


@pytest.mark.parametrize("seed", [1, 2])
def test_infer_writes_the_json_dumps_bytes_on_the_benchmark_input(
    seed, tmp_path, capsys, monkeypatch
):
    inputs = load_bench_module("inputs")
    workloads = load_bench_module("workloads")
    workload = workloads.WORKLOADS["infer-k3"]
    path, _ = inputs.write_panel(workload.panel, seed, str(tmp_path))
    argv = workload.argv(path, seed)[1:]
    cs = assert_infer_bytes_match_the_reference(argv, tmp_path, capsys, monkeypatch)
    assert len(cs.statistic) == workload.items and cs.member_mask.any()


@pytest.mark.parametrize(
    "K, options",
    [
        (2, ["--grid", "4"]),
        (3, ["--grid", "1"]),
        # the header gains bootstrap_draws and seed, on both sides of records
        (3, ["--grid", "4", "--variance", "bootstrap", "--bootstrap-draws", "100",
             "--seed", "3"]),
        # coordinates such as 3/7 print 17 digits, which rint(grid * 7) must
        # map back to their lattice counts exactly
        (5, ["--grid", "7"]),
    ],
    ids=["K2", "grid1", "bootstrap", "K5grid7"],
)
def test_infer_writes_the_json_dumps_bytes(K, options, tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=7, K=K)
    assert_infer_bytes_match_the_reference([str(path), *options], tmp_path, capsys, monkeypatch)


def test_infer_json_peak_memory_is_a_few_times_its_output(tmp_path, monkeypatch):
    # one join over a flat list of the cells; the per-record strings, their
    # ",\n" join and two more concatenated copies held 3.01 times the output
    inputs = load_bench_module("inputs")
    workload = load_bench_module("workloads").WORKLOADS["infer-k3"]
    path, _ = inputs.write_panel(workload.panel, 1, str(tmp_path))
    write, seen = cli._infer_json, []
    monkeypatch.setattr(cli, "_infer_json", lambda *args: seen.append(args) or "")
    assert main(workload.argv(path, 1)) == 0
    size = len(write(*seen[0]))
    assert size > 900_000 and traced_peak(write, *seen[0]) <= 2.75 * size  # 2.43 times now


def test_infer_csv_peak_memory_is_a_few_times_its_output(tmp_path, monkeypatch):
    # one join over a lazy chain of the lines; materialising [header, *rows]
    # and appending the last newline held 3.94 times the output
    inputs = load_bench_module("inputs")
    workload = load_bench_module("workloads").WORKLOADS["infer-k3"]
    path, _ = inputs.write_panel(workload.panel, 1, str(tmp_path))
    write, seen = cli._infer_csv, []
    monkeypatch.setattr(cli, "_infer_csv", lambda *args: seen.append(args) or "")
    assert main([*workload.argv(path, 1), "--format", "csv"]) == 0
    size = len(write(*seen[0]))
    assert size > 450_000 and traced_peak(write, *seen[0]) <= 3.75 * size  # 3.51 times now


def test_infer_writes_the_json_dumps_bytes_of_skipped_points(tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=4)
    skipping_cap(path, monkeypatch)
    cs = assert_infer_bytes_match_the_reference(
        [str(path), "--grid", "4"], tmp_path, capsys, monkeypatch
    )
    assert cs.errors and len(cs.errors) < len(cs.statistic)


def test_infer_escapes_error_messages_as_json_dumps_does(tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=5)
    message = 'cov at "w": C:\\tmp\\x\nsecond line, \u00e9t\u00e9 \u2603'

    def skip_some(*args, **kwargs):
        cs = confidence_set(*args, **kwargs)
        skipped = [0, 4, len(cs.statistic) - 1]
        columns = {name: getattr(cs, name).copy()
                   for name in ("statistic", "zeros", "dof", "critical", "member_mask")}
        columns["statistic"][skipped] = math.inf
        columns["zeros"][skipped] = 0
        columns["dof"][skipped] = cs.grid.shape[1] - 1
        columns["critical"][skipped] = math.nan
        columns["member_mask"][skipped] = False
        return dataclasses.replace(cs, **columns, errors=dict.fromkeys(skipped, message))

    monkeypatch.setattr(cli, "confidence_set", skip_some)
    assert_infer_bytes_match_the_reference(
        [str(path), "--grid", "4"], tmp_path, capsys, monkeypatch
    )
    main(["infer", str(path), "--grid", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][4]["error"] == message


def emptied(sweep):
    """``sweep`` with every member dropped, so every interval is empty."""
    def without_members(*args, **kwargs):
        cs = sweep(*args, **kwargs)
        return dataclasses.replace(cs, member_mask=np.zeros_like(cs.member_mask))
    return without_members


BOOTSTRAP = ["--variance", "bootstrap", "--bootstrap-draws", "100", "--seed", "3"]


@pytest.mark.parametrize(
    "K, options, empty",
    [(3, [], False), (4, BOOTSTRAP, False), (3, [], True)],
    ids=["plugin", "bootstrap", "empty"],
)
def test_project_writes_the_reference_bytes(K, options, empty, tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=8, K=K)
    if empty:
        monkeypatch.setattr(cli, "confidence_set", emptied(confidence_set))
    seen = assert_bytes_match_the_reference(
        ["project", str(path), "--grid", "5", *options], ("confidence_set", "_sweep_doc"),
        reference_project, tmp_path, capsys, monkeypatch,
    )
    assert seen["confidence_set"].member_mask.any() is not empty
    if empty:
        main(["project", str(path), "--grid", "5"])
        intervals = json.loads(capsys.readouterr().out)["intervals"]
        assert all(i["lower"] is i["upper"] is None and i["empty"] for i in intervals)


@pytest.mark.parametrize(
    "K, options, empty",
    [(3, [], False), (4, BOOTSTRAP, False), (3, [], True)],
    ids=["plugin", "bootstrap", "empty"],
)
def test_bonferroni_writes_the_reference_bytes(K, options, empty, tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=3, K=K, total_T=6)
    if empty:
        monkeypatch.setattr(cli, "confidence_set", emptied(confidence_set))
    cfg = {"kappa": 0.01, "post": 6}
    seen = assert_bytes_match_the_reference(
        ["bonferroni", str(path), "--grid", "5", "--post", "6", "--kappa", "0.01", *options],
        ("confidence_set", "_sweep_doc", "bonferroni_interval"),
        functools.partial(reference_bonferroni, cfg=cfg), tmp_path, capsys, monkeypatch,
    )
    assert seen["bonferroni_interval"].empty is empty


@pytest.mark.parametrize(
    "options, empty",
    [([], False), (["--projection"], False), (["--projection"], True)],
    ids=["plain", "projection", "projection-empty"],
)
def test_simulate_writes_the_reference_bytes(options, empty, tmp_path, capsys, monkeypatch):
    if empty:
        monkeypatch.setattr(
            "simplexci.montecarlo.confidence_set", emptied(montecarlo.confidence_set)
        )
    seen = assert_bytes_match_the_reference(
        ["simulate", "--K", "3", "--nj", "10", "--reps", "3", "--seed", "7", "--grid", "6",
         *options],
        ("coverage_experiment",), reference_simulate, tmp_path, capsys, monkeypatch,
    )
    report = seen["coverage_experiment"]
    if empty:
        assert report.mean_lengths == [None] * 3 and report.empty_rate == 1.0


@pytest.mark.parametrize("target", ["directory", "missing/dir/x.json"])
def test_unwritable_out_is_a_validation_error(target, tmp_path, capsys, monkeypatch):
    path = make_fixture(tmp_path, seed=1)
    out = tmp_path / target
    if target == "directory":
        out.mkdir()

    def compute(*args, **kwargs):
        raise AssertionError("the computation ran before --out was checked")

    # the path is checked before the input is read or the simulation runs
    monkeypatch.setattr(cli, "read_panel_csv", compute)
    monkeypatch.setattr(cli, "coverage_experiment", compute)
    for argv in (["project", str(path), "--grid", "4"], ["simulate", "--reps", "2"]):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: [Errno ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_failed_write_exits_1_after_the_computation(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=1)
    assert main(["project", str(path), "--grid", "4", "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write /dev/full: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    )


def test_project_matches_library_in_both_formats(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=2)
    _, model, cs = library_sweep(path)
    expected = [projection_interval(cs, j) for j in range(model.K)]

    rc = main(["project", str(path), "--grid", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    for j, item in enumerate(doc["intervals"]):
        assert item["coordinate"] == j + 1
        assert item["lower"] == expected[j].lower
        assert item["upper"] == expected[j].upper
        assert item["empty"] is expected[j].empty

    out = tmp_path / "intervals.csv"
    rc = main(["project", str(path), "--grid", "4", "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "coordinate,lower,upper,empty"
    for j, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == j + 1
        assert float(cells[1]) == expected[j].lower
        assert float(cells[2]) == expected[j].upper


def test_bonferroni_matches_library(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=3, total_T=6)
    rc = main([
        "bonferroni", str(path), "--post", "6", "--grid", "4",
        "--alpha", "0.05", "--kappa", "0.005",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    panel, model, cs = library_sweep(path, level=0.005, t_match=5)
    theta_hat, v_hat = treatment_functional(panel, 6)
    want = bonferroni_interval(cs, theta_hat, v_hat, model.n, alpha=0.05)
    assert doc["theta_interval"]["lower"] == want.lower
    assert doc["theta_interval"]["upper"] == want.upper
    assert doc["theta_interval"]["empty"] is want.empty
    assert doc["alpha"] == 0.05
    assert doc["kappa"] == 0.005
    assert doc["post_period"] == 6
    assert doc["weight_set"]["members"] == int(cs.member_mask.sum())


@pytest.mark.parametrize("options", [[], BOOTSTRAP], ids=["plugin", "bootstrap"])
def test_bonferroni_at_one_matching_period_matches_library(options, tmp_path, capsys):
    # --post 2 leaves one period to match on, where the bootstrap lays out
    # its resampled rows draw by draw
    path = make_fixture(tmp_path, seed=3, total_T=2)
    assert main(["bonferroni", str(path), "--post", "2", "--grid", "4", *options]) == 0
    doc = json.loads(capsys.readouterr().out)
    panel = read_panel_csv(str(path), t_match=1)
    comps = quadratic_components(panel)
    infl = influence_set(panel, comps)
    w_hat = geometry.solve_simplex_qp(comps.H, comps.h)
    if options:
        v_star = bootstrap_variance(panel, w_hat, 100, 3)
        model = make_weight_model(comps, infl, mode="fixed", v_fixed=v_star)
    else:
        model = make_weight_model(comps, infl)
    cs = confidence_set(model, 0.005, 4)
    theta_hat, v_hat = treatment_functional(panel, 2)
    want = bonferroni_interval(cs, theta_hat, v_hat, model.n, alpha=0.05)
    assert doc["w_hat"] == w_hat.tolist()
    assert doc["theta_interval"] == {"lower": want.lower, "upper": want.upper, "empty": False}
    assert doc["weight_set"]["members"] == int(cs.member_mask.sum()) > 0
    for item, j in zip(doc["weight_set"]["projection_intervals"], range(model.K)):
        interval = projection_interval(cs, j)
        assert (item["lower"], item["upper"]) == (interval.lower, interval.upper)


def test_bonferroni_csv_rows_match_the_json_document(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=3, total_T=6)
    args = ["bonferroni", str(path), "--post", "6", "--grid", "4"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,lower,upper,empty"
    intervals = doc["weight_set"]["projection_intervals"]
    want = [("theta", doc["theta_interval"])]
    want += [(f"w_{item['coordinate']}", item) for item in intervals]
    assert len(lines) == 1 + len(want) == 2 + doc["K"]
    for line, (label, item) in zip(lines[1:], want):
        cells = line.split(",")
        assert cells[0] == label
        for cell, key in zip(cells[1:3], ("lower", "upper")):
            assert (None if cell == "" else float(cell)) == item[key]
        assert cells[3] == ("true" if item["empty"] else "false")


def test_malformed_csv_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "unit,group,time,outcome\na,0,1,1.0\na,0,2,not-a-number\n", encoding="utf-8"
    )
    rc = main(["infer", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "not-a-number" in err

    missing = tmp_path / "cols.csv"
    missing.write_text("unit,group,period,outcome\na,0,1,1.0\n", encoding="utf-8")
    assert main(["infer", str(missing)]) == 1
    assert "header must be exactly" in capsys.readouterr().err

    assert main(["infer", str(tmp_path / "nope.csv")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_csv_row_with_extra_fields_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "wide.csv"
    bad.write_text(
        "unit,group,time,outcome\na,0,1,1.0\na,0,2,1.0,EXTRA\n", encoding="utf-8"
    )
    assert main(["infer", str(bad)]) == 1
    assert "row 3 has too many fields" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_csv_non_finite_outcome_names_its_row(tmp_path, capsys, cell):
    bad = tmp_path / "nonfinite.csv"
    bad.write_text(
        f"unit,group,time,outcome\na,0,1,1.0\na,0,2,{cell}\n", encoding="utf-8"
    )
    assert main(["infer", str(bad)]) == 1
    assert f"row 3: outcome '{cell}' is not a finite number" in capsys.readouterr().err


def test_csv_with_a_byte_order_mark_reads_the_same_panel(tmp_path):
    plain = make_fixture(tmp_path)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = read_panel_csv(str(plain)), read_panel_csv(str(marked))
    for column in ("unit", "group", "time", "outcome"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
    assert got.t_match == want.t_match


HEADER = "unit,group,time,outcome\n"
# four units in two groups at periods 1 and 2
GOOD = "".join(f"{u},{g},{t},{g + t}.5\n" for u, g in zip("abcd", (0, 0, 1, 1)) for t in (1, 2))

# (case, file text, message after "error: ", with {path} for the file)
MALFORMED = [
    ("empty file", "", "{path}: file is empty"),
    ("header only", HEADER, "{path}: no data rows"),
    ("missing column", "unit,group,outcome\na,0,1.0\n",
     "{path}: header must be exactly unit,group,time,outcome; missing ['time']"),
    ("extra column", "unit,group,time,outcome,w\na,0,1,1.0,2\n",
     "{path}: header must be exactly unit,group,time,outcome; unexpected ['w']"),
    ("duplicate column", "unit,group,time,outcome,unit\na,0,1,1.0\n",
     "{path}: header must be exactly unit,group,time,outcome; repeated ['unit']"),
    ("repeated column", "unit,group,time,outcome,outcome\n" + GOOD.replace(".5\n", ".5,1.0\n"),
     "{path}: header must be exactly unit,group,time,outcome; repeated ['outcome']"),
    ("blank header", "\n" + HEADER + GOOD,
     "{path}: header must be exactly unit,group,time,outcome; "
     "missing ['unit', 'group', 'time', 'outcome']"),
    ("short row", HEADER + GOOD + "e,1,1\n", "{path}: row 10 has too few fields"),
    ("long row", HEADER + "a,0,1,1.0,x\n" + GOOD, "{path}: row 2 has too many fields"),
    ("empty unit", HEADER + GOOD + ",1,1,1.0\n", "{path}: row 10: empty unit label"),
    ("blank unit", HEADER + GOOD + "  ,1,1,1.0\n", "{path}: row 10: empty unit label"),
    ("float group", HEADER + "a,3.0,1,1.0\n" + GOOD,
     "{path}: row 2: group '3.0' is not an integer"),
    ("float time", HEADER + GOOD + "e,1, 3.0,1.0\n",
     "{path}: row 10: time ' 3.0' is not an integer"),
    ("int() syntax", HEADER + GOOD.replace("c,1,1", "c,+1, 1").replace("d,1,2", "d,0_1,2")
     + "e,1,1_000,1.0\n",
     "panel is unbalanced: 4991 missing unit-period cell(s) over matching periods 1..1000"),
    ("nan outcome", HEADER + GOOD + "e,1,1,nan\n",
     "{path}: row 10: outcome 'nan' is not a finite number"),
    ("inf outcome", HEADER + GOOD + "e,1,1,inf\n",
     "{path}: row 10: outcome 'inf' is not a finite number"),
    ("overflowing outcome", HEADER + GOOD + "e,1,1,1e400\n",
     "{path}: row 10: outcome '1e400' is not a finite number"),
    ("text outcome", HEADER + GOOD + "e,1,1,abc\n",
     "{path}: row 10: outcome 'abc' is not a number"),
    ("huge group", HEADER + GOOD + "e,99999999999999999999,1,1.0\n",
     "{path}: row 10: group '99999999999999999999' is out of range"),
    ("huge time", HEADER + GOOD + "e,1,-9223372036854775809,1.0\n",
     "{path}: row 10: time '-9223372036854775809' is out of range"),
    ("largest time", HEADER + GOOD + "e,1,9223372036854775807,1.0\n",
     f"panel is unbalanced: {5 * (2**63 - 1) - 9} missing unit-period cell(s) over "
     f"matching periods 1..{2**63 - 1}"),
    ("duplicate pair", HEADER + "b,0,1,1.0\na,0,1,1.0\nb,0,1,9.0\n" + GOOD,
     "duplicate observation for unit 'b' at period 1"),
    ("unit in two groups", HEADER + GOOD + "b,1,3,1.0\na,1,3,1.0\n",
     "unit 'b' appears in groups 0 and 1"),
    ("duplicate before group", HEADER + GOOD + "a,1,3,1.0\nd,1,2,1.0\n",
     "duplicate observation for unit 'd' at period 2"),
    ("one-unit group", HEADER + GOOD + "e,2,1,1.0\ne,2,2,1.0\n",
     "group 2 has 1 unit(s); each group needs at least 2"),
    ("group before balance", HEADER + GOOD + "e,2,1,1.0\n",
     "group 2 has 1 unit(s); each group needs at least 2"),
    ("gap in groups", HEADER + GOOD.replace("c,1,", "c,2,").replace("d,1,", "d,2,"),
     "groups must form a contiguous range 0..K, found [0, 2]"),
    ("negative group", HEADER + GOOD + "e,-1,1,1.0\n",
     "groups must form a contiguous range 0..K, found [-1, 0, 1]"),
    ("largest group", HEADER + GOOD + "e,9223372036854775807,1,1.0\n",
     "groups must form a contiguous range 0..K, found [0, 1, 9223372036854775807]"),
    ("unbalanced", HEADER + GOOD.replace("d,1,2,3.5\n", ""),
     "panel is unbalanced: 1 missing unit-period cell(s) over matching periods 1..2"),
    ("blank lines", HEADER + "\n\na,0,1,xx\n", "{path}: row 4: outcome 'xx' is not a number"),
    ("blank lines between rows", HEADER + GOOD + "\n \n",
     "{path}: row 11 has too few fields"),
    ("quoted label", HEADER + GOOD + '"e,#1",1,1,1.0\n"e,#1",1,1,2.0\n',
     "duplicate observation for unit 'e,#1' at period 1"),
    ("quoted line break", HEADER + '"a\nb",0,1,1.0\n' + GOOD + "e,x,1,1.0\n",
     "{path}: row 12: group 'x' is not an integer"),
    ("byte-order mark", "\ufeff" + HEADER + GOOD + "e,1,1,zz\n",
     "{path}: row 10: outcome 'zz' is not a number"),
    # a numpy string drops trailing NULs, which would merge 'c\x00' into 'c'
    ("NUL in a unit label", HEADER + GOOD.replace("c,1,1,", "c\x00,1,1,"),
     "{path}: row 6: holds a NUL character (0x00)"),
    # a NUL anywhere is refused first, before an earlier malformed row
    ("NUL after a bad row", HEADER + "a,0,1,xx\r\n\r\nb,0,\x001,1.0\n",
     "{path}: row 4: holds a NUL character (0x00)"),
]


def panel_rows(path):
    """``_panel_rows`` on the file's decoded text."""
    return _panel_rows(str(path), cli._read_text(str(path)))


def row_loop_panel(path):
    return PanelData.from_long(*panel_rows(path))


def row_loop_error(path):
    """The message of the row loop followed by the panel checks."""
    try:
        row_loop_panel(path)
    except Exception as exc:
        return exc
    raise AssertionError(f"{path} was read without an error")


@pytest.mark.parametrize("case, text, message", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_csv_gets_the_row_loop_message(tmp_path, capsys, case, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    want = message.format(path=path)
    assert main(["infer", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    exc = row_loop_error(path)
    assert isinstance(exc, DataError) and str(exc) == want


def load_bench_module(name):
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        return __import__(name)
    finally:
        sys.path.remove(bench)


def assert_same_panel(got, want):
    for column in ("unit", "group", "time", "outcome"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
    for a, b in zip(got._matched, want._matched):
        assert np.array_equal(a, b)


def refuse_row_loop(path, text):
    raise AssertionError("the row loop ran on a well-formed plain-ASCII file")


@pytest.mark.parametrize("name", ["infer-k3", "project-k6-boundary", "bonferroni-large-n"])
def test_benchmark_csv_takes_the_c_reader(tmp_path, monkeypatch, name):
    inputs = load_bench_module("inputs")
    workload = load_bench_module("workloads").WORKLOADS[name]
    t_match = workload.post - 1 if workload.post else None
    path = tmp_path / "panel.csv"
    path.write_bytes(inputs.panel_csv_bytes(workload.panel, seed=1))
    want = PanelData.from_long(*panel_rows(path), t_match=t_match)
    monkeypatch.setattr(cli, "_panel_rows", refuse_row_loop)
    assert_same_panel(read_panel_csv(str(path), t_match=t_match), want)


# four unit labels each, of groups 0, 0, 1 and 1: labels of 15 to 200
# characters, padded, with equal prefixes and of mixed lengths
LABEL_CASES = {
    "15 to 40 characters": ["x" * 15, "x" * 16, "x" * 17, "x" * 40],
    "a prefix of 16 characters": ["p" * 16 + "b", "p" * 16 + "a", "p" * 16, "p" * 17],
    "one far longer": ["y" * 200, "a", "b", "c"],
    "padded": [" a", "b\t", "\x0bc\x0c", " \t\x0b\x0cd \x0c"],
    "padded by \\v and \\f alone": ["\x0ba", "b\x0c", "\x0cc\x0b", "d"],
    "padded past 16 characters": [" " * 14 + "ab", "cd" + "\t" * 20, "\x0b" * 16 + "a", "b"],
    "inner spaces": ["New York", "a b", "c\td", "e"],
    "equal prefixes": ["unit10", "unit1", "unit1000", "unit100"],
    "mixed lengths": ["q", "a" * 30, "zz", "m" * 16],
}
# the unit column's place, the line end, and blank lines (one inside, one at
# the end) or no last line end: the C reader sizes the label column from these
LABEL_LAYOUTS = {
    "unit first": (("unit", "group", "time", "outcome"), "\n", False),
    "unit second, CRLF, blank lines": (("group", "unit", "time", "outcome"), "\r\n", True),
    "unit third, CR": (("group", "time", "unit", "outcome"), "\r", False),
    "unit last, blank lines": (("outcome", "time", "group", "unit"), "\n", True),
}


@pytest.mark.parametrize("layout", list(LABEL_LAYOUTS))
@pytest.mark.parametrize("case", list(LABEL_CASES))
def test_c_reader_labels_give_the_row_loop_panel(tmp_path, monkeypatch, case, layout):
    path = tmp_path / "panel.csv"
    labels = LABEL_CASES[case]
    columns, end, blank = LABEL_LAYOUTS[layout]
    rows = [",".join(dict(unit=u, group=str(g), time=str(t), outcome=f"{g + t}.5")[c]
                     for c in columns)
            for u, g in zip(labels, (0, 0, 1, 1)) for t in (1, 2)]
    lines = [",".join(columns)] + (rows[:3] + [""] + rows[3:] + ["", ""] if blank else rows)
    path.write_bytes(end.join(lines).encode("ascii"))
    want = row_loop_panel(path)
    monkeypatch.setattr(cli, "_panel_rows", refuse_row_loop)
    got = read_panel_csv(str(path))
    assert_same_panel(got, want)  # the pivot's unit order included
    assert got.unit.tolist() == [u.strip() for u in labels for _ in "12"]
    assert got.unit.dtype == np.dtype(f"U{max(len(u.strip()) for u in labels)}")


def traced_peak(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_panel_file(tmp_path, prefix=b""):
    """A 22k-row bench-generator panel file, each unit label led by ``prefix``."""
    inputs = load_bench_module("inputs")
    spec = inputs.PanelSpec(K=3, units_per_group=500, periods=11, resolution=20)
    path = tmp_path / "panel.csv"
    path.write_bytes(inputs.panel_csv_bytes(spec, seed=1).replace(b"\ng", b"\n" + prefix + b"g"))
    return path


def test_c_reader_peak_memory_is_a_few_times_the_file(tmp_path):
    # the C reader holds the file once, as its bytes, and hands PanelData its
    # table's fields as views; PanelData codes the labels with one sorted copy
    path = bench_panel_file(tmp_path)
    size = path.stat().st_size
    # 9.0 times the file with a StringIO and object labels, 5.22 with a
    # decoded text, copied columns and np.unique, 3.6 now
    assert traced_peak(read_panel_csv, str(path), 10) <= 4.5 * size
    # past its input: 8.0 times as above, 3.22 past the decoded text with
    # copied columns, 2.17 now
    assert traced_peak(cli._c_reader_columns, path.read_bytes()) <= 2.75 * size


def test_stripped_labels_leave_no_column_a_view_of_the_table(tmp_path):
    plain = bench_panel_file(tmp_path)
    padded = tmp_path / "padded.csv"
    padded.write_bytes(re.sub(rb"(?m)^(g\w+),", rb" \1\t,", plain.read_bytes()))
    # plain labels are the table's own, and the other columns stay its views
    assert read_panel_csv(str(plain), 10).group.base is not None
    # stripped labels are new, so the other columns are copies: the panel
    # holds its U6 labels and three 8-byte columns, not the whole table with
    # its stale U8 labels beside them
    panel = read_panel_csv(str(padded), 10)
    columns = (panel.unit, panel.group, panel.time, panel.outcome)
    assert all(column.base is None for column in columns)
    assert panel.unit.dtype == np.dtype("U6")
    held = sum((column if column.base is None else column.base).nbytes for column in columns)
    assert held == (4 * 6 + 3 * 8) * panel.unit.size


def test_long_label_peak_memory_is_a_few_times_the_file(tmp_path):
    # labels of 40 to 42 characters: the label column is most of the table,
    # so each copy of it costs more than the file; 9.64 times with copied
    # columns and np.unique's three copies of the labels, 5.85 now
    path = bench_panel_file(tmp_path, prefix=b"region-0001-district-0001-household-")
    size = path.stat().st_size
    assert traced_peak(read_panel_csv, str(path), 10) <= 7 * size


def test_padded_and_quoted_csv_reads_as_the_plain_one(tmp_path):
    # int() syntax, padding, quoting and blank lines
    plain = tmp_path / "plain.csv"
    plain.write_text(HEADER + GOOD, encoding="utf-8")
    padded = tmp_path / "padded.csv"
    padded.write_text(
        HEADER + "\n" + GOOD.replace("a,0,1", '"a",+0,0_1').replace("b,", " b ,")
        .replace("d,1,2", "d, 1 ,2 ")
        + "\n\n", encoding="utf-8",
    )
    assert_same_panel(read_panel_csv(str(padded)), read_panel_csv(str(plain)))


def test_quote_free_csv_never_calls_csv_reader(tmp_path, monkeypatch):
    plain = make_fixture(tmp_path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = row_loop_panel(plain)

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader ran on a quote-free file")

    monkeypatch.setattr("simplexci.cli.csv.reader", refuse)
    for path in (plain, crlf, bom):
        got = read_panel_csv(str(path))
        for column in ("unit", "group", "time", "outcome"):
            assert np.array_equal(getattr(got, column), getattr(want, column))


def test_one_panel_reads_alike_through_both_readers(tmp_path, monkeypatch):
    plain = make_fixture(tmp_path)
    text = plain.read_text(encoding="utf-8")
    last = max(line.split(",")[0] for line in text.splitlines()[1:])  # last in the pivot
    renamed, quoted = tmp_path / "renamed.csv", tmp_path / "quoted.csv"
    renamed.write_text(text.replace(f"\n{last},", f"\n{last}\u00fc,"), encoding="utf-8")
    quoted.write_text(text.replace(f"\n{last},", f'\n"{last}",'), encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_panel_rows", refuse_row_loop)
        want = read_panel_csv(str(plain))
    for path, label in ((renamed, last + "\u00fc"), (quoted, last)):
        got = read_panel_csv(str(path))
        for column in ("group", "time", "outcome"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        labels = want._matched[0].copy()
        labels[labels == last] = label
        assert np.array_equal(got._matched[0], labels)
        for a, b in zip(got._matched[1:], want._matched[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_malformed_csv_is_read_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + GOOD + "e,1,1,zz\n", encoding="utf-8")
    calls = []
    real = cli._read_bytes

    def read_bytes(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_read_bytes", read_bytes)
    assert main(["infer", str(path)]) == 1
    assert "row 10: outcome 'zz' is not a number" in capsys.readouterr().err
    assert calls == [str(path)]


# (file text, number of rows read, or None where the oracle's column checks
# fail): line ends and separators, on both readers
LINE_END_CASES = {
    "crlf": ((HEADER + GOOD).replace("\n", "\r\n"), 8),
    "lone cr": ((HEADER + GOOD).replace("\n", "\r"), 8),
    "mixed line ends": (HEADER.replace("\n", "\r") + GOOD.replace(".5\n", ".5\r\n", 3)
                        .replace(".5\n", ".5\r", 2), 8),
    "blank first line": ("\n" + HEADER + GOOD, None),
    "blank first line crlf": ("\r\n" + HEADER + GOOD, None),
    "blank lines at the end": (HEADER + GOOD + "\n\r\n\r\r\n", 8),
    "blank lines after the header": (HEADER + "\r\r\n\n" + GOOD, 8),
    "no final newline": (HEADER + GOOD.rstrip("\n"), 8),
    "byte-order mark": ("\ufeff" + HEADER + GOOD, 8),
    "two byte-order marks": ("\ufeff\ufeff" + HEADER + GOOD, None),
    "columns reordered": ("time,outcome,group,unit\n" + "".join(
        f"{t},{o},{g},{u}\n" for u, g, t, o in (r.split(",") for r in GOOD.split())), 8),
    "whitespace-only line": (HEADER + GOOD + " \n", None),
    "tab line": (HEADER + "\t\n" + GOOD, None),
    "commas only": (HEADER + GOOD + ",,,\n", None),
    "header only": (HEADER + "\n", None),
    "empty": ("", None),
    "bare line ends": ("\r\n\n\r", None),
    "short row": (HEADER + GOOD + "e,1,1\n", None),
    "padded cells": (HEADER + GOOD.replace("b,", " b ,").replace(",1,2,", ", 1 ,2 ,"), 8),
    **{
        f"label with {sep!r}": (HEADER + GOOD.replace("a,", f"a{sep}z,"), 8)
        for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    },
}


@pytest.mark.parametrize("case", list(LINE_END_CASES))
def test_line_ends_and_separators_read_as_csv_reader(tmp_path, case):
    text, rows = LINE_END_CASES[case]
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    want = panel_columns_csv_reader(path)
    assert (None if want is None else len(want[0])) == rows
    if want is None:
        with pytest.raises(DataError):
            read_panel_csv(str(path))
    else:
        assert_same_panel(read_panel_csv(str(path)), PanelData.from_long(*want))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_invalid_utf8_names_the_file_and_row(tmp_path, capsys, end):
    lines = ["unit,group,time,outcome"] + [f"u{i},{i % 2},1,1.0" for i in range(1000)]
    data = b"\xef\xbb\xbf" + (end.join(lines) + end).encode("ascii")
    assert len(data) > 8192  # past the first read of a buffered text file
    path = tmp_path / "latin.csv"
    path.write_bytes(data + b"caf\xe9,0,2,1.0" + end.encode("ascii"))
    want = f"{path}: row 1002: byte 0xe9 is not valid UTF-8 (invalid continuation byte)"
    assert main(["infer", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert str(row_loop_error(path)) == want


def test_field_over_the_csv_limit(tmp_path, capsys):
    big = "x" * 200_000
    path = tmp_path / "wide.csv"
    # csv reads a quoted file, a malformed one and, as a deliberate limit,
    # a well-formed one that is not plain ASCII
    for text in (HEADER + GOOD + f'"{big}",1,1,1.0\n', HEADER + GOOD + f"{big},1,1,1.0\ne,1\n",
                 HEADER + GOOD + f"{big}\u00fc,1,1,1.0\n"):
        path.write_text(text, encoding="utf-8")
        want = f"{path}: row 10: field larger than field limit (131072)"
        assert main(["infer", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert str(row_loop_error(path)) == want
    # a well-formed plain-ASCII file has no field limit
    path.write_text(HEADER + GOOD.replace("a,", big + ","), encoding="utf-8")
    assert big in read_panel_csv(str(path)).unit


def ingest(read, path):
    """The panel columns ``read(path)`` gives, or the text of the error it
    raises; any warning fails the call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            panel = read(str(path))
        except DataError as exc:
            return str(exc)
    return [getattr(panel, c).tolist() for c in ("unit", "group", "time")] + [
        panel.outcome.tobytes(), panel.t_match,
    ]


# (case, file text, the panel's unit labels or the message with {path}): texts
# at the edges of the checks that choose numpy's C reader, where that reader
# gives other values than Python's int and float or warns
C_READER_EDGES = [
    # int() reads '᧐0' as 0 and '0२' as 2; the C reader as 65600 and 2360
    ("non-ASCII digits in group", HEADER + GOOD.replace(",0,", ",᧐0,"), list("abcd")),
    ("non-ASCII digits in time", HEADER + GOOD.replace(",2,", ",0२,"), list("abcd")),
    ("non-ASCII digit moves a unit's group", HEADER + GOOD.replace("a,0,", "a,0२,"),
     "group 0 has 1 unit(s); each group needs at least 2"),
    ("non-ASCII digit zero period", HEADER + GOOD.replace("b,0,1,", "b,0,᧐0,"),
     "periods must be integers >= 1"),
    # the C reader strips these around a number; float() refuses it
    ("outcome after \\x1c", HEADER + GOOD.replace("3.5", "\x1c3.5"),
     "{path}: row 7: outcome '\\x1c3.5' is not a number"),
    ("outcome before \\x1f", HEADER + GOOD.replace("3.5", "3.5\x1f"),
     "{path}: row 7: outcome '3.5\\x1f' is not a number"),
    ("body line starting with #", HEADER + GOOD.replace("a,", "#a,"), ["#a", "b", "c", "d"]),
    ("200,000-character label", HEADER + GOOD.replace("a,", "x" * 200_000 + ","),
     ["x" * 200_000, "b", "c", "d"]),
    # np.loadtxt warns on a body without rows
    ("header only", HEADER, "{path}: no data rows"),
    ("blank body", HEADER + "\n\r\n\r\n", "{path}: no data rows"),
]


@pytest.mark.parametrize("case, text, expect", C_READER_EDGES, ids=[c[0] for c in C_READER_EDGES])
def test_c_reader_edges_read_as_the_row_loop(tmp_path, case, text, expect):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    got = ingest(read_panel_csv, path)
    limit = csv.field_size_limit(sys.maxsize)  # a plain-ASCII file has no field limit
    try:
        assert ingest(row_loop_panel, path) == got
    finally:
        csv.field_size_limit(limit)
    if isinstance(expect, str):
        assert got == expect.format(path=path)
    else:
        good = tmp_path / "good.csv"
        good.write_text(HEADER + GOOD, encoding="utf-8")
        want = ingest(read_panel_csv, good)
        assert sorted(set(got[0])) == sorted(expect) and got[1:] == want[1:]


def test_c_reader_that_warns_is_refused(tmp_path, monkeypatch, capsys):
    path = tmp_path / "panel.csv"
    path.write_text(HEADER + GOOD.replace("a,0,1", "a,0.0,1"), encoding="utf-8")

    real = np.loadtxt

    def loadtxt(text, **kwargs):  # numpy from 1.23 reads an int cell '0.0' as 0 and warns
        warnings.warn("Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real(GOOD.splitlines(), **kwargs)

    monkeypatch.setattr(cli.np, "loadtxt", loadtxt)
    assert cli._c_reader_columns(path.read_bytes()) is None
    assert main(["infer", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: row 2: group '0.0' is not an integer\n"


def test_c_reader_gives_the_bits_of_int_and_float(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ascii_text = "".join(c for c in map(chr, range(128)) if c not in ',"\r\n\x00\x1c\x1d\x1e\x1f')
    label = st.text(ascii_text, max_size=6)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    integer = st.tuples(pad, st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "00"]),
                        st.integers(0, 2**63 - 1), pad).map(lambda p: "".join(map(str, p)))
    formats = st.sampled_from([repr, "{:.25e}".format, "{:.17g}".format])
    outcome = st.one_of(
        st.builds(lambda fmt, x: fmt(x), formats, st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from(["-0.0", "+.5", "5.", "5e-324", "-2.2250738585072009e-308", " 1.5 "]),
    )
    row = st.tuples(label.map("u{}".format), integer, integer, outcome)
    end = st.sampled_from(["\n", "\r", "\r\n"])
    path = tmp_path / "panel.csv"

    class Columns:  # the columns read_panel_csv gives PanelData.from_long
        @staticmethod
        def from_long(*columns, t_match):
            return columns

    monkeypatch.setattr(cli, "_panel_rows", refuse_row_loop)
    monkeypatch.setattr(cli, "PanelData", Columns)
    rows = st.lists(st.tuples(row, end), min_size=1, max_size=12)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.permutations(range(4)), end, rows)
    def check(order, head_end, rows):
        names = ",".join(cli._REQUIRED_COLUMNS[i] for i in order)
        lines = "".join(",".join(cells[i] for i in order) + e for cells, e in rows)
        path.write_bytes((names + head_end + lines).encode("ascii"))
        want = panel_columns_csv_reader(path)
        got = read_panel_csv(str(path))
        assert got[0].dtype.kind == "U" and got[0].tolist() == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    check()


def test_column_and_row_paths_agree_on_random_csvs(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    junk = st.text('0123456789 +-._#eEx,"\t\x0b\x1c\x1f२᧐\u2028\r\n', max_size=5)
    good = [line.split(",") for line in GOOD.split()]
    end = st.sampled_from(["\n", "\r", "\r\n", "\n\n"])
    path = tmp_path / "panel.csv"
    read = []

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.permutations(range(4)), st.permutations(range(len(good))), st.data())
    def check(order, rows, data):
        cells = [list(good[r]) for r in rows]
        cell = st.tuples(st.integers(0, len(good) - 1), st.integers(0, 3))
        for r, i in data.draw(st.lists(cell, max_size=3)):
            cells[r][i] = data.draw(junk)
        lines = [",".join(row[i] for i in order) for row in [list(cli._REQUIRED_COLUMNS)] + cells]
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(1, len(lines))), data.draw(junk))
        text = "".join(line + data.draw(end) for line in lines)
        path.write_bytes(text.encode("utf-8"))
        got = ingest(read_panel_csv, path)
        assert got == ingest(row_loop_panel, path)
        read.append(not isinstance(got, str))

    check()
    assert sum(read) >= len(read) // 10  # the property is not vacuous


def test_shuffled_large_panel_gives_the_same_bonferroni_output(tmp_path, capsys):
    inputs = load_bench_module("inputs")
    workload = load_bench_module("workloads").WORKLOADS["bonferroni-large-n"]
    path = tmp_path / "panel.csv"
    path.write_bytes(inputs.panel_csv_bytes(workload.panel, seed=1))
    header, *rows = path.read_bytes().splitlines()
    np.random.default_rng(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"\n".join([header] + rows) + b"\n")
    outputs = []
    for source in (path, shuffled):
        assert main(workload.argv(str(source), seed=1)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["infer", "project", "bonferroni"])
def test_row_order_does_not_change_the_output(tmp_path, capsys, command):
    path = make_fixture(tmp_path, seed=6, total_T=6)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    np.random.default_rng(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    extra = ["--post", "6"] if command == "bonferroni" else []
    for fmt in ("json", "csv"):
        outputs = []
        for source in (path, shuffled):
            assert main([command, str(source), "--grid", "4", "--format", fmt] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def relabelled(path, tmp_path, label):
    """A copy of the CSV at ``path`` with every unit label ``u`` replaced by
    ``label(u)``."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",", 1) for row in rows]
    copy = tmp_path / "relabelled.csv"
    copy.write_text(
        "\n".join([header] + [f"{label(unit)},{rest}" for unit, rest in cells]) + "\n",
        encoding="utf-8",
    )
    return copy


@pytest.mark.parametrize("variance", [["--variance", "plugin"], BOOTSTRAP],
                         ids=["plugin", "bootstrap"])
@pytest.mark.parametrize("command", ["infer", "project", "bonferroni"])
def test_prefixed_unit_labels_do_not_change_the_output(tmp_path, capsys, command, variance):
    path = make_fixture(tmp_path, seed=6, total_T=6)
    prefixed = relabelled(path, tmp_path, lambda unit: "unit-" + unit)
    extra = ["--post", "6"] if command == "bonferroni" else []
    outputs = []
    for source in (path, prefixed):
        assert main([command, str(source), "--grid", "4", *variance, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_reordered_units_within_groups_keep_every_infer_record(tmp_path, capsys):
    # labels that sort in the reverse order change the order of the units in
    # each group, so sums run in another order and only T may move, and only
    # in its last bits
    inputs = load_bench_module("inputs")
    workload = load_bench_module("workloads").WORKLOADS["infer-k3"]
    path = tmp_path / "panel.csv"
    path.write_bytes(inputs.panel_csv_bytes(workload.panel, seed=1))
    units = sorted({row.split(",", 1)[0] for row in path.read_text().splitlines()[1:]})
    reverse = {unit: f"r{len(units) - i:06d}" for i, unit in enumerate(units)}
    records = []
    for source in (path, relabelled(path, tmp_path, reverse.get)):
        assert main(workload.argv(str(source), seed=1)) == 0
        records.append(json.loads(capsys.readouterr().out)["records"])
    before, after = records
    assert len(before) == len(after) == workload.items
    for a, b in zip(before, after):
        assert (a["w"], a["d"], a["k"], a["member"]) == (b["w"], b["d"], b["k"], b["member"])
        assert abs(a["T"] - b["T"]) <= 1e-9 * abs(a["T"]), a["w"]


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["infer"])  # missing input path
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(DataError, match="^unknown command 'bogus'$"):
        RunConfig(command="bogus").validate()


def test_config_file_merge_and_unknown_keys(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.2\ngrid=4\n# comment line\n", encoding="utf-8")
    rc = main(["project", str(path), "--alpha", "0.1", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 0.1  # the flag wins over the file
    assert doc["resolution"] == 4  # the file fills what the flag left open

    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n", encoding="utf-8")
    assert main(["project", str(path), "--config", str(bad)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_config_keys_reach_their_run_config_fields(tmp_path, capsys):
    parser = build_parser()
    assert resolve_config(parser.parse_args(["simulate"])) == RunConfig(command="simulate")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("nj=7\nspec=boundary\nprojection=yes\nformat=csv\nreps=3\n", encoding="utf-8")
    args = parser.parse_args(["simulate", "--reps", "5", "--config", str(cfg)])
    assert resolve_config(args) == RunConfig(
        command="simulate", n_j=7, design="boundary", projection=True, fmt="csv", reps=5
    )
    cfg.write_text("projection=off\n", encoding="utf-8")
    args = parser.parse_args(["simulate", "--config", str(cfg)])
    assert resolve_config(args).projection is False
    cfg.write_text("strict=maybe\n", encoding="utf-8")
    assert main(["infer", "panel.csv", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: config key 'strict': expected a boolean, got 'maybe'\n"
    )
    # a malformed value is rejected at its line even where a flag overrides it
    cfg.write_text("reps=3\nK=three\n", encoding="utf-8")
    assert main(["simulate", "--K", "3", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: config key 'K': ")
    cfg.write_text("spec=foo\n", encoding="utf-8")
    assert main(["simulate", "--reps", "1", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: --spec must be interior or boundary, got 'foo'\n"


def test_a_config_key_must_be_an_option_of_the_command(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nreps=0\n", encoding="utf-8")
    assert main(["infer", str(path), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: config key 'reps' is not an option of infer\n"
    )
    cfg.write_text("reps=1\nvariance=bootstrap\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: config key 'variance' is not an option of simulate\n"
    )


_FOREIGN_KEYS = {
    "infer": ["kappa=0.5", "post=3", "K=3", "nj=20", "spec=boundary", "reps=0", "projection=yes"],
    "project": ["kappa=0.5", "post=3", "K=3", "nj=20", "spec=boundary", "reps=0",
                "projection=yes"],
    "bonferroni": ["K=3", "nj=20", "spec=boundary", "reps=0", "projection=yes"],
    "simulate": ["variance=bootstrap", "bootstrap-draws=200", "strict=yes", "kappa=0.5",
                 "post=3"],
}


@pytest.mark.parametrize(
    "command, line",
    [(command, line) for command, lines in _FOREIGN_KEYS.items() for line in lines],
    ids=[f"{command}-{line.split('=')[0]}" for command, lines in _FOREIGN_KEYS.items()
         for line in lines],
)
def test_a_config_key_of_a_flag_the_command_does_not_take_is_rejected(tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha=0.1\n{line}\n", encoding="utf-8")
    key = line.split("=")[0]
    with pytest.raises(DataError) as error:
        cli._parse_config_file(str(cfg), command)
    assert str(error.value) == f"{cfg}:2: config key {key!r} is not an option of {command}"


@pytest.mark.parametrize("command", ["infer", "project", "bonferroni", "simulate"])
def test_seed_is_a_config_key_of_every_command(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n", encoding="utf-8")
    assert cli._parse_config_file(str(cfg), command) == {"seed": 5}


def test_one_option_table_builds_the_parsers_and_the_config_keys():
    subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    dests, defaults = {}, set()
    for name, p in subparsers.choices.items():
        flags = {s: a for a in p._actions for s in a.option_strings if s.startswith("--")}
        flags.pop("--help")
        want = [f"--{row[0]}" for row in cli._OPTIONS if name in row[4]]
        assert sorted(flags) == sorted(want), name
        for flag, action in flags.items():
            dests.setdefault(flag[2:], set()).add(action.dest)
            # a help text that shows a default shows RunConfig's
            shown = re.search(r"\(default (\S+)\)", action.help or "")
            if shown and action.dest != "out":
                assert shown.group(1) == str(getattr(RunConfig(command=name), action.dest))
                defaults.add(flag)
    assert set(subparsers.choices) == {"infer", "project", "bonferroni", "simulate"}
    assert defaults == {
        "--alpha", "--format", "--variance", "--bootstrap-draws", "--seed", "--kappa",
        "--K", "--nj", "--spec", "--reps",
    }
    dests.pop("config")
    assert all(len(d) == 1 for d in dests.values())
    assert {key: field for key, (field, _) in cli._CONFIG_KEYS.items()} == {
        key: d.pop() for key, d in dests.items()
    }


def test_config_file_drops_a_byte_order_mark_and_takes_any_line_end(tmp_path, capsys):
    parser = build_parser()
    cfg = tmp_path / "run.cfg"
    want = RunConfig(command="simulate", alpha=0.2, reps=3)
    for text in (b"\xef\xbb\xbfalpha=0.2\r\n# note\r\nreps=3\r\n", b"alpha=0.2\rreps=3"):
        cfg.write_bytes(text)
        assert resolve_config(parser.parse_args(["simulate", "--config", str(cfg)])) == want
    cfg.write_bytes(b"\xef\xbb\xbfalpha=0.2\r\n\r\nbogus=1\r\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: unknown config key 'bogus'\n"


def test_config_file_errors_name_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"alpha=0.2\r\nspec=int\xe9rieur\r\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: byte 0xe9 is not valid UTF-8 (invalid continuation byte)\n"
    )
    cfg.write_text("alpha=0.2\nprojection\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'projection'\n"
    missing = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_bonferroni_parameter_validation(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=5, total_T=6)
    assert main(["bonferroni", str(path)]) == 1
    assert "--post" in capsys.readouterr().err
    assert main(["bonferroni", str(path), "--post", "1"]) == 1
    capsys.readouterr()
    assert main(["bonferroni", str(path), "--post", "6", "--kappa", "0.05"]) == 1
    assert "kappa" in capsys.readouterr().err


_LEAST = [row for row in cli._OPTIONS if row[5] is not None]


@pytest.mark.parametrize(
    "key, field, commands, least",
    [(row[0], row[1], row[4], row[5]) for row in _LEAST],
    ids=[f"{row[0]}-" + {cli._ALL: "all", cli._SWEEPS: "sweeps"}.get(row[4], row[4][0])
         for row in _LEAST],
)
def test_an_integer_option_below_its_least_value_is_rejected(
    key, field, commands, least, tmp_path, capsys
):
    # the input does not exist, so each check runs before the file is read
    missing = str(tmp_path / "missing.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={least - 1}\n", encoding="utf-8")
    for command in commands:
        head = [command, missing] if command in cli._SWEEPS else [command]
        for argv in (head + [f"--{key}", str(least - 1)], head + ["--config", str(cfg)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: --{key} must be at least {least}, got {least - 1}\n"
            )
        post = {"post": 2} if command == "bonferroni" else {}
        RunConfig(command=command, input=missing, **{**post, field: least}).validate()


@pytest.mark.parametrize("value", ["0", "1", "nan"])
@pytest.mark.parametrize("key", ["alpha", "kappa"])
def test_a_probability_outside_the_open_unit_interval_is_rejected(key, value, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    head = ["bonferroni", missing, "--post", "2"]
    for argv in (head + [f"--{key}", value], head + ["--config", str(cfg)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: --{key} must lie strictly in (0, 1), got {float(value)}\n"
        )


def test_negative_seed_is_a_validation_error(tmp_path, capsys):
    path = make_fixture(tmp_path, seed=5)
    for argv in (
        ["project", str(path), "--variance", "bootstrap", "--bootstrap-draws", "100"],
        ["simulate", "--K", "3", "--nj", "10", "--reps", "2"],
    ):
        assert main(argv + ["--seed", "-1"]) == 1
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err


def test_degenerate_panel_strict_is_a_numerical_error(tmp_path, capsys):
    # constant outcomes give a zero covariance everywhere on the lattice
    rows = ["unit,group,time,outcome"]
    for g in range(3):
        for i in range(3):
            for t in (1, 2, 3):
                rows.append(f"g{g}u{i},{g},{t},1.0")
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["infer", str(path), "--grid", "4", "--strict"])
    assert rc == 2
    assert "numerical error" in capsys.readouterr().err
    # without --strict the sweep degrades point by point instead of failing
    with pytest.warns(RuntimeWarning):
        rc = main(["infer", str(path), "--grid", "4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(not r["member"] for r in doc["records"])
    assert all("error" in r for r in doc["records"])


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = [
        sys.executable, "-m", "simplexci", "simulate",
        "--K", "3", "--nj", "10", "--reps", "3", "--seed", "7",
        "--grid", "6", "--projection",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        proc = subprocess.run(args + ["--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert doc["schema_version"] == 1
    assert doc["reps"] == 3
    assert "timing_seconds" not in doc


def test_simulate_csv_format(tmp_path, capsys):
    rc = main(["simulate", "--K", "3", "--nj", "10", "--reps", "2", "--seed", "1",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "coverage" in keys and "seed" in keys


def test_runtime_imports_only_numpy():
    # scipy and hypothesis are test-only tools; the package must not load them
    code = (
        "import sys, simplexci, simplexci.cli; "
        "print(sorted(m for m in ('scipy', 'hypothesis') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_registers_no_abstract_base_class():
    # a class registered with an abstract base class invalidates the negative
    # isinstance caches of every abstract base class in the process
    code = (
        "import abc, numpy.random; token = abc.get_cache_token(); "
        "import simplexci, simplexci.cli; print(abc.get_cache_token() == token)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_every_exported_name_resolves():
    # the benchmark's tracer looks up every name in each module's __all__, and
    # that list is the module's one declaration of its public callables
    names = ("", ".cli", ".distributions", ".estimators", ".exceptions", ".geometry",
             ".inference", ".montecarlo")
    for module in (importlib.import_module("simplexci" + name) for name in names):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        unlisted = [
            name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__ and name not in module.__all__
        ]
        assert not unlisted, (module.__name__, unlisted)
    package = importlib.import_module("simplexci")
    assert len(package.__all__) == len(set(package.__all__))
    assert not set(cli.__all__) & set(package.__all__)
    code = "import sys, simplexci; print('simplexci.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
