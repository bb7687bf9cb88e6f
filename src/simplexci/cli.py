"""Command-line front end.

Four subcommands: ``infer`` sweeps a simplex lattice and reports the test
record of every point, ``project`` reduces the sweep to per-coordinate
intervals, ``bonferroni`` combines a high-level weight set with a normal
interval for the post-period treatment functional, and ``simulate`` runs a
coverage experiment. Outputs are JSON documents (with a ``schema_version``
field) or CSV tables. Every float round-trips: CSV writes 17 significant
digits, JSON the shortest ``repr`` that reads back the same float. Repeated
runs with the same inputs and seeds are byte-identical.

Exit codes: 0 on success, 1 on validation errors (malformed CSV or
configuration), 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .estimators import (
    PanelData,
    influence_set,
    bootstrap_variance,
    make_weight_model,
    quadratic_components,
    treatment_functional,
)
from .exceptions import ConvergenceError, DataError, IllConditionedError
from .geometry import solve_simplex_qp
from .inference import ConfidenceSet, bonferroni_interval, confidence_set, projection_interval
from .montecarlo import McSpec, coverage_experiment

__all__ = ["RunConfig", "build_parser", "resolve_config", "read_panel_csv", "run", "main"]

SCHEMA_VERSION = 1

_REQUIRED_COLUMNS = ("unit", "group", "time", "outcome")
_INT64 = np.iinfo(np.int64)
_CELL_TYPES = {"group": np.int64, "time": np.int64, "outcome": np.float64}


@dataclass
class RunConfig:
    """Fully resolved options of one invocation."""

    command: str
    input: Optional[str] = None
    alpha: float = 0.05
    kappa: float = 0.005
    grid: Optional[int] = None
    variance: str = "plugin"
    bootstrap_draws: int = 1000
    seed: int = 0
    post: Optional[int] = None
    out: Optional[str] = None
    fmt: str = "json"
    strict: bool = False
    K: int = McSpec.K
    n_j: int = McSpec.n_j
    design: str = McSpec.design
    reps: int = McSpec.reps
    projection: bool = False

    def validate(self) -> None:
        """Check every option of the command against its row of ``_OPTIONS``,
        whether or not the run reads it, then the rules across options."""
        for key, field, kind, _, commands, least in _OPTIONS:
            value = getattr(self, field, None)
            if self.command not in commands or value is None:
                continue
            if isinstance(kind, tuple) and value not in kind:
                raise DataError(f"--{key} must be {' or '.join(kind)}, got {value!r}")
            if kind is float and not 0.0 < value < 1.0:
                raise DataError(f"--{key} must lie strictly in (0, 1), got {value}")
            if least is not None and value < least:
                raise DataError(f"--{key} must be at least {least}, got {value}")
        if self.command not in _COMMANDS:
            raise DataError(f"unknown command {self.command!r}")
        if self.command == "bonferroni":
            if self.post is None:
                raise DataError("bonferroni requires --post")
            if not self.kappa < self.alpha:
                raise DataError(
                    f"need 0 < kappa < alpha, got kappa={self.kappa}, alpha={self.alpha}"
                )
        # the two failures of opening --out that show before the file exists,
        # so that they are reported before the computation, with open's text
        if self.out is not None:
            parent = os.path.dirname(self.out) or "."
            if os.path.isdir(self.out) or not os.path.isdir(parent):
                code = errno.EISDIR if os.path.isdir(self.out) else errno.ENOENT
                exc = OSError(code, os.strerror(code), self.out)
                raise DataError(f"cannot write {self.out}: {exc}")


# Each subcommand with its help text; the first three sweep a panel CSV.
_COMMANDS = {
    "infer": "test every lattice point and report the records",
    "project": "per-coordinate interval of the confidence set",
    "bonferroni": "interval for the post-period treated-minus-synthetic difference",
    "simulate": "run a coverage experiment",
}
_SWEEPS = ("infer", "project", "bonferroni")
_ALL = tuple(_COMMANDS)

# One row per flag, in --help order: the flag (also its config-file key),
# the RunConfig field it sets, its value type (a tuple of choices, bool for
# a switch, or float for a probability, which lies strictly in (0, 1)), its
# help text, where {} stands for RunConfig's default, the commands that take
# it, and the least value of an integer option.
_OPTIONS = (
    ("alpha", "alpha", float, "test level (default {})", _ALL, None),
    ("grid", "grid", int, "lattice resolution", _ALL, 1),
    ("out", "out", str, "output path (default stdout)", _ALL, None),
    ("format", "fmt", ("json", "csv"), "output format (default {})", _ALL, None),
    ("config", "config", str, "key=value config file; flags win", _ALL, None),
    ("variance", "variance", ("plugin", "bootstrap"),
     "covariance mode: per-point plug-in or fixed bootstrap (default {})", _SWEEPS, None),
    ("bootstrap-draws", "bootstrap_draws", int, "bootstrap draw count (default {})", _SWEEPS,
     100),
    ("seed", "seed", int, "bootstrap seed (default {})", _SWEEPS, 0),
    ("strict", "strict", bool,
     "raise on per-point numerical failures instead of skipping", _SWEEPS, None),
    ("kappa", "kappa", float, "weight-set share of the level (default {})", ("bonferroni",),
     None),
    ("post", "post", int, "post-treatment period", ("bonferroni",), 2),
    ("K", "K", int, "number of untreated groups (default {})", ("simulate",), 2),
    ("nj", "n_j", int, "units per group (default {})", ("simulate",), 2),
    ("spec", "design", ("interior", "boundary"), "true-weight design (default {})",
     ("simulate",), None),
    ("reps", "reps", int, "replications (default {})", ("simulate",), 1),
    ("seed", "seed", int, "experiment seed (default {})", ("simulate",), 0),
    ("projection", "projection", bool,
     "also sweep the lattice for projection intervals", ("simulate",), None),
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, reserving 2 for
    numerical failures."""

    def error(self, message: str) -> None:  # noqa: D401 (argparse override)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simplexci", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name in _SWEEPS:
            p.add_argument("input", help="panel CSV with columns unit,group,time,outcome")
    for key, field, kind, text, commands, _ in _OPTIONS:
        default = getattr(RunConfig, field, None)
        options = {"dest": field, "default": None, "help": text.format(default)}
        if kind is bool:
            options["action"] = "store_true"
        elif isinstance(kind, tuple):
            options["choices"] = kind
        else:
            options.update(type=kind, metavar=key.upper().replace("-", "_"))
        for name in commands:
            sub.choices[name].add_argument(f"--{key}", **options)
    return parser


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Config-file keys, each with the RunConfig field (and parser dest) it sets
# and the parser of its value; its range is checked by RunConfig.validate.
_CONFIG_KEYS = {
    key: (field, _as_bool if kind is bool else str if isinstance(kind, tuple) else kind)
    for key, field, kind, *_ in _OPTIONS
    if key != "config"
}


def _parse_config_file(path: str, command: str) -> Dict[str, object]:
    """The RunConfig fields that the ``key=value`` lines of a config file
    set for ``command``, each value parsed at its line; a key of a flag that
    ``command`` does not take is rejected. The file is decoded as a panel CSV
    is for the row loop, by ``_read_text``, with universal newlines."""
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(io.StringIO(_read_text(path, "{}:{}"), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if not any(row[0] == key and command in row[4] for row in _OPTIONS):
            raise DataError(f"{path}:{lineno}: config key {key!r} is not an option of {command}")
        field, cast = _CONFIG_KEYS[key]
        try:
            values[field] = cast(value.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: config key {key!r}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge command-line flags over config-file values over ``RunConfig``'s
    defaults."""
    flags = {name: value for name, value in vars(args).items() if value is not None}
    path = flags.pop("config", None)
    return RunConfig(**{**(_parse_config_file(path, args.command) if path else {}), **flags})


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_text(path: str, where: str = "{}: row {}", data: Optional[bytes] = None) -> str:
    """The file's text (from its bytes ``data``, if given) decoded as UTF-8,
    a byte-order mark dropped. A bad byte is placed by ``where.format(path,
    line)``: a panel CSV names rows, a config file ``PATH:LINE``."""
    data = _read_bytes(path) if data is None else data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # bytes.splitlines ends lines as csv does
        raise DataError(
            f"{where.format(path, len(exc.object[: exc.start + 1].splitlines()))}: byte "
            f"0x{exc.object[exc.start]:02x} is not valid UTF-8 ({exc.reason})"
        ) from None


def read_panel_csv(path: str, t_match: Optional[int] = None) -> PanelData:
    """Read a long-format panel CSV with header ``unit,group,time,outcome``.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; other Unicode separators are
    data. Diagnostics name the offending row (its line in the file) and
    column. Extra or missing columns are rejected, and blank lines are skipped.
    The file's bytes are read once; numpy's C reader converts them if
    ``_c_reader_columns`` accepts them, else the row loop ``_panel_rows``
    their decoded text. They are dropped before ``PanelData`` is built.
    """
    data = _read_bytes(path)
    columns = _c_reader_columns(data) or _panel_rows(path, _read_text(path, data=data))
    del data
    return PanelData.from_long(*columns, t_match=t_match)


def _c_reader_columns(data: bytes):
    """The four columns of a CSV file's bytes as read by numpy's C reader
    (``np.loadtxt``), the unit labels stripped, in a ``U`` array as wide as
    the longest: views of its table, or copies if those labels are new, so
    that nothing keeps the table; None if a check fails or that reader
    refuses a cell. Where it accepts every cell it gives ``_panel_rows``'s
    values, if the bytes after one UTF-8 byte-order mark pass three checks:
    ``bytes.isascii`` (that reader misreads some non-ASCII digits), no ``"``
    (it reads quotes otherwise than ``csv``) and none of ``\\x00`` (the row
    loop refuses it) or ``\\x1c``-``\\x1f`` (that reader strips them around
    a number, which ``int`` and ``float`` refuse). The header must be a
    permutation of the column names, a label not blank, an outcome finite."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    if not data.isascii() or any(c in data for c in b'"\x00\x1c\x1d\x1e\x1f'):
        return None
    padded = any(c in data for c in b" \t\x0b\x0c")  # a label may be padded
    # a stream of one byte a character, where io.StringIO holds four; \r\n, \r read as \n
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    header = lines.readline().rstrip("\n").split(",")
    if sorted(header) != sorted(_REQUIRED_COLUMNS):
        return None
    # that reader cuts a label longer than its column, so that is as wide as field k
    # at its widest; a line not of four fields may make it wider, never narrower
    buf, k = np.frombuffer(data, np.uint8), header.index("unit")
    ends = np.append(np.flatnonzero((buf == 10) | (buf == 13)), buf.size)  # \r\n ends twice
    commas = np.append(np.flatnonzero(buf == 44), [buf.size] * 4)  # every line has a comma k
    before = np.append(-1, ends[:-1])  # where the line before each line ends
    nth = np.searchsorted(commas, before) + k  # comma k of each line, if it has k
    width = int((np.minimum(commas[nth], ends) - (commas[nth - 1] if k else before)).max()) - 1
    del buf, ends, commas, before, nth, data  # the stream keeps the bytes
    try:
        with warnings.catch_warnings():  # loadtxt warns on a body without rows, and
            warnings.simplefilter("error")  # older numpy reads int '1.5' as 1, warning
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                               dtype=[(c, _CELL_TYPES.get(c, f"U{width}")) for c in header])
    except (ValueError, Warning):
        return None
    del lines  # the table is the columns' only storage, unless the labels are new (below)
    units = np.char.strip(table["unit"]) if padded else table["unit"]
    codes = units[:, None].view(np.uint32)  # a label's code points, then zeros
    if not codes[:, 0].all() or not np.isfinite(table["outcome"]).all():
        return None
    units = units.astype(f"U{codes.any(axis=0).sum()}", copy=False)
    del codes  # and with it a stripped copy that was narrowed, before any column is copied
    return units, *(np.array(table[c], copy=units.base is None) for c in _REQUIRED_COLUMNS[1:])


def _integer_cell(path: str, line: int, row: Dict[str, str], column: str) -> int:
    try:
        value = int(row[column])
    except ValueError:
        raise DataError(
            f"{path}: row {line}: {column} {row[column]!r} is not an integer"
        ) from None
    if not _INT64.min <= value <= _INT64.max:
        raise DataError(f"{path}: row {line}: {column} {row[column]!r} is out of range")
    return value


def _panel_rows(path: str, text: str) -> Tuple[List[str], List[int], List[int], List[float]]:
    """Read the CSV ``text`` of the file at ``path`` one row at a time with
    ``csv`` and Python ``int`` and ``float``, and raise the message for the
    first NUL character, else the first malformed row. ``read_panel_csv`` runs
    this on every text the C reader does not take, so every message comes
    from here. A field may hold at most csv's limit of 131,072 characters."""
    if "\x00" in text:  # a numpy string drops a trailing NUL; csv refused it before 3.11
        line = len(io.StringIO(text[: text.index("\x00") + 1], newline="").readlines())
        raise DataError(f"{path}: row {line}: holds a NUL character (0x00)")
    rows: List[Tuple[str, int, int, float]] = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        fields = reader.fieldnames
        if fields is None:
            raise DataError(f"{path}: file is empty")
        missing = [c for c in _REQUIRED_COLUMNS if c not in fields]
        extra = [c for c in fields if c not in _REQUIRED_COLUMNS]
        repeated = list(dict.fromkeys(c for i, c in enumerate(fields) if c in fields[:i]))
        if missing or extra or repeated:
            raise DataError(
                f"{path}: header must be exactly {','.join(_REQUIRED_COLUMNS)}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
                + (f"; repeated {repeated}" if repeated else "")
            )
        for row in reader:
            # the csv.reader's count: DictReader's own misses the blank
            # lines it skips
            line = reader.reader.line_num
            if any(v is None for v in row.values()):
                raise DataError(f"{path}: row {line} has too few fields")
            if None in row:  # DictReader files surplus fields under the key None
                raise DataError(f"{path}: row {line} has too many fields")
            unit = row["unit"].strip()
            if not unit:
                raise DataError(f"{path}: row {line}: empty unit label")
            group = _integer_cell(path, line, row, "group")
            period = _integer_cell(path, line, row, "time")
            try:
                outcome = float(row["outcome"])
            except ValueError:
                raise DataError(
                    f"{path}: row {line}: outcome {row['outcome']!r} is not a number"
                ) from None
            if not math.isfinite(outcome):
                raise DataError(
                    f"{path}: row {line}: outcome {row['outcome']!r} is not a finite number"
                )
            rows.append((unit, group, period, outcome))
    except csv.Error as exc:  # a field over csv's size limit
        raise DataError(f"{path}: row {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    units, groups, times, outcomes = map(list, zip(*rows))
    return units, groups, times, outcomes


def _json_value(x):
    """``x``, or None for a non-finite float, which JSON cannot hold."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _interval_doc(interval) -> dict:
    return {
        "lower": None if interval.empty else _json_value(interval.lower),
        "upper": None if interval.empty else _json_value(interval.upper),
        "empty": interval.empty,
    }


def _each_distinct(column: np.ndarray, fmt: Callable) -> list:
    """``fmt`` of every entry of ``column``, nested as ``column.tolist()``;
    each distinct value is formatted once. (``np.unique`` merges ``-0.0``
    with ``0.0``; zero counts, dof and critical values hold no ``-0.0``.)"""
    distinct, inverse = np.unique(column, return_inverse=True)
    table = np.array([fmt(x) for x in distinct.tolist()], dtype=object)
    return table[inverse.reshape(column.shape)].tolist()


def _lattice_cells(cs: ConfidenceSet, fmt: Callable) -> list:
    """``fmt`` of every lattice coordinate, one list per column of ``cs.grid``:
    each value ``i / resolution`` is formatted once, picked by ``rint(grid * resolution)``."""
    table = np.array([fmt(i / cs.resolution) for i in range(cs.resolution + 1)], dtype=object)
    return table[np.rint(cs.grid.T * cs.resolution).astype(np.intp)].tolist()


def _json_cell(x) -> str:
    return json.dumps(_json_value(x))


def _infer_json(cs: ConfidenceSet, header: dict) -> str:
    """The ``infer`` document: ``header`` plus one record per lattice point
    under ``records``, byte for byte as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it, but as one join of a flat list: a record is
    its cells, each after the fixed text before it, so column ``j`` fills
    every ``step``-th item. Floats are ``repr``, as in ``json``; a non-finite
    ``T`` or ``critical`` is ``null``; ``error`` appears only on skipped points."""
    n, K = cs.grid.shape
    before = ['\n      ]\n    },\n    {\n      "T": ']
    before += [f',\n      "{key}": ' for key in ("critical", "d", "k", "member")]
    before += [',\n      "w": [\n        '] + [",\n        "] * (K - 1)
    step = 2 * len(before)
    flat = [item for text in before for item in (text, None)] * n
    columns = (
        # statistics are all distinct, so each is written directly, by json's repr
        [repr(x) if math.isfinite(x) else "null" for x in cs.statistic.tolist()],
        *(_each_distinct(c, _json_cell) for c in (cs.critical, cs.zeros, cs.dof, cs.member_mask)),
        *_lattice_cells(cs, _json_cell),
    )
    for j, cells in enumerate(columns):
        flat[2 * j + 1::step] = cells
    for i, message in cs.errors.items():  # item 6 of a record is the text before "k"
        flat[i * step + 6] = f',\n      "error": {json.dumps(message)},\n      "k": '
    doc = json.dumps({**header, "records": None}, indent=2, sort_keys=True)
    head, _, tail = doc.partition('"records": null')
    flat[0] = head + '"records": [\n    {\n      "T": '
    flat.append("\n      ]\n    }\n  ]" + tail + "\n")
    return "".join(flat)


def _infer_csv(cs: ConfidenceSet) -> str:
    K = cs.grid.shape[1]
    header = [f"w_{j + 1}" for j in range(K)] + ["T", "d", "k", "critical", "member"]
    columns = (
        *_lattice_cells(cs, _csv_cell),
        # statistics are all distinct, so each is formatted directly, as
        # _csv_cell formats a float
        (f"{x:.17g}" for x in cs.statistic.tolist()),
        *(_each_distinct(c, _csv_cell) for c in (cs.zeros, cs.dof, cs.critical, cs.member_mask)),
    )
    return _csv(header, zip(*columns))


def _csv(header, rows) -> str:
    """The CSV table of ``header`` and ``rows``, whose cells are strings, as
    one join over a lazy chain of its lines; an empty last line ends the
    table with a newline. The join holds the joined lines, never the rows."""
    lines = (line for part in ([header], rows, [()]) for line in part)
    return "\n".join(map(",".join, lines))


def _flatten(value, key: str = ""):
    """``(dotted key, value)`` pairs of the leaves of a document, with the
    keys of a dict in sorted order and a list's positions as its keys."""
    if not isinstance(value, (dict, list, tuple)):
        yield key, value
        return
    for name, item in sorted(value.items()) if isinstance(value, dict) else enumerate(value):
        yield from _flatten(item, f"{key}.{name}" if key else str(name))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from exc


def _build_model(cfg: RunConfig, panel: PanelData):
    comps = quadratic_components(panel)
    infl = influence_set(panel, comps)
    w_hat = solve_simplex_qp(comps.H, comps.h)
    if cfg.variance == "plugin":
        return make_weight_model(comps, infl), w_hat
    v_star = bootstrap_variance(panel, w_hat, cfg.bootstrap_draws, cfg.seed)
    return make_weight_model(comps, infl, mode="fixed", v_fixed=v_star), w_hat


def _sweep_doc(cfg: RunConfig, cs: ConfidenceSet, w_hat, n: int) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "alpha": cfg.alpha,
        "resolution": cs.resolution,
        "variance": cfg.variance,
        "n": n,
        "K": cs.grid.shape[1],
        "w_hat": [float(x) for x in w_hat],
    }
    if cfg.variance == "bootstrap":
        doc["bootstrap_draws"] = cfg.bootstrap_draws
        doc["seed"] = cfg.seed
    return doc


_BOUNDS = itemgetter("lower", "upper", "empty")


def _output(cfg: RunConfig) -> str:
    """The text one invocation writes: its JSON document, or its CSV table."""
    if cfg.command == "simulate":
        spec = McSpec(
            K=cfg.K,
            n_j=cfg.n_j,
            design=cfg.design,
            reps=cfg.reps,
            seed=cfg.seed,
            alpha=cfg.alpha,
            grid_n=cfg.grid,
        )
        report = coverage_experiment(spec, projection=cfg.projection)
        doc = {"schema_version": SCHEMA_VERSION, "command": "simulate"}
        doc.update(report.to_dict())
        header, rows = ("key", "value"), _flatten(doc)
    else:
        t_match = cfg.post - 1 if cfg.command == "bonferroni" else None
        panel = read_panel_csv(cfg.input, t_match=t_match)
        model, w_hat = _build_model(cfg, panel)
        level = cfg.kappa if cfg.command == "bonferroni" else cfg.alpha
        cs = confidence_set(model, level, cfg.grid, strict=cfg.strict)
        doc = _sweep_doc(cfg, cs, w_hat, model.n)
        if cfg.command == "infer":
            return _infer_csv(cs) if cfg.fmt == "csv" else _infer_json(cs, doc)
        intervals = [
            {"coordinate": j + 1, **_interval_doc(projection_interval(cs, j))}
            for j in range(model.K)
        ]
        if cfg.command == "project":
            doc["intervals"] = intervals
            header = ("coordinate", "lower", "upper", "empty")
            rows = [(item["coordinate"], *_BOUNDS(item)) for item in intervals]
        else:
            theta_hat, v_hat = treatment_functional(panel, cfg.post)
            theta_interval = bonferroni_interval(cs, theta_hat, v_hat, model.n, alpha=cfg.alpha)
            doc["kappa"] = cfg.kappa
            doc["post_period"] = cfg.post
            doc["theta_interval"] = _interval_doc(theta_interval)
            doc["weight_set"] = {
                "grid_size": int(cs.grid.shape[0]),
                "members": int(cs.member_mask.sum()),
                "projection_intervals": intervals,
            }
            header = ("quantity", "lower", "upper", "empty")
            rows = [("theta", *_BOUNDS(doc["theta_interval"]))]
            rows += [(f"w_{item['coordinate']}", *_BOUNDS(item)) for item in intervals]
    if cfg.fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return _csv(header, (map(_csv_cell, row) for row in rows))


def run(cfg: RunConfig) -> int:
    """Execute one resolved invocation and write its output."""
    cfg.validate()
    _write(_output(cfg), cfg.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IllConditionedError, ConvergenceError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
