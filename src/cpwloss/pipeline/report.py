"""Deterministic report emission: every JSON and CSV byte cpwloss writes.

This module is the one place that knows the output layout: the fit block
(shared with ``cpwloss fit``), the per-temperature entries of report.json,
the CSV columns, each of which is a field of those entries, and the tables
and records the CLI prints. A sweep's results arrive as arrays over its
fitted temperatures; ``_per_temperature`` is the one place they become
rows.

Identical analyses produce byte-identical files: one cell rule writes every
scalar (``_number``), JSON is laid out as ``json.dumps(indent=2)`` lays it
out, key order is fixed, and entries are sorted by temperature. CSV schemas
are versioned in the report's provenance block. Every table is cut into
row blocks that ``parallel.ordered_map`` formats, on forked workers too
when the table is large, with the same text.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import getitem
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..resfit import NotchFitResult
from . import parallel

if TYPE_CHECKING:
    from .sweep import AnalysisReport

SCHEMA_VERSION = 1

_TEMPERATURE = ("temperature_K", "temperature_k")

# one (header, dotted path into a report.json per_temperature entry) pair
# per column: the CSV header rows, the CSV cells and the provenance schemas
# all come from this table
_CSV_COLUMNS = {
    "qi_vs_T.csv": (
        _TEMPERATURE,
        ("qi_measured", "fit.qi"),
        ("qi_stderr", "fit.stderr.qi"),
        ("qi_theory", "budget.qi_theory"),
        ("q_tls", "budget.q_tls"),
        ("q_qp_theory", "budget.q_qp_theory"),
    ),
    "df_vs_T.csv": (
        _TEMPERATURE,
        ("fr_hz", "fit.fr_hz"),
        ("fr_stderr_hz", "fit.stderr.fr_hz"),
        ("delta_f_hz", "delta_f_hz"),
    ),
    "sigma_vs_T.csv": (
        _TEMPERATURE,
        ("sigma1_norm", "sigma.sigma1_norm"),
        ("sigma2_norm", "sigma.sigma2_norm"),
        ("sigma1_s_per_m", "sigma.sigma1_s_per_m"),
        ("sigma2_s_per_m", "sigma.sigma2_s_per_m"),
    ),
    "nqp_vs_T.csv": (
        _TEMPERATURE,
        ("nqp_measured_per_um3", "budget.nqp_measured_per_um3"),
        ("nqp_theory_per_um3", "budget.nqp_theory_per_um3"),
        ("delta_qp_measured", "budget.delta_qp_measured"),
        ("negative_loss", "budget.negative_loss"),
    ),
}


def _number(v, null: str, bools: tuple[str, str]) -> str:
    """The cell rule for all but a str; None, NaN and +-inf are ``null``."""
    if v is None:
        return null
    if isinstance(v, bool):
        return bools[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else null
    raise TypeError(f"{type(v).__name__} is not a JSON or CSV cell")


def _json_cell(v) -> str:
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return _number(v, "null", ("false", "true"))


def _csv_cell(v) -> str:
    if isinstance(v, str):  # quoted only when it holds , " CR or LF
        return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
    return _number(v, "", ("0", "1"))


def _layout(items: list[str], brackets: str) -> str:
    """Items of an object or array, laid out as indent=2 JSON lays them out:
    no JSON text holds a raw newline, so each one starts a line to indent."""
    if not items:
        return brackets
    body = ",\n".join(items).replace("\n", "\n  ")
    return f"{brackets[0]}\n  {body}\n{brackets[1]}"


def to_json(obj) -> str:
    """Strict JSON for report.json and CLI stdout, without a final newline:
    the text of ``json.dumps(obj, indent=2)``, with NaN/inf as null."""
    if isinstance(obj, dict):
        # encode_basestring_ascii raises TypeError for a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {to_json(v)}" for k, v in obj.items()]
        return _layout(items, "{}")
    if isinstance(obj, (list, tuple)):
        return _layout(list(map(to_json, obj)), "[]")
    return _json_cell(obj)


def _cells(column, cell) -> list[str]:
    if getattr(column, "dtype", None) != float:
        return [cell(v) for v in column]
    # a float64 array: one tolist() and one repr per cell
    null, isfinite = cell(None), math.isfinite
    return [repr(v) if isfinite(v) else null for v in column.tolist()]


def table_text(columns: dict, fmt: str) -> str:
    """Equal-length columns, keyed by name, as text with a final newline: a
    JSON array of one flat object per row, or a CSV header row and one line
    per row. A column is a float64 array or a list of cells; no row object
    is made.

    The rows are cut into blocks of at most ``parallel.MIN_BYTES_PER_WORKER``
    bytes of text, which ``parallel.ordered_map`` formats and this function
    joins in order: the same text on one process as on many. A table that
    weighs enough for the map's size rule is then formatted on forked
    workers as well, so, like ``sweep_analyze``, it is safe only while no
    other thread runs. A name that is not a str raises TypeError here,
    before any fork; a cell that is not a JSON or CSV cell raises
    TypeError, from the first block that holds one."""
    names = [encode_basestring_ascii(name) for name in columns]  # str names only
    cell = _json_cell if fmt == "json" else _csv_cell
    if fmt == "csv":
        # a lone empty cell is written "", as csv.writer writes it
        sep, row = "\n", lambda cells: ",".join(cells) or '""'
    else:
        # one template per row object; a % in a name must not act as a format
        template = _layout([name.replace("%", "%%") + ": %s" for name in names], "{}")
        sep, row = ",\n  ", template.replace("\n", "\n  ").__mod__

    def block(bounds):
        rows = zip(*(_cells(c[slice(*bounds)], cell) for c in columns.values()))
        return sep.join(map(row, rows))

    n = min(map(len, columns.values()), default=0)
    # a row weighs the most text it can write: 24 bytes is the longest float64 repr
    per_row = len(row(("",) * len(names))) + len(sep) + 24 * len(names)
    run = max(1, parallel.MIN_BYTES_PER_WORKER // per_row)
    bounds = [(a, min(a + run, n)) for a in range(0, n, run)]
    blocks = parallel.ordered_map(block, bounds, [(b - a) * per_row for a, b in bounds])
    if fmt == "csv":
        return "\n".join([row(map(_csv_cell, columns)), *blocks]) + "\n"
    return f"[\n  {sep.join(blocks)}\n]\n" if blocks else "[]\n"


def fit_record(result: NotchFitResult) -> dict:
    """The fit block of report.json and of ``cpwloss fit``."""
    return {
        **asdict(result.params),
        "qi": result.qi,
        "stderr": dict(sorted(result.stderr.items())),
        "rms_residual": result.rms_residual,
        "n_points": result.n_points,
        "flags": list(result.flags),
    }


def _rows(columns: dict) -> list[dict]:
    """Equal-length columns, keyed by name, as one object per row; an array
    column gives Python floats and bools."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*cells)]


def _per_temperature(report: AnalysisReport) -> list[dict]:
    """The per_temperature entries of report.json, one per fitted trace."""
    film = report.film
    return _rows({
        "temperature_k": [tags.temperature_k for tags, _ in report.fits],
        "source": [tags.source for tags, _ in report.fits],
        "fit": [fit_record(fit) for _, fit in report.fits],
        "delta_f_hz": report.delta_f_hz,
        "budget": _rows(report.budget),
        "delta_qp_theory": report.delta_qp_theory,
        "excess_loss": report.excess_loss,
        "excess_negative": report.excess_negative,
        "sigma": _rows({
            "sigma1_norm": film.sigma1_norm,
            "sigma2_norm": film.sigma2_norm,
            "sigma1_s_per_m": film.sigma1_s_per_m,
            "sigma2_s_per_m": film.sigma2_s_per_m,
        }),
    })


def report_to_dict(report: AnalysisReport) -> dict:
    """The report.json document; the writer maps its NaN/inf to null."""
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            **report.provenance,
            "csv_schemas": {
                name: ",".join(header for header, _ in columns)
                for name, columns in sorted(_CSV_COLUMNS.items())
            },
        },
        "derived": report.derived,
        "per_temperature": _per_temperature(report),
        "failures": [asdict(f) for f in report.failures],
    }


def emit_report(report: AnalysisReport, out_dir: str | Path) -> list[Path]:
    """Write report.json (always) and the CSV tables (when there are entries).

    The CSV cells are read from report.json's per-temperature entries.
    Returns the list of files written. I/O failures propagate as OSError
    with the offending path in the message.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report_to_dict(report)
    entries = doc["per_temperature"]
    texts = {"report.json": to_json(doc) + "\n"}
    for name, columns in _CSV_COLUMNS.items() if entries else ():
        cells = {h: [reduce(getitem, p.split("."), e) for e in entries] for h, p in columns}
        texts[name] = table_text(cells, "csv")
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in texts]
