"""Deterministic report emission: report.json plus plot-ready CSV tables.

This module is the one place that knows the output layout: the fit block
(shared with ``cpwloss fit``), the per-temperature entries of report.json,
the CSV columns, each of which is a field of those entries, and the text
of the ``cpwloss mb`` table.

Identical analyses produce byte-identical files: floats are serialized via
their shortest round-trip repr, key order is fixed, NaN/inf map to null
(an empty CSV cell), and entries are sorted by temperature. CSV schemas
are versioned in the report's provenance block.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

from ..resfit import NotchFitResult
from .sweep import AnalysisReport, TemperatureEntry

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

CSV_SCHEMAS = {
    name: ",".join(header for header, _ in columns)
    for name, columns in _CSV_COLUMNS.items()
}


def _finite(obj):
    """Copy of a JSON tree with every NaN/inf float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def to_json(obj) -> str:
    """Strict JSON text for report.json and CLI stdout: NaN/inf become null."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        # some float is NaN or inf; copying the tree only then spares
        # report.json, already made finite, a second walk
        return json.dumps(_finite(obj), indent=2, allow_nan=False)


def table_text(columns: dict, fmt: str) -> str:
    """A table of equal-length float arrays, keyed by column name, as stdout
    text with its final newline.

    ``fmt="json"`` gives the bytes of ``json.dumps(rows, indent=2)`` over one
    flat object per row, with NaN/inf as null; an empty table is ``[]``.
    ``fmt="csv"`` gives a header row and one line per row, with NaN/inf as
    an empty cell; an empty table is no text at all. The text is built per
    column, from one ``tolist()`` and one formatting pass each, so no row
    object is made and no JSON encoder runs.
    """
    null = "null" if fmt == "json" else ""
    isfinite = math.isfinite
    rows = zip(*(
        [repr(v) if isfinite(v) else null for v in c.tolist()]
        for c in columns.values()
    ))
    if fmt == "csv":
        lines = [",".join(row) for row in rows]
        return "\n".join([",".join(columns), *lines, ""]) if lines else ""
    # one indent=2 object per row; a % in a key must not act as a format
    keys = (json.dumps(name).replace("%", "%%") for name in columns)
    template = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
    body = ",\n".join(map(template.__mod__, rows))
    return f"[\n{body}\n]\n" if body else "[]\n"


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


def _entry_to_dict(e: TemperatureEntry) -> dict:
    return {
        "temperature_k": e.temperature_k,
        "source": e.source,
        "fit": fit_record(e.fit),
        "delta_f_hz": e.delta_f_hz,
        "budget": asdict(e.budget),
        "delta_qp_theory": e.delta_qp_theory,
        "excess_loss": e.excess_loss,
        "excess_negative": e.excess_negative,
        "sigma": {
            "sigma1_norm": e.sigma1_norm,
            "sigma2_norm": e.sigma2_norm,
            "sigma1_s_per_m": e.sigma1_s_per_m,
            "sigma2_s_per_m": e.sigma2_s_per_m,
        },
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """The report.json document, with every NaN/inf already null."""
    return _finite({
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            **report.provenance,
            "csv_schemas": dict(sorted(CSV_SCHEMAS.items())),
        },
        "derived": report.derived,
        "per_temperature": [_entry_to_dict(e) for e in report.entries],
        "failures": [asdict(f) for f in report.failures],
    })


def _cell(entry: dict, path: str) -> str:
    for key in path.split("."):
        entry = entry[key]
    if entry is None:
        return ""
    if isinstance(entry, bool):
        return "1" if entry else "0"
    return repr(float(entry))


def _csv_rows(entries: list[dict]) -> dict[str, list[str]]:
    return {
        name: [CSV_SCHEMAS[name]]
        + [",".join(_cell(e, path) for _, path in columns) for e in entries]
        for name, columns in _CSV_COLUMNS.items()
    }


def emit_report(report: AnalysisReport, out_dir: str | Path) -> list[Path]:
    """Write report.json (always) and the CSV tables (when there are entries).

    The CSV cells are read from report.json's per-temperature entries.
    Returns the list of files written. I/O failures propagate as OSError
    with the offending path in the message.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    doc = report_to_dict(report)
    json_path = out / "report.json"
    json_path.write_text(to_json(doc) + "\n", encoding="utf-8")
    written.append(json_path)
    entries = doc["per_temperature"]
    if entries:
        for name, lines in _csv_rows(entries).items():
            path = out / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written
