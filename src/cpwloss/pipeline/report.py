"""Deterministic report emission: report.json plus plot-ready CSV tables.

Identical analyses produce byte-identical files: floats are serialized via
their shortest round-trip repr, key order is fixed, NaN/inf map to null,
and entries are sorted by temperature. CSV schemas are versioned in the
report's provenance block.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from pathlib import Path

from .sweep import AnalysisReport, TemperatureEntry

SCHEMA_VERSION = 1

_TEMPERATURE = ("temperature_K", attrgetter("temperature_k"))

# one (header, value-of-entry) pair per column: the CSV header rows and the
# provenance schemas both come from this table
_CSV_COLUMNS = {
    "qi_vs_T.csv": (
        _TEMPERATURE,
        ("qi_measured", attrgetter("fit.qi")),
        ("qi_stderr", lambda e: e.fit.stderr.get("qi")),
        ("qi_theory", attrgetter("budget.qi_theory")),
        ("q_tls", attrgetter("budget.q_tls")),
        ("q_qp_theory", attrgetter("budget.q_qp_theory")),
    ),
    "df_vs_T.csv": (
        _TEMPERATURE,
        ("fr_hz", attrgetter("fit.params.fr_hz")),
        ("fr_stderr_hz", lambda e: e.fit.stderr.get("fr_hz")),
        ("delta_f_hz", attrgetter("delta_f_hz")),
    ),
    "sigma_vs_T.csv": (
        _TEMPERATURE,
        ("sigma1_norm", attrgetter("sigma1_norm")),
        ("sigma2_norm", attrgetter("sigma2_norm")),
        ("sigma1_s_per_m", attrgetter("sigma1_s_per_m")),
        ("sigma2_s_per_m", attrgetter("sigma2_s_per_m")),
    ),
    "nqp_vs_T.csv": (
        _TEMPERATURE,
        ("nqp_measured_per_um3", attrgetter("budget.nqp_measured_per_um3")),
        ("nqp_theory_per_um3", attrgetter("budget.nqp_theory_per_um3")),
        ("delta_qp_measured", attrgetter("budget.delta_qp_measured")),
        ("negative_loss", attrgetter("budget.negative_loss")),
    ),
}

CSV_SCHEMAS = {
    name: ",".join(header for header, _ in columns)
    for name, columns in _CSV_COLUMNS.items()
}


def _num(value):
    """JSON-safe number: finite floats pass through, NaN/inf become null."""
    if value is None:
        return None
    v = float(value)
    return v if math.isfinite(v) else None


def _finite(obj):
    if isinstance(obj, float):
        return _num(obj)
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
        # some float is NaN or inf; copying the tree only then keeps large
        # tables (cpwloss mb) from being held twice
        return json.dumps(_finite(obj), indent=2, allow_nan=False)


def _entry_to_dict(e: TemperatureEntry) -> dict:
    p = e.fit.params
    return {
        "temperature_k": _num(e.temperature_k),
        "source": e.source,
        "fit": {
            "fr_hz": _num(p.fr_hz),
            "ql": _num(p.ql),
            "qc_mag": _num(p.qc_mag),
            "phi_rad": _num(p.phi_rad),
            "amp": _num(p.amp),
            "phase0_rad": _num(p.phase0_rad),
            "tau_s": _num(p.tau_s),
            "qi": _num(e.fit.qi),
            "stderr": {k: _num(v) for k, v in sorted(e.fit.stderr.items())},
            "rms_residual": _num(e.fit.rms_residual),
            "n_points": e.fit.n_points,
            "flags": list(e.fit.flags),
        },
        "delta_f_hz": _num(e.delta_f_hz),
        "budget": {
            "q_tls": _num(e.budget.q_tls),
            "q_qp_theory": _num(e.budget.q_qp_theory),
            "qi_theory": _num(e.budget.qi_theory),
            "qi_measured": _num(e.budget.qi_measured),
            "delta_qp_measured": _num(e.budget.delta_qp_measured),
            "nqp_measured_per_um3": _num(e.budget.nqp_measured_per_um3),
            "nqp_theory_per_um3": _num(e.budget.nqp_theory_per_um3),
            "negative_loss": e.budget.negative_loss,
        },
        "delta_qp_theory": _num(e.delta_qp_theory),
        "excess_loss": _num(e.excess_loss),
        "excess_negative": e.excess_negative,
        "sigma": {
            "sigma1_norm": _num(e.sigma1_norm),
            "sigma2_norm": _num(e.sigma2_norm),
            "sigma1_s_per_m": _num(e.sigma1_s_per_m),
            "sigma2_s_per_m": _num(e.sigma2_s_per_m),
        },
    }


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            **report.provenance,
            "csv_schemas": dict(sorted(CSV_SCHEMAS.items())),
        },
        "derived": {k: (_num(v) if isinstance(v, float) else v)
                    for k, v in report.derived.items()},
        "per_temperature": [_entry_to_dict(e) for e in report.entries],
        "failures": [
            {
                "source": f.source,
                "temperature_k": _num(f.temperature_k),
                "error": f.error,
            }
            for f in report.failures
        ],
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value))


def _csv_rows(report: AnalysisReport) -> dict[str, list[str]]:
    return {
        name: [CSV_SCHEMAS[name]]
        + [",".join(_fmt(value(e)) for _, value in columns) for e in report.entries]
        for name, columns in _CSV_COLUMNS.items()
    }


def emit_report(report: AnalysisReport, out_dir: str | Path) -> list[Path]:
    """Write report.json (always) and the CSV tables (when there are entries).

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
    if report.entries:
        for name, lines in _csv_rows(report).items():
            path = out / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written
