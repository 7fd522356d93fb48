"""Trace and transport-series ingestion.

Supported inputs:

* S21 CSV, header ``freq_hz,s21_re,s21_im`` or ``freq_hz,s21_db,s21_deg``
  (auto-detected), one row per point, UTF-8, ``.`` decimal separator.
  Optional ``# temperature_K=...`` and ``# power_dbm=...`` comment headers.
* Touchstone v1 ``.s2p``, RI and DB/ANG formats; the S21 column is
  extracted. ``! temperature_K=...`` comment tags are honoured, and the
  last ``#`` option line applies to every data row.
* R(T) CSV, header ``temperature_K,resistance_ohm``; ``#`` lines are
  ignored.

Data rows are parsed with numpy's number syntax (``1e9``, ``-0.5``,
``.25``); forms that only Python's ``float`` accepts, such as ``1_000``,
are input errors. Malformed rows, including non-finite numbers, raise
:class:`InputError` with a 1-based line number.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from ..errors import DataQualityWarning, InputError
from ..resfit import S21Trace

_CSV_HEADERS = {
    "freq_hz,s21_re,s21_im": "ri",
    "freq_hz,s21_db,s21_deg": "db",
}

_RT_HEADERS = {"temperature_k,resistance_ohm": "rt"}

_META_KEYS = {"temperature_k": "temperature_k", "power_dbm": "power_dbm"}


def _read_text(p: Path) -> str:
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc


def _parse_meta_comment(line: str, meta: dict) -> None:
    body = line.lstrip("#!").strip()
    if "=" not in body:
        return
    key, _, value = body.partition("=")
    key_norm = key.strip().lower()
    if key_norm in _META_KEYS:
        try:
            meta[_META_KEYS[key_norm]] = float(value.strip())
        except ValueError:
            raise InputError(f"bad metadata value in comment: {line.strip()!r}")


def _numbers(lines: list[str], ncols: int, delimiter: str | None) -> np.ndarray:
    table = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    if table.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns, got {table.shape[1]}")
    return table


def _table(rows: list[tuple[int, str]], ncols: int, delimiter: str | None, path):
    """(n, ncols) float array of numbered data rows, parsed in one call.

    Only when that call fails are the rows parsed one at a time, to name
    the first bad line.
    """
    if not rows:
        raise InputError(f"{path}: no data rows")
    try:
        table = _numbers([line for _, line in rows], ncols, delimiter)
    except ValueError as exc:
        for lineno, line in rows:
            try:
                _numbers([line], ncols, delimiter)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: expected {ncols} numbers, got {line!r}"
                ) from None
        raise InputError(f"{path}: {exc}") from exc
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        lineno, line = rows[int(np.argmin(finite))]
        raise InputError(f"{path}:{lineno}: non-finite number in {line!r}")
    return table


def _csv_table(text: str, path, headers: dict, kind: str, meta: dict | None):
    """Split a CSV document by the shared line grammar and parse its data.

    Blank lines are skipped and ``#`` lines are comments (read for metadata
    tags when ``meta`` is given); the first other line is the header, which
    must be one of ``headers``; every later line is a data row. Returns the
    header's mode, the numbered data rows and their float table.
    """
    mode = None
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if meta is not None:
                _parse_meta_comment(line, meta)
            continue
        if mode is None:
            header = ",".join(tok.strip().lower() for tok in line.split(","))
            if header not in headers:
                raise InputError(f"{path}:{lineno}: unrecognized {kind} header {line!r}")
            mode = headers[header]
            ncols = header.count(",") + 1
            continue
        rows.append((lineno, line))
    if mode is None:
        raise InputError(f"{path}: empty file (no header found)")
    return mode, rows, _table(rows, ncols, ",", path)


def _s21(mode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex S21 from a column pair: real and imaginary parts for "ri",
    magnitude in dB and phase in degrees for "db"."""
    if mode == "db":
        mag = 10.0 ** (a / 20.0)
        ang = np.radians(b)
        a, b = mag * np.cos(ang), mag * np.sin(ang)
    s21 = np.empty(a.shape, dtype=complex)
    s21.real, s21.imag = a, b
    return s21


def _finish_trace(freq, s21, meta, path) -> S21Trace:
    order = np.argsort(freq, kind="stable")
    if not np.array_equal(order, np.arange(freq.size)):
        warnings.warn(
            f"{path}: frequency column was not monotone; rows sorted",
            DataQualityWarning,
            stacklevel=3,
        )
        freq, s21 = freq[order], s21[order]
    if np.any(np.diff(freq) <= 0):
        raise InputError(f"{path}: duplicate frequency points")
    try:
        return S21Trace(
            freq,
            s21,
            temperature_k=meta.get("temperature_k"),
            power_dbm=meta.get("power_dbm"),
            source=str(path),
        )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_s21_csv(text: str, path) -> S21Trace:
    meta: dict = {}
    mode, _, table = _csv_table(text, path, _CSV_HEADERS, "S21 CSV", meta)
    return _finish_trace(table[:, 0], _s21(mode, table[:, 1], table[:, 2]), meta, path)


_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_touchstone(text: str, path) -> S21Trace:
    meta: dict = {}
    unit = 1e9
    fmt = "ma"
    saw_option = False
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("!"):
            _parse_meta_comment(raw.strip(), meta)
            continue
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            saw_option = True
            for tok in line[1:].split():
                low = tok.lower()
                if low in _TS_UNITS:
                    unit = _TS_UNITS[low]
                elif low in ("ri", "db", "ma"):
                    fmt = low
            continue
        rows.append((lineno, line))
    if not saw_option and not rows:
        raise InputError(f"{path}: empty touchstone file")
    if fmt == "ma":
        raise InputError(f"{path}: MA-format touchstone is not supported; use RI or DB")
    table = _table(rows, 9, None, path)
    return _finish_trace(table[:, 0] * unit, _s21(fmt, table[:, 3], table[:, 4]), meta, path)


def ingest_s21(path: str | Path, fmt: str = "auto") -> S21Trace:
    """Read the S21 trace of a CSV or touchstone file.

    Args:
        path: input file.
        fmt: "csv", "touchstone", or "auto" (by file extension).

    Returns:
        The validated trace.
    """
    p = Path(path)
    if fmt == "auto":
        fmt = "touchstone" if p.suffix.lower() in (".s2p", ".snp") else "csv"
    if fmt not in ("csv", "touchstone"):
        raise InputError(f"unknown trace format {fmt!r}")
    text = _read_text(p)
    parse = _parse_s21_csv if fmt == "csv" else _parse_touchstone
    # a dB magnitude or a frequency unit can overflow to inf; S21Trace then
    # rejects the trace as non-finite, so the float warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        return parse(text, p)


def write_s21_csv(path: str | Path, trace: S21Trace) -> None:
    """Write a trace in the re/im CSV format, with metadata comments."""
    p = Path(path)
    lines = []
    if trace.temperature_k is not None:
        lines.append(f"# temperature_K={trace.temperature_k!r}")
    if trace.power_dbm is not None:
        lines.append(f"# power_dbm={trace.power_dbm!r}")
    lines.append("freq_hz,s21_re,s21_im")
    for f, z in zip(trace.freq_hz, trace.s21):
        lines.append(f"{float(f)!r},{float(z.real)!r},{float(z.imag)!r}")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ingest_rt(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read an R(T) series; returns ascending (temperature_K, resistance_ohm).

    Duplicate temperatures are averaged with a warning; negative resistance
    is an error.
    """
    p = Path(path)
    _, rows, table = _csv_table(_read_text(p), p, _RT_HEADERS, "R(T)", None)
    negative = table[:, 1] < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise InputError(f"{p}:{rows[i][0]}: negative resistance {table[i, 1]}")
    order = np.argsort(table[:, 0], kind="stable")
    t_arr, r_arr = table[order, 0], table[order, 1]
    if np.any(t_arr[1:] == t_arr[:-1]):
        warnings.warn(
            f"{p}: duplicate temperatures averaged", DataQualityWarning, stacklevel=2
        )
        t_arr, inverse, counts = np.unique(t_arr, return_inverse=True, return_counts=True)
        r_arr = np.bincount(inverse, weights=r_arr) / counts
    return t_arr, r_arr
