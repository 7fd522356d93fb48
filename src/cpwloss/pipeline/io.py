"""Trace and transport-series ingestion.

Every text input shares one line grammar. The text is UTF-8, with or
without a leading byte-order mark, and is split into lines by
``str.splitlines``; each line is stripped of surrounding whitespace and
numbered from 1. A blank line is skipped. A line that starts with the
format's comment character is a comment: ``#`` in CSV and R(T) files, ``!``
in Touchstone. In trace files comments are read for the metadata tags
``temperature_K=...`` and ``power_dbm=...``; in Touchstone a trailing
``! comment`` is also cut off every other line. The remaining lines of each
format are:

* S21 CSV: the header ``freq_hz,s21_re,s21_im`` or ``freq_hz,s21_db,s21_deg``
  (auto-detected), then one row per point with ``,`` separators.
* Touchstone v1 ``.s2p``: ``#`` option lines before the first data row, RI
  and DB/ANG formats (the last unit and format token given applies to every
  data row), and rows of 9 whitespace-separated numbers; the S21 column is
  extracted. A ``#`` line after the first data row is a malformed row.
* R(T) CSV: the header ``temperature_K,resistance_ohm``, then the rows.

Data rows are parsed with numpy's number syntax (``1e9``, ``-0.5``,
``.25``); forms that only Python's ``float`` accepts, such as ``1_000``,
are input errors. Malformed rows, including non-finite numbers, and
metadata tags whose value is not a finite number raise :class:`InputError`
with a 1-based line number.

A reader splits its text once. The head, up to the first data row (the
comments, the CSV header or the Touchstone option lines), goes through the
numbered line scanner ``_lines``; the data block, from that row to the end,
goes to ``_table``, which parses it in one ``numpy.loadtxt`` call. Only when
that call fails (a bad or non-finite number, a wrong column count, a comment
line or a trailing comment) does ``_table`` number the data rows and read
them by the grammar above, so a file reads the same, and fails with the
same message and line, either way.
"""

from __future__ import annotations

import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from ..errors import DataQualityWarning, InputError
from ..resfit import S21Trace
from .report import table_text

_CSV_HEADERS = {"freq_hz,s21_re,s21_im": "ri", "freq_hz,s21_db,s21_deg": "db"}
_RT_HEADERS = {"temperature_k,resistance_ohm": "rt"}
_META_KEYS = ("temperature_k", "power_dbm")


def read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file; InputError when it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_text(p: Path, data: bytes | None = None) -> str:
    """The UTF-8 text of ``p``, decoded from ``data`` when it is given; a
    leading byte-order mark is dropped. Lines are split later by
    ``str.splitlines``, so the CR and CRLF line ends that text-mode reading
    would translate need no translation here.
    """
    if data is None:
        data = read_bytes(p)
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc


def _numbers(lines: list[str], ncols: int, delimiter: str | None) -> np.ndarray:
    table = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    if table.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns, got {table.shape[1]}")
    return table


def _table(lines: list[str], rows, ncols: int, delimiter: str | None, path):
    """The data rows of ``lines`` and their (n, ncols) float table.

    ``rows`` are the numbered rows from the first data row on, an iterator
    scanned only as it is taken. The raw lines from that row to the end are
    parsed in one call, which a comment line or a trailing comment also
    fails, as no number holds ``#`` or ``!``. Only when that call fails or
    a number is not finite are the rows taken (setting their tags), parsed
    again, and then parsed one at a time to name the first bad line. The
    rows are returned as taken: still an iterator after the one call.
    """
    first = next(rows, None)
    if first is None:
        raise InputError(f"{path}: no data rows")
    try:
        table = _numbers(lines[first[0] - 1 :], ncols, delimiter)
        if np.isfinite(table).all():
            return itertools.chain([first], rows), table
    except ValueError:
        pass
    rows = [first, *rows]
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
    return rows, table


def _lines(lines: list[str], path, comment: str, meta: dict | None = None, cut=False):
    """Yield ``(lineno, line)`` for each stripped line of ``lines`` that is
    neither blank nor a whole-line ``comment``, with a trailing comment cut
    off when ``cut`` is set; comment lines set the metadata tags in ``meta``
    when it is given. Lines are scanned only as they are taken, so a
    caller's error on an early line comes before a tag error on a later one.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == comment:
            key, eq, value = line.lstrip("#!").partition("=")
            key = key.strip().lower()
            if meta is None or not eq or key not in _META_KEYS:
                continue
            try:
                number = float(value.strip())
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise InputError(f"{path}:{lineno}: bad metadata value {line!r}")
            meta[key] = number
        elif cut and comment in line:
            yield lineno, line.split(comment, 1)[0].rstrip()
        else:
            yield lineno, line


def _csv_table(text: str, path, headers: dict, kind: str, meta: dict | None):
    """The header's mode, the numbered data rows and their float table of a
    CSV document; its first line is the header, one of ``headers``. The
    rows are an iterable, numbered only as they are taken."""
    lines = text.splitlines()
    numbered = _lines(lines, path, "#", meta)
    lineno, line = next(numbered, (None, None))
    if line is None:
        raise InputError(f"{path}: empty file (no header found)")
    header = ",".join(tok.strip().lower() for tok in line.split(","))
    if header not in headers:
        raise InputError(f"{path}:{lineno}: unrecognized {kind} header {line!r}")
    rows, table = _table(lines, numbered, header.count(",") + 1, ",", path)
    return headers[header], rows, table


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
    lines = text.splitlines()
    numbered = _lines(lines, path, "!", meta, cut=True)
    options, first = [], next(numbered, None)
    while first and first[1][0] == "#":  # the option lines, before the first data row
        options.append(first[1][1:])
        first = next(numbered, None)
    if not (options or first):
        raise InputError(f"{path}: empty touchstone file")
    unit, fmt = 1e9, "ma"
    # every token of the option lines, in order; a later one overrides
    for tok in " ".join(options).lower().split():
        if tok in _TS_UNITS:
            unit = _TS_UNITS[tok]
        elif tok in ("ri", "db", "ma"):
            fmt = tok
    if fmt == "ma":
        list(numbered)  # a bad tag in the data block is named first, as with RI or DB
        raise InputError(f"{path}: MA-format touchstone is not supported; use RI or DB")
    # the rows from the first data row on; a first row of None is no data row
    _, table = _table(lines, itertools.chain([first], numbered), 9, None, path)
    return _finish_trace(table[:, 0] * unit, _s21(fmt, table[:, 3], table[:, 4]), meta, path)


# the reader by trace-file suffix, in `fit` and `sweep` alike (any other
# suffix reads as CSV); a sweep directory yields only files with these suffixes
TRACE_SUFFIXES = {
    ".csv": _parse_s21_csv, ".s2p": _parse_touchstone, ".snp": _parse_touchstone
}


def ingest_s21(path: str | Path, data: bytes | None = None) -> S21Trace:
    """Read the S21 trace of a CSV or touchstone file, by its suffix
    (``TRACE_SUFFIXES``).

    Args:
        path: input file.
        data: the file's bytes, when the caller has read them already (to
            hash them, say); the file is then not read again.

    Returns:
        The validated trace.
    """
    p = Path(path)
    text = _read_text(p, data)
    parse = TRACE_SUFFIXES.get(p.suffix.lower(), _parse_s21_csv)
    # a dB magnitude or a frequency unit can overflow to inf; S21Trace then
    # rejects the trace as non-finite, so the float warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        return parse(text, p)


def write_s21_csv(path: str | Path, trace: S21Trace) -> None:
    """Write a trace in the re/im CSV format, with metadata comments."""
    tags = {"temperature_K": trace.temperature_k, "power_dbm": trace.power_dbm}
    text = "".join(f"# {k}={v!r}\n" for k, v in tags.items() if v is not None)
    columns = {"freq_hz": trace.freq_hz, "s21_re": trace.s21.real, "s21_im": trace.s21.imag}
    Path(path).write_text(text + table_text(columns, "csv"), encoding="utf-8")


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
        lineno = next(itertools.islice(rows, i, None))[0]
        raise InputError(f"{p}:{lineno}: negative resistance {table[i, 1]}")
    order = np.argsort(table[:, 0], kind="stable")
    t_arr, r_arr = table[order, 0], table[order, 1]
    if np.any(t_arr[1:] == t_arr[:-1]):
        warnings.warn(
            f"{p}: duplicate temperatures averaged", DataQualityWarning, stacklevel=2
        )
        t_arr, inverse, counts = np.unique(t_arr, return_inverse=True, return_counts=True)
        r_arr = np.bincount(inverse, weights=r_arr) / counts
    return t_arr, r_arr
