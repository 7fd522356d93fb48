"""Trace and transport-series ingestion.

Supported inputs:

* S21 CSV, header ``freq_hz,s21_re,s21_im`` or ``freq_hz,s21_db,s21_deg``
  (auto-detected), one row per point, UTF-8, ``.`` decimal separator.
  Optional ``# temperature_K=...`` and ``# power_dbm=...`` comment headers.
* Touchstone v1 ``.s2p``, RI and DB/ANG formats; the S21 column is
  extracted. ``! temperature_K=...`` comment tags are honoured.
* R(T) CSV, header ``temperature_K,resistance_ohm``.

Malformed rows raise :class:`InputError` with a 1-based line number.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from ..errors import DataQualityWarning, InputError
from ..resfit import S21Trace

_CSV_HEADERS = {
    "freq_hz,s21_re,s21_im": "ri",
    "freq_hz,s21_db,s21_deg": "db",
}

_META_KEYS = {"temperature_k": "temperature_k", "power_dbm": "power_dbm"}


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


def _finish_trace(freq, s21, meta, path) -> S21Trace:
    freq = np.asarray(freq, dtype=float)
    s21 = np.asarray(s21, dtype=complex)
    if freq.size == 0:
        raise InputError(f"{path}: no data rows")
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
    mode = None
    freq: list[float] = []
    vals: list[complex] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_meta_comment(line, meta)
            continue
        if mode is None:
            header = ",".join(tok.strip().lower() for tok in line.split(","))
            if header not in _CSV_HEADERS:
                raise InputError(
                    f"{path}:{lineno}: unrecognized S21 CSV header {line!r}"
                )
            mode = _CSV_HEADERS[header]
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if len(tokens) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 columns, got {len(tokens)}")
        try:
            a, b, c = (float(tok) for tok in tokens)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        freq.append(a)
        if mode == "ri":
            vals.append(complex(b, c))
        else:
            mag = 10.0 ** (b / 20.0)
            ang = math.radians(c)
            vals.append(complex(mag * math.cos(ang), mag * math.sin(ang)))
    if mode is None:
        raise InputError(f"{path}: empty file (no header found)")
    return _finish_trace(freq, vals, meta, path)


_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_touchstone(text: str, path) -> S21Trace:
    meta: dict = {}
    unit = 1e9
    fmt = "ma"
    saw_option = False
    freq: list[float] = []
    vals: list[complex] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip() if not raw.lstrip().startswith("!") else ""
        if raw.lstrip().startswith("!"):
            _parse_meta_comment(raw.strip(), meta)
            continue
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            saw_option = True
            for tok in tokens:
                low = tok.lower()
                if low in _TS_UNITS:
                    unit = _TS_UNITS[low]
                elif low in ("ri", "db", "ma"):
                    fmt = low
            continue
        tokens = line.split()
        if len(tokens) != 9:
            raise InputError(
                f"{path}:{lineno}: expected 9 columns for a 2-port row, "
                f"got {len(tokens)}"
            )
        try:
            nums = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if fmt == "ma":
            raise InputError(
                f"{path}: MA-format touchstone is not supported; use RI or DB"
            )
        freq.append(nums[0] * unit)
        a, b = nums[3], nums[4]
        if fmt == "ri":
            vals.append(complex(a, b))
        else:
            mag = 10.0 ** (a / 20.0)
            ang = math.radians(b)
            vals.append(complex(mag * math.cos(ang), mag * math.sin(ang)))
    if not saw_option and not freq:
        raise InputError(f"{path}: empty touchstone file")
    return _finish_trace(freq, vals, meta, path)


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
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc
    if fmt == "csv":
        return _parse_s21_csv(text, p)
    return _parse_touchstone(text, p)


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
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc
    temps: list[float] = []
    res: list[float] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            header = ",".join(tok.strip().lower() for tok in line.split(","))
            if header != "temperature_k,resistance_ohm":
                raise InputError(f"{p}:{lineno}: unrecognized R(T) header {line!r}")
            saw_header = True
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if len(tokens) != 2:
            raise InputError(f"{p}:{lineno}: expected 2 columns, got {len(tokens)}")
        try:
            t, r = float(tokens[0]), float(tokens[1])
        except ValueError as exc:
            raise InputError(f"{p}:{lineno}: {exc}") from exc
        if r < 0:
            raise InputError(f"{p}:{lineno}: negative resistance {r}")
        temps.append(t)
        res.append(r)
    if not saw_header:
        raise InputError(f"{p}: empty file (no header found)")
    if not temps:
        raise InputError(f"{p}: no data rows")
    t_arr = np.asarray(temps)
    r_arr = np.asarray(res)
    order = np.argsort(t_arr, kind="stable")
    t_arr, r_arr = t_arr[order], r_arr[order]
    if np.any(np.diff(t_arr) == 0):
        warnings.warn(
            f"{p}: duplicate temperatures averaged", DataQualityWarning, stacklevel=2
        )
        uniq, inverse = np.unique(t_arr, return_inverse=True)
        summed = np.zeros_like(uniq)
        counts = np.zeros_like(uniq)
        np.add.at(summed, inverse, r_arr)
        np.add.at(counts, inverse, 1.0)
        t_arr, r_arr = uniq, summed / counts
    return t_arr, r_arr
