"""Output checks for every invocation, and the benchmark's own theory.

Each check returns a list of problems; an empty list means the output is
correct. The closed-form conductivity here is the benchmark's own
evaluation, independent of cpwloss.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import special

from gen import MB_FREQ_HZ, MB_ROWS, Inputs, mb_temperatures

KB_EV = 8.617333262e-5
HBAR_EVS = 6.582119569e-16
MU0 = 1.25663706212e-6

QI_TOL = 0.05  # the acceptance suite's end-to-end Qi tolerance
ONSET_RANGE_K = (1.5, 2.0)
SPOT_ROWS = 64
SPOT_RTOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def load_strict(path: Path) -> tuple[object | None, list[str]]:
    try:
        return strict_json(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def check_sweep(
    workload: str, inputs: Inputs, report_path: Path
) -> tuple[list[str], list[float]]:
    """Check one sweep's report.json; return (problems, |Qi_fit/Qi_inj - 1|)."""
    doc, problems = load_strict(report_path)
    if problems:
        return problems, []
    try:
        entries = {e["source"]: e for e in doc["per_temperature"]}
        failed = {f["source"] for f in doc["failures"]}
        onset = doc["derived"]["redshift_onset_k"]
    except (KeyError, TypeError) as exc:
        return [f"report.json lacks {exc}"], []
    want_fit = {s.name: s.qi for s in inputs.traces if s.qi is not None}
    want_fail = {s.name for s in inputs.traces if s.qi is None}
    if set(entries) != set(want_fit):
        problems.append(
            f"fitted sources differ: missing {sorted(set(want_fit) - set(entries))[:3]}, "
            f"extra {sorted(set(entries) - set(want_fit))[:3]}"
        )
    if failed != want_fail:
        problems.append(f"failures hold {len(failed)} sources, want {len(want_fail)}")
    errors = []
    for name, qi in sorted(want_fit.items()):
        entry = entries.get(name)
        if entry is None:
            continue
        got = entry.get("budget", {}).get("qi_measured")
        if not isinstance(got, (int, float)):
            problems.append(f"{name}: qi_measured is {got!r}")
            continue
        err = abs(got / qi - 1.0)
        errors.append(err)
        if err > QI_TOL:
            problems.append(f"{name}: Qi {got:.6g} vs injected {qi:.6g}")
    if workload == "sweep_ref" and not (
        isinstance(onset, (int, float)) and ONSET_RANGE_K[0] <= onset <= ONSET_RANGE_K[1]
    ):
        problems.append(f"red-shift onset {onset!r} outside {ONSET_RANGE_K} K")
    return problems, errors


def mb_closed_form(temps, omega: float, delta0_ev: float):
    """Two-fluid sigma1/sigmaN and sigma2/sigmaN with the pi*delta0/hw prefactor."""
    kt = KB_EV * np.asarray(temps, dtype=float)
    hw = HBAR_EVS * omega
    xi = hw / (2.0 * kt)
    boltz = np.exp(-delta0_ev / kt)
    sigma1 = (4.0 * delta0_ev / hw) * boltz * np.sinh(xi) * special.k0(xi)
    sigma2 = (math.pi * delta0_ev / hw) * (
        1.0
        - np.sqrt(2.0 * math.pi * kt / delta0_ev) * boltz
        - 2.0 * boltz * np.exp(-xi) * special.i0(xi)
    )
    return sigma1, sigma2


def mb_reference(config: dict) -> tuple[float, float, float]:
    """(omega, delta0, sigma_n) of the `cpwloss mb` workload."""
    mat = config["material"]
    delta0 = mat.get("delta0_ev") or 1.76 * KB_EV * mat["tc_kelvin"]
    sigma_n = 1.0 / (mat["sheet_resistance_ohm"] * mat["thickness_m"])
    return 2.0 * math.pi * MB_FREQ_HZ, delta0, sigma_n


def check_mb(stdout_text: str, config: dict) -> list[str]:
    """Check the `cpwloss mb` table against the benchmark's closed form."""
    try:
        rows = strict_json(stdout_text)
        temps = np.array([r["temperature_k"] for r in rows], dtype=float)
        s1 = np.array([r["sigma1_norm"] for r in rows], dtype=float)
        s2 = np.array([r["sigma2_norm"] for r in rows], dtype=float)
        rs = np.array([r["rs_ohm_sq"] for r in rows], dtype=float)
        ls = np.array([r["ls_h_sq"] for r in rows], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stdout: {exc}"]
    if len(rows) != MB_ROWS:
        return [f"{len(rows)} rows, want {MB_ROWS}"]
    problems = []
    if not np.allclose(temps, mb_temperatures(), rtol=1e-12, atol=0.0):
        problems.append("temperature grid differs from the requested one")
    if not np.all(np.diff(s1) > 0):
        problems.append("sigma1 is not increasing in T")
    if not np.all(np.diff(s2) <= 0):
        problems.append("sigma2 is not non-increasing in T")
    omega, delta0, sigma_n = mb_reference(config)
    spot = np.linspace(0, MB_ROWS - 1, SPOT_ROWS).round().astype(int)
    w1, w2 = mb_closed_form(temps[spot], omega, delta0)
    zs = np.sqrt(1j * MU0 * omega / (sigma_n * (w1 - 1j * w2)))
    for name, got, want in (
        ("sigma1_norm", s1[spot], w1),
        ("sigma2_norm", s2[spot], w2),
        ("rs_ohm_sq", rs[spot], zs.real),
        ("ls_h_sq", ls[spot], zs.imag / omega),
    ):
        bad = ~np.isclose(got, want, rtol=SPOT_RTOL, atol=0.0)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{name} at T={temps[spot][i]:.6g}: {got[i]!r} vs {want[i]!r}")
    return problems
