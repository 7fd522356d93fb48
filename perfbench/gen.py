"""Workloads: the inputs, generated from the frozen table in
data/reference.json, and the CLI command each workload runs on them.

Nothing here imports cpwloss: the notch formula, the noise and the three
file writers belong to the benchmark, so a change to the program's own
synthesis or writers cannot change what two commits are measured on.
The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "reference.json"
SRC = HERE.parent / "src"

MB_TMIN_K, MB_TMAX_K, MB_ROWS, MB_FREQ_HZ = 0.1, 3.0, 20000, 5.95e9
MB_ARGS = [
    "--tmin", repr(MB_TMIN_K), "--tmax", repr(MB_TMAX_K),
    "--points", str(MB_ROWS), "--freq-hz", repr(MB_FREQ_HZ),
]


def mb_temperatures():
    return np.linspace(MB_TMIN_K, MB_TMAX_K, MB_ROWS)


def cli_args(workload: str) -> list[str]:
    """The CLI arguments of a workload, relative to its input directory."""
    if workload == "theory_table":
        return ["mb", "--config", "config.json", *MB_ARGS]
    return ["sweep", "traces", "--config", "config.json", "--out", "out"]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class TraceSpec:
    """One generated trace file and what was injected into it."""

    name: str
    qi: float | None  # None: resonance-free
    points: int


@dataclass(frozen=True)
class Inputs:
    """A generated input set: the config file, trace files and their digest."""

    config: Path
    traces: tuple[TraceSpec, ...]
    points: int
    bytes: int
    sha256: str


def load_reference() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def notch_s21(freq, fr, ql, qc, phi, amp, phase0, tau):
    """Diameter-corrected notch model (Khalil 2012, Probst 2015)."""
    detune = 1.0 + 2j * ql * (freq / fr - 1.0)
    env = amp * np.exp(1j * (phase0 - 2.0 * np.pi * freq * tau))
    return env * (1.0 - (ql / qc) * np.exp(1j * phi) / detune)


def _grid(fr, ql, span_linewidths, points):
    half = 0.5 * span_linewidths * fr / ql
    return np.linspace(fr - half, fr + half, points)


def _loaded_q(qi, qc, phi):
    return 1.0 / (1.0 / qi + math.cos(phi) / qc)


def write_ri_csv(path: Path, temperature_k: float, freq, s21) -> None:
    rows = [f"# temperature_K={temperature_k!r}", "freq_hz,s21_re,s21_im"]
    rows += [f"{f!r},{z.real!r},{z.imag!r}" for f, z in zip(freq.tolist(), s21.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _db_deg(s21):
    return 20.0 * np.log10(np.abs(s21)), np.degrees(np.angle(s21))


def write_db_csv(path: Path, temperature_k: float, freq, s21) -> None:
    db, deg = _db_deg(s21)
    rows = [f"# temperature_K={temperature_k!r}", "freq_hz,s21_db,s21_deg"]
    rows += [
        f"{f!r},{a!r},{b!r}" for f, a, b in zip(freq.tolist(), db.tolist(), deg.tolist())
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_touchstone_db(path: Path, temperature_k: float, freq, s21) -> None:
    """Two-port Touchstone v1, DB/angle, Hz; S11 = S22 = 0, S12 = S21."""
    db, deg = _db_deg(s21)
    rows = [f"! temperature_K={temperature_k!r}", "# Hz S DB R 50"]
    rows += [
        f"{f!r} -200.0 0.0 {a!r} {b!r} {a!r} {b!r} -200.0 0.0"
        for f, a, b in zip(freq.tolist(), db.tolist(), deg.tolist())
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


WRITERS = {".csv": write_ri_csv, ".db.csv": write_db_csv, ".s2p": write_touchstone_db}


def _sweep_plan(workload: str, ref: dict):
    """(temperature, fr, qi or None, points, suffix, noise) rows for a workload."""
    grids = ref["grids"]
    if workload == "sweep_ref":
        return [(t, fr, qi, 1001, ".csv", 1e-3) for t, fr, qi in grids["ref"]]
    if workload == "sweep_long":
        rows = [(t, fr, qi, 1001, ".csv", 1e-3) for t, fr, qi in grids["long"]]
        # 16 resonance-free traces, tagged midway between fittable neighbours
        for k in range(16):
            i = 7 + 15 * k
            t_a, fr, qi = grids["long"][i]
            t_mid = round(0.5 * (t_a + grids["long"][i + 1][0]), 6)
            rows.append((t_mid, fr, qi, 1001, ".csv", None))
        return rows
    if workload == "sweep_dense":
        counts = np.round(np.linspace(4001, 16001, 24)).astype(int).tolist()
        # a fixed shuffle, so point count does not grow with temperature
        order = [(7 * i) % 24 for i in range(24)]
        suffixes = (".csv", ".db.csv", ".s2p")
        return [
            (t, fr, qi, counts[order[i]], suffixes[i % 3], 3e-3)
            for i, (t, fr, qi) in enumerate(grids["dense"])
        ]
    raise ValueError(f"no sweep plan for workload {workload!r}")


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's config and trace files under ``out_dir``."""
    ref = load_reference()
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps(ref["config"], indent=2) + "\n", encoding="utf-8")
    specs: list[TraceSpec] = []
    if workload != "theory_table":
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        nt = ref["notch"]
        plan = _sweep_plan(workload, ref)
        streams = np.random.SeedSequence([seed, len(plan)]).spawn(len(plan))
        for (t, fr, qi, points, suffix, noise), stream in zip(plan, streams):
            rng = np.random.default_rng(stream)
            ql = _loaded_q(qi, nt["qc_mag"], nt["phi_rad"])
            freq = _grid(fr, ql, nt["span_linewidths"], points)
            env = (nt["phi_rad"], nt["amp"], nt["phase0_rad"], nt["tau_s"])
            if noise is None:
                # flat baseline (infinite Qc) with bounded noise of sigma 1e-3:
                # no draw can fake a dip, so the reject is certain for every seed
                half = math.sqrt(3.0) * 1e-3
                s21 = notch_s21(freq, fr, ql, math.inf, *env)
                s21 = s21 + rng.uniform(-half, half, points) + 1j * rng.uniform(
                    -half, half, points
                )
            else:
                s21 = notch_s21(freq, fr, ql, nt["qc_mag"], *env)
                s21 = s21 + noise * (
                    rng.standard_normal(points) + 1j * rng.standard_normal(points)
                )
            name = f"s21_T{t:08.5f}K{suffix}"
            WRITERS[suffix](trace_dir / name, t, freq, s21)
            specs.append(TraceSpec(f"traces/{name}", None if noise is None else qi, points))
    specs.sort(key=lambda s: s.name)
    digest = hashlib.sha256()
    for name in ["config.json"] + [s.name for s in specs]:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return Inputs(
        config=config,
        traces=tuple(specs),
        points=sum(s.points for s in specs),
        bytes=sum((out_dir / s.name).stat().st_size for s in specs),
        sha256=digest.hexdigest(),
    )
