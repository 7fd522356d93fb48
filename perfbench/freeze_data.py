#!/usr/bin/env python3
"""Regenerate perfbench/data/reference.json from the calibrated chain.

The benchmark never runs this script. It was run once, at the commit that
defined the benchmark, so that the inputs every later commit is measured
on come from a frozen table rather than from the code under test:

    PYTHONPATH=src python3 perfbench/freeze_data.py

The file holds the calibrated configuration document and, for each sweep
grid, the injected (temperature, resonance frequency, internal Q) rows.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from cpwloss.pipeline.forward import calibrate_sweep_config, reference_chain

OUT = Path(__file__).resolve().parent / "data" / "reference.json"

GRIDS = {
    "ref": [round(float(v), 4) for v in np.linspace(0.12, 2.9, 30)],
    "long": [round(float(v), 5) for v in np.linspace(0.12, 2.9, 240)],
    "dense": [round(float(v), 4) for v in np.linspace(0.12, 2.9, 24)],
}


def main() -> int:
    config = calibrate_sweep_config()
    grids = {}
    for name, temps in GRIDS.items():
        doc = dict(config, run=dict(config["run"], temperatures=temps))
        grids[name] = [
            [pt.temperature_k, pt.fr_hz, pt.qi_total] for pt in reference_chain(doc)
        ]
    payload = {
        "config": config,
        "notch": {
            "qc_mag": config["run"]["qc_mag"],
            "span_linewidths": config["run"]["span_linewidths"],
            "phi_rad": 0.0,
            "amp": 1.0,
            "phase0_rad": 0.0,
            "tau_s": 0.0,
        },
        "grids": grids,
    }
    # one table row, or one short list, per line
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
        json.dumps(payload, indent=1),
    )
    OUT.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
