#!/usr/bin/env python3
"""End-to-end demonstration on a calibrated synthetic temperature sweep.

Calibrates the forward model to the reference anchor points
(Qi = 1e5 at 0.12 K, Qi = 7.421e3 at 2.9 K for a 5.95 GHz resonator on a
10.7 K / 159.5 ohm-per-square film), generates a noisy 30-temperature
sweep, runs the full analysis, and prints a compact summary table.

Usage:
    python scripts/run_reference_chain.py [--out DIR] [--seed N] [--noise S]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.report import emit_report
from cpwloss.pipeline.sweep import sweep_analyze


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="report directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=1e-3)
    args = parser.parse_args()

    doc = calibrate_sweep_config(
        temperatures=[round(v, 4) for v in np.linspace(0.12, 2.9, 30)],
        noise_sigma=args.noise,
        npoints=1001,
        seed=args.seed,
    )
    config = config_from_dict(doc)
    print(f"calibrated geometry factor g = {doc['fit']['geom_factor_per_m']:.4g} /m")
    print(f"kinetic-inductance fraction alpha = {doc['material']['alpha']:.4f}")
    print(f"TLS strength F*delta0 = {doc['tls']['f_delta0']:.4e}")

    traces = synth_sweep(config)
    report = sweep_analyze(traces, config)

    print(f"\n{'T (K)':>7} {'Qi_meas':>10} {'Qi_theory':>10} "
          f"{'df (kHz)':>10} {'nqp_th (um^-3)':>15}")
    for e in report.entries:
        print(
            f"{e.temperature_k:7.3f} {e.budget.qi_measured:10.0f} "
            f"{e.budget.qi_theory:10.0f} {e.delta_f_hz / 1e3:10.1f} "
            f"{e.budget.nqp_theory_per_um3:15.4g}"
        )
    print(f"\nred-shift onset: {report.derived['redshift_onset_k']} K")
    print(f"low-T density plateau: {report.derived['nqp_plateau_per_um3']} um^-3")

    out_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="cpwloss_"))
    written = emit_report(report, out_dir)
    print(f"\nwrote {len(written)} report files to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
