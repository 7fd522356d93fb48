#!/usr/bin/env python3
"""Scan drive power against average intra-resonator photon number.

Prints the photon number over a feedline power range and the power needed
to reach the single-photon point, for a given (Qi, |Qc|) pair. The budget
reads Ql = 1/(1/Qi + 1/|Qc|) and |Qc|, the two Q's of the phi = 0 hanger.

Usage:
    python scripts/photon_budget_scan.py [--qi QI] [--qc QC] [--freq-hz F]
"""

import argparse

import numpy as np

from cpwloss.photon import build_power_budget, power_for_photons


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qi", type=float, default=2.571e5)
    parser.add_argument("--qc", type=float, default=5e7)
    parser.add_argument("--freq-hz", type=float, default=5.95e9, dest="freq_hz")
    parser.add_argument("--pmin-dbm", type=float, default=-150.0, dest="pmin")
    parser.add_argument("--pmax-dbm", type=float, default=-100.0, dest="pmax")
    parser.add_argument("--steps", type=int, default=11)
    args = parser.parse_args()

    ql = 1.0 / (1.0 / args.qi + 1.0 / args.qc)
    print(f"Qi = {args.qi:.4g}, |Qc| = {args.qc:.4g}, Ql = {ql:.4g}")
    print(f"{'P_in (dBm)':>12} {'P_loss (W)':>12} {'<n_ph>':>12}")
    for p_in in np.linspace(args.pmin, args.pmax, args.steps):
        budget = build_power_budget(float(p_in), 0.0, ql, args.qc, args.freq_hz)
        print(f"{p_in:12.1f} {budget.p_loss_w:12.4e} {budget.n_ph:12.4g}")

    p_one = power_for_photons(1.0, ql, args.qc, args.freq_hz)
    print(f"\nsingle-photon drive power: {p_one:.2f} dBm")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
