"""Command-line interface.

Subcommands: mb (conductivity tables), fit (single-trace notch fit),
sweep (temperature-sweep analysis), photon (power/photon budget),
synth (synthetic traces and sweeps), dc (Tc/RRR extraction),
xrd (lattice constant).

Exit codes: 0 success, 1 input/format error, 2 fit/convergence error,
3 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .constants import angular_frequency
from .errors import ConfigError, CpwLossError, FitError, InputError, QuadratureError
from .impedance import surface_impedance
from .mbcore import complex_conductivity
from .photon import build_power_budget, power_for_photons
from .pipeline.config import AnalysisConfig, load_config
from .pipeline.dc import extract_tc_rrr
from .pipeline.forward import synth_sweep
from .pipeline.io import ingest_rt, ingest_s21, write_s21_csv
from .pipeline.report import emit_report, to_json
from .pipeline.sweep import dataset_from_config, sweep_analyze
from .pipeline.xrd import CU_KALPHA1_ANGSTROM, lattice_constant
from .resfit import NotchParams, fit_notch, synth_trace


def _emit(rows, args, columns=None) -> None:
    """Print a dict or list of dicts as JSON (default) or CSV."""
    if args.format == "json":
        print(to_json(rows))
        return
    items = rows if isinstance(rows, list) else [rows]
    if not items:
        return
    cols = columns or list(items[0].keys())
    print(",".join(cols))
    for item in items:
        print(",".join("" if item.get(c) is None else repr(item[c]) for c in cols))


def _require_config(args) -> AnalysisConfig:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return load_config(args.config)


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_mb(args) -> int:
    config = _require_config(args)
    config.require("material")
    temps = np.linspace(args.tmin, args.tmax, args.points)
    sigma = complex_conductivity(
        config.material, temps, angular_frequency(args.freq_hz),
        config.fit.sigma2_prefactor,
    )
    zs = surface_impedance(sigma)
    columns = {
        "temperature_k": temps,
        "sigma1_norm": sigma.sigma1_norm,
        "sigma2_norm": sigma.sigma2_norm,
        "sigma1_s_per_m": sigma.sigma1,
        "sigma2_s_per_m": sigma.sigma2,
        "rs_ohm_sq": zs.rs_ohm,
        "ls_h_sq": zs.ls_henry,
    }
    rows = [
        dict(zip(columns, row))
        for row in zip(*(c.tolist() for c in columns.values()))
    ]
    _emit(rows, args)
    return 0


def cmd_fit(args) -> int:
    trace = ingest_s21(args.trace, fmt=args.trace_format)
    result = fit_notch(trace)
    p = result.params
    out = {
        "source": trace.source,
        "fr_hz": p.fr_hz,
        "ql": p.ql,
        "qc_mag": p.qc_mag,
        "phi_rad": p.phi_rad,
        "amp": p.amp,
        "phase0_rad": p.phase0_rad,
        "tau_s": p.tau_s,
        "qi": result.qi,
        "rms_residual": result.rms_residual,
        "n_points": result.n_points,
        "flags": list(result.flags),
        "stderr": result.stderr,
    }
    if args.format == "csv":
        flat = {k: v for k, v in out.items() if not isinstance(v, (dict, list))}
        _emit(flat, args)
    else:
        _emit(out, args)
    return 0


def _collect_inputs(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.is_file()))
        elif p.exists():
            files.append(p)
        else:
            raise InputError(f"input not found: {p}")
    if not files:
        raise InputError("no input files")
    return files


def cmd_sweep(args) -> int:
    config = _require_config(args)
    files = _collect_inputs(args.inputs)
    traces = [ingest_s21(f) for f in files]
    dataset = dataset_from_config(traces, config)
    provenance = {
        "tool": "cpwloss",
        "tool_version": __version__,
        "config_sha256": config.digest,
        "inputs": [
            {"path": str(f), "sha256": _file_sha256(f)} for f in files
        ],
    }
    report = sweep_analyze(dataset, provenance=provenance)
    out_dir = Path(args.out or ".")
    written = emit_report(report, out_dir)
    print(
        f"analyzed {len(report.entries)} temperatures "
        f"({len(report.failures)} failed); wrote {len(written)} files to {out_dir}"
    )
    return 0


def cmd_photon(args) -> int:
    if args.n_target is not None:
        p_in = power_for_photons(
            args.n_target, args.qi, args.ql, args.qc, args.freq_hz
        )
        _emit({"n_target": args.n_target, "p_in_dbm": p_in}, args)
        return 0
    if args.pin_dbm is not None:
        p_vna, p_att = args.pin_dbm, 0.0
    elif args.pvna_dbm is not None:
        p_vna, p_att = args.pvna_dbm, args.att_db
    else:
        raise InputError("photon needs --pin-dbm, --pvna-dbm/--att-db or --n-target")
    budget = build_power_budget(p_vna, p_att, args.ql, args.qc, args.qi, args.freq_hz)
    _emit(
        {
            "p_vna_dbm": budget.p_vna_dbm,
            "p_att_db": budget.p_att_db,
            "p_in_dbm": budget.p_in_dbm,
            "s21_mag": budget.s21_mag,
            "s11_mag": budget.s11_mag,
            "p_loss_w": budget.p_loss_w,
            "n_ph": budget.n_ph,
        },
        args,
    )
    return 0


def cmd_synth(args) -> int:
    if args.kind == "sweep":
        config = _require_config(args)
        if args.seed is not None:
            config = replace(config, run=replace(config.run, seed=args.seed))
        traces = synth_sweep(config)
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for trace in traces:
            name = f"s21_T{trace.temperature_k:.4f}K.csv"
            write_s21_csv(out_dir / name, trace)
        print(f"wrote {len(traces)} traces to {out_dir}")
        return 0
    params = NotchParams(
        fr_hz=args.fr_hz,
        ql=args.ql,
        qc_mag=args.qc,
        phi_rad=args.phi,
        amp=args.amp,
        phase0_rad=args.phase0,
        tau_s=args.tau,
    )
    half_span = 0.5 * args.span_linewidths * args.fr_hz / args.ql
    grid = np.linspace(args.fr_hz - half_span, args.fr_hz + half_span, args.points)
    trace = synth_trace(
        params, grid, noise_sigma=args.noise, seed=args.seed or 0,
        temperature_k=args.temperature,
    )
    out_path = Path(args.out or "trace.csv")
    if out_path.is_dir():
        out_path = out_path / "trace.csv"
    write_s21_csv(out_path, trace)
    print(f"wrote {out_path}")
    return 0


def cmd_dc(args) -> int:
    t, r = ingest_rt(args.rt_file)
    result = extract_tc_rrr(t, r)
    _emit(
        {
            "tc_kelvin": result.tc_kelvin,
            "r_sq_tc_ohm": result.r_sq_tc_ohm,
            "rrr": result.rrr,
            "t10_kelvin": result.t10_kelvin,
            "t90_kelvin": result.t90_kelvin,
        },
        args,
    )
    return 0


def cmd_xrd(args) -> int:
    a = lattice_constant(args.two_theta, tuple(args.hkl), args.wavelength)
    _emit(
        {
            "two_theta_deg": args.two_theta,
            "hkl": "".join(str(v) for v in args.hkl),
            "wavelength_angstrom": args.wavelength,
            "lattice_constant_angstrom": a,
        },
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpwloss",
        description="Loss modelling and notch-resonance analysis for "
        "superconducting CPW resonators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON configuration document")
    common.add_argument("--out", help="output directory (or file for synth traces)")
    common.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="stdout format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mb = sub.add_parser("mb", parents=[common], help="conductivity table vs T")
    p_mb.add_argument("--tmin", type=float, default=0.1)
    p_mb.add_argument("--tmax", type=float, default=3.0)
    p_mb.add_argument("--points", type=int, default=30)
    p_mb.add_argument("--freq-hz", type=float, default=5.95e9, dest="freq_hz")
    p_mb.set_defaults(func=cmd_mb)

    p_fit = sub.add_parser("fit", parents=[common], help="fit one S21 trace")
    p_fit.add_argument("trace", help="trace file (CSV or .s2p)")
    p_fit.add_argument(
        "--trace-format", choices=("auto", "csv", "touchstone"), default="auto"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="analyze a temperature sweep"
    )
    p_sweep.add_argument("inputs", nargs="+", help="trace files or directories")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ph = sub.add_parser("photon", parents=[common], help="drive-power budget")
    p_ph.add_argument("--ql", type=float, required=True)
    p_ph.add_argument("--qc", type=float, required=True)
    p_ph.add_argument("--qi", type=float, required=True)
    p_ph.add_argument("--freq-hz", type=float, required=True, dest="freq_hz")
    p_ph.add_argument("--pin-dbm", type=float, default=None, dest="pin_dbm")
    p_ph.add_argument("--pvna-dbm", type=float, default=None, dest="pvna_dbm")
    p_ph.add_argument("--att-db", type=float, default=0.0, dest="att_db")
    p_ph.add_argument("--n-target", type=float, default=None, dest="n_target")
    p_ph.set_defaults(func=cmd_photon)

    p_synth = sub.add_parser(
        "synth", parents=[common], help="generate synthetic traces"
    )
    p_synth.add_argument("--kind", choices=("trace", "sweep"), default="trace")
    p_synth.add_argument("--fr-hz", type=float, default=5.95e9, dest="fr_hz")
    p_synth.add_argument("--ql", type=float, default=7e4)
    p_synth.add_argument("--qc", type=float, default=1e5)
    p_synth.add_argument("--phi", type=float, default=0.0)
    p_synth.add_argument("--amp", type=float, default=1.0)
    p_synth.add_argument("--phase0", type=float, default=0.0)
    p_synth.add_argument("--tau", type=float, default=0.0)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--points", type=int, default=2001)
    p_synth.add_argument(
        "--span-linewidths", type=float, default=10.0, dest="span_linewidths"
    )
    p_synth.add_argument("--temperature", type=float, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_dc = sub.add_parser("dc", parents=[common], help="Tc/RRR from an R(T) series")
    p_dc.add_argument("rt_file", help="CSV with temperature_K,resistance_ohm")
    p_dc.set_defaults(func=cmd_dc)

    p_xrd = sub.add_parser("xrd", parents=[common], help="cubic lattice constant")
    p_xrd.add_argument("--two-theta", type=float, required=True, dest="two_theta")
    p_xrd.add_argument("--hkl", type=int, nargs=3, required=True)
    p_xrd.add_argument(
        "--wavelength", type=float, default=CU_KALPHA1_ANGSTROM
    )
    p_xrd.set_defaults(func=cmd_xrd)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except (FitError, QuadratureError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return FitError.exit_code
    except (InputError, CpwLossError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
