"""Command-line interface.

Subcommands: mb (conductivity tables), fit (single-trace notch fit),
sweep (temperature-sweep analysis), photon (power/photon budget),
synth (synthetic traces and sweeps), dc (Tc/RRR extraction),
xrd (lattice constant). The photon, dc and xrd modules are imported by
their own subcommands, so sweep, fit and mb never load them.

Exit codes: 0 success, 1 input/format error (a malformed command line
included), 2 fit/convergence error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .constants import CU_KALPHA1_ANGSTROM, angular_frequency
from .errors import ConfigError, CpwLossError, FitError, InputError
from .pipeline.config import AnalysisConfig, load_config
from .pipeline.forward import film_response, synth_sweep
from .pipeline.io import TRACE_SUFFIXES, ingest_rt, ingest_s21, write_s21_csv
from .pipeline.report import emit_report, fit_record, table_text, to_json
from .pipeline.sweep import sweep_analyze
from .resfit import NotchParams, fit_notch, synth_trace


def _emit(record: dict, args) -> None:
    """Print one record as JSON (default) or as a header and one CSV row."""
    if args.format == "json":
        print(to_json(record))
    else:
        sys.stdout.write(table_text({k: [v] for k, v in record.items()}, "csv"))


# the flags that only `synth --kind trace` reads, by dest, with their defaults
_TRACE_FLAGS = {
    "fr_hz": 5.95e9, "ql": 7e4, "qc": 1e5, "phi": 0.0, "amp": 1.0, "phase0": 0.0,
    "tau": 0.0, "noise": 0.0, "points": 2001, "span_linewidths": 10.0, "temperature": None,
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _require_config(args) -> AnalysisConfig:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return load_config(args.config)


def cmd_mb(args) -> int:
    config = _require_config(args)
    temps = np.linspace(args.tmin, args.tmax, args.points)
    film = film_response(config, angular_frequency(args.freq_hz), temps)
    columns = {"temperature_k": temps, **vars(film)}
    sys.stdout.write(table_text(columns, args.format))
    return 0


def cmd_fit(args) -> int:
    trace = ingest_s21(args.trace)
    out = {"source": trace.source, **fit_record(fit_notch(trace))}
    if args.format == "csv":  # the stderr and flags blocks have no CSV cell
        out = {k: v for k, v in out.items() if not isinstance(v, (dict, list))}
    _emit(out, args)
    return 0


def _collect_inputs(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            traces = (q for q in p.iterdir() if q.suffix.lower() in TRACE_SUFFIXES)
            files.extend(sorted(q for q in traces if q.is_file()))
        elif p.exists():
            files.append(p)
        else:
            raise InputError(f"input not found: {p}")
    if not files:
        raise InputError("no input files")
    return files


def cmd_sweep(args) -> int:
    config = _require_config(args)
    report = sweep_analyze(_collect_inputs(args.inputs), config)
    out_dir = Path(args.out or ".")
    written = emit_report(report, out_dir)
    print(
        f"analyzed {len(report.fits)} temperatures "
        f"({len(report.failures)} failed); wrote {len(written)} files to {out_dir}"
    )
    return 0


def cmd_photon(args) -> int:
    from .photon import build_power_budget, power_for_photons

    if args.att_db is not None and args.pvna_dbm is None:
        raise InputError("--att-db is read only with --pvna-dbm")
    if args.n_target is not None:
        p_in = power_for_photons(args.n_target, args.ql, args.qc, args.freq_hz)
        _emit({"n_target": args.n_target, "p_in_dbm": p_in}, args)
        return 0
    if args.pin_dbm is not None:
        p_vna, p_att = args.pin_dbm, 0.0
    else:
        p_vna, p_att = args.pvna_dbm, 0.0 if args.att_db is None else args.att_db
    budget = build_power_budget(p_vna, p_att, args.ql, args.qc, args.freq_hz)
    _emit(asdict(budget), args)
    return 0


def cmd_synth(args) -> int:
    # a trace flag is in args only when given (its parser default is SUPPRESS)
    given = [_flag(dest) for dest in _TRACE_FLAGS if dest in vars(args)]
    if args.kind == "sweep":
        if given:
            raise InputError(f"--kind sweep does not read {', '.join(given)}")
        config = _require_config(args)
        if args.seed is not None:
            config = replace(config, run=replace(config.run, seed=args.seed))
        out_dir = Path(args.out or ".")
        paths = synth_sweep(config, out_dir)
        print(f"wrote {len(paths)} traces to {out_dir}")
        return 0
    if args.config:
        raise InputError("--config is read only by --kind sweep")
    args = argparse.Namespace(**{**_TRACE_FLAGS, **vars(args)})
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
    from .pipeline.dc import extract_tc_rrr

    t, r = ingest_rt(args.rt_file)
    _emit(asdict(extract_tc_rrr(t, r)), args)
    return 0


def cmd_xrd(args) -> int:
    from .pipeline.xrd import lattice_constant

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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, as input errors do;
    argparse's own 2 is the fit-error code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(InputError.exit_code, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpwloss",
        description="Loss modelling and notch-resonance analysis for "
        "superconducting CPW resonators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # each subcommand takes only the shared flags it reads
    config, out, seed, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", help="path to the JSON configuration document")
    out.add_argument("--out", help="output directory (or file for synth traces)")
    seed.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    fmt.add_argument(
        "--format", choices=("json", "csv"), default="json", help="stdout format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mb = sub.add_parser("mb", parents=[config, fmt], help="conductivity table vs T")
    p_mb.add_argument("--tmin", type=float, default=0.1)
    p_mb.add_argument("--tmax", type=float, default=3.0)
    p_mb.add_argument("--points", type=int, default=30)
    p_mb.add_argument("--freq-hz", type=float, default=5.95e9, dest="freq_hz")
    p_mb.set_defaults(func=cmd_mb)

    p_fit = sub.add_parser("fit", parents=[fmt], help="fit one S21 trace")
    p_fit.add_argument("trace", help="trace file (CSV or .s2p)")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser(
        "sweep", parents=[config, out], help="analyze a temperature sweep"
    )
    p_sweep.add_argument("inputs", nargs="+", help="trace files or directories")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ph = sub.add_parser("photon", parents=[fmt], help="drive-power budget")
    p_ph.add_argument("--ql", type=float, required=True)
    p_ph.add_argument("--qc", type=float, required=True)
    p_ph.add_argument("--freq-hz", type=float, required=True, dest="freq_hz")
    mode = p_ph.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pin-dbm", type=float, default=None, dest="pin_dbm")
    mode.add_argument("--pvna-dbm", type=float, default=None, dest="pvna_dbm")
    mode.add_argument("--n-target", type=float, default=None, dest="n_target")
    p_ph.add_argument("--att-db", type=float, default=None, dest="att_db")
    p_ph.set_defaults(func=cmd_photon)

    p_synth = sub.add_parser(
        "synth", parents=[config, out, seed], help="generate synthetic traces"
    )
    p_synth.add_argument("--kind", choices=("trace", "sweep"), default="trace")
    for dest in _TRACE_FLAGS:
        p_synth.add_argument(
            _flag(dest), dest=dest, type=int if dest == "points" else float,
            default=argparse.SUPPRESS,
        )
    p_synth.set_defaults(func=cmd_synth)

    p_dc = sub.add_parser("dc", parents=[fmt], help="Tc/RRR from an R(T) series")
    p_dc.add_argument("rt_file", help="CSV with temperature_K,resistance_ohm")
    p_dc.set_defaults(func=cmd_dc)

    p_xrd = sub.add_parser("xrd", parents=[fmt], help="cubic lattice constant")
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
        # every float option maps to a flag named after its dest
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{_flag(dest)} must be a finite number, got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return FitError.exit_code
    except (CpwLossError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
