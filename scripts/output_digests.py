#!/usr/bin/env python3
"""SHA-256 digests of the outputs that a refactor must leave byte-identical.

Writes each output under a temporary directory and prints one
``sha256  name`` line per output:

* ``cpwloss sweep`` (report.json, the four CSVs and stdout) on the
  perfbench sweep_ref, sweep_long and sweep_dense inputs (seed 1), made by
  ``perfbench/gen.py`` and analyzed from the benchmark's relative layout,
  so the provenance paths are the benchmark's;
* ``cpwloss mb`` JSON and CSV stdout on the theory_table grid;
* ``calibrate_sweep_config()`` as sorted JSON;
* ``cpwloss synth --kind sweep`` (each trace file and stdout) on
  ``calibrate_sweep_config()``.

The cpwloss package is the one on PYTHONPATH, so two checkouts are compared
by running this script once with each checkout's src and diffing the
listings:

    PYTHONPATH=src python scripts/output_digests.py > after.txt

Usage:
    python scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from cpwloss import cli  # noqa: E402
from cpwloss.pipeline.forward import calibrate_sweep_config  # noqa: E402

OUTPUTS = (
    "sweep_ref", "sweep_long", "sweep_dense", "theory_table", "calibration", "synth_sweep"
)
SEED = 1  # the benchmark's input seed


def _run_cli(argv: list[str], cwd: Path) -> bytes:
    """The stdout of one CLI run in ``cwd``; a non-zero exit ends the script."""
    stdout, here = io.StringIO(), Path.cwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    finally:
        os.chdir(here)
    if rc != 0:
        raise SystemExit(f"cpwloss {' '.join(argv)} exited {rc}")
    return stdout.getvalue().encode()


def outputs(name: str, seed: int, work: Path):
    """(label, bytes) of every output of one entry of OUTPUTS."""
    if name == "calibration":
        doc = calibrate_sweep_config()
        yield "calibration/config.json", json.dumps(doc, indent=2, sort_keys=True).encode()
        return
    where = work / name
    if name == "synth_sweep":
        where.mkdir(parents=True)
        (where / "config.json").write_text(json.dumps(calibrate_sweep_config()))
        argv = ["synth", "--kind", "sweep", "--config", "config.json", "--out", "traces"]
        stdout = _run_cli(argv, where)
        for path in sorted((where / "traces").iterdir()):
            yield f"{name}/traces/{path.name}", path.read_bytes()
        yield f"{name}/stdout", stdout
        return
    gen.generate(name, seed, where)
    if name == "theory_table":
        for fmt in ("json", "csv"):
            argv = [*gen.cli_args(name), "--format", fmt]
            yield f"{name}/mb.{fmt}", _run_cli(argv, where)
        return
    stdout = _run_cli(gen.cli_args(name), where)
    for path in sorted((where / "out").iterdir()):
        yield f"{name}/{path.name}", path.read_bytes()
    yield f"{name}/stdout", stdout


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cpwloss_digests_") as work:
        for name in OUTPUTS:
            for label, data in outputs(name, SEED, Path(work)):
                print(f"{hashlib.sha256(data).hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
