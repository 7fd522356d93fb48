#!/usr/bin/env python3
"""cpwloss benchmark: one CLI invocation at a time, in a closed loop.

    python3 perfbench/run.py --workload sweep_ref --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs the `cpwloss` CLI as a child process on the
workload's generated inputs for ``--seconds`` seconds, pairing every
invocation with a cold ``python -m cpwloss.cli --version`` start, checks
every output and reports the end-to-end metrics. With ``--trace 1`` it runs
the same command in-process with spans around the public calls of each
module and reports the per-layer metrics (see traced.py and README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A machine record, the input digest and
every sample go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import measure  # noqa: E402
from gen import SRC  # noqa: E402

WORKLOADS = ("sweep_ref", "sweep_long", "sweep_dense", "theory_table")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_version() -> str | None:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpwloss" / "cli.py").is_file():
        print(f"error: no cpwloss sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        inputs = gen.generate(args.workload, args.seed, work)
        if args.trace:
            import traced

            spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            result = traced.run(args.workload, args.seed, inputs, work, args.seconds, spans_file)
        else:
            result = measure.measure(args.workload, inputs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs.sha256,
        "machine": machine_record(),
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in result["problems"][:20]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    for name in result.get("absent_spans", []):
        print(f"span absent: {name}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {inputs.sha256}")
    print(f"machine {json.dumps(record['machine'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  record {record_file.name}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
