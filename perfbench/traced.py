"""Traced in-process run: spans around the public calls of each module.

The spans are recorded from the benchmark's own files: the public
functions named in TARGETS are replaced, for the length of one traced call,
by wrappers in every cpwloss module that holds them, so the program's own
call structure gives each span its parent. Spans live in memory and go to
one JSON-lines file at the end.

A target that is missing, renamed or never called leaves its span absent:
its timings read 0 and ``trace.absent_spans`` counts it. It never makes the
run fail. A changed signature is passed through, as wrappers take any
arguments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import gen
from gen import SRC, child_env, cli_args
from measure import fits_in

TARGETS = (
    ("cpwloss.pipeline.io", "ingest_s21"),
    ("cpwloss.pipeline.sweep", "sweep_analyze"),
    ("cpwloss.resfit", "fit_notch"),
    ("cpwloss.resfit", "estimate_delay"),
    ("cpwloss.resfit", "circle_fit"),
    ("cpwloss.resfit", "phase_fit"),
    ("cpwloss.pipeline.report", "emit_report"),
)
FIT_STAGES = ("estimate_delay", "circle_fit", "phase_fit")
MIN_PAIRS = 3
SECONDARY_CALLS = 2
VECTOR_CALLS = 5

IMPORT_PROBE = (
    "import sys\n"
    "import cpwloss.cli\n"
    "print(len(sys.modules), int('scipy.optimize' in sys.modules))\n"
)


class Tracer:
    """In-memory spans: id, name, start, end, parent, run and error."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap each target for a span wrapper in every module that holds it."""
    patches = []
    try:
        for modname, attr in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapper = tracer.wrap(attr, fn)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("cpwloss"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, fn))
        yield
    finally:
        for mod, key, fn in reversed(patches):
            setattr(mod, key, fn)


def import_probe(cwd: Path) -> tuple[int, int]:
    """sys.modules count and scipy.optimize presence after `import cpwloss.cli`
    in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"import probe failed: {out.stderr.strip()[-500:]}")
    modules, has_optimize = out.stdout.split()
    return int(modules), int(has_optimize)


class Caller:
    """Runs cli.main in-process in a given directory and checks the output."""

    def __init__(self, cli, tracer: Tracer, config: dict) -> None:
        self.cli = cli
        self.tracer = tracer
        self.config = config
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.report_bytes: int | None = None
        self.qi_errors: list[float] | None = None

    def __call__(self, workload: str, inputs: gen.Inputs, run_id: str | None) -> float:
        cwd = inputs.config.parent
        argv = cli_args(workload)
        stdout, stderr = io.StringIO(), io.StringIO()
        shutil.rmtree(cwd / "out", ignore_errors=True)
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                if run_id is None:
                    rc = self._main(argv)
                else:
                    self.tracer.run_id = run_id
                    with instrumented(self.tracer), self.tracer.span("cli." + argv[0]):
                        rc = self._main(argv)
                    self.tracer.run_id = None
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(old)
        self.attempted += 1
        found = [] if rc == 0 else [f"exit code {rc}: {stderr.getvalue()[-300:]}"]
        if workload == "theory_table":
            found += checks.check_mb(stdout.getvalue(), self.config)
        else:
            out = cwd / "out"
            more, errors = checks.check_sweep(workload, inputs, out / "report.json")
            found += more
            if run_id is not None and self.report_bytes is None and out.is_dir():
                self.report_bytes = sum(p.stat().st_size for p in out.iterdir())
                self.qi_errors = errors
        if found:
            self.failed += 1
            self.problems += found
        return elapsed

    def _main(self, argv) -> int:
        """cli.main's exit code; an escaping exception counts as exit code 1,
        as it would for the CLI run as a process."""
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed invocation
            traceback.print_exc()
            return 1


def _ms(spans) -> list[float]:
    return [1e3 * (s["end"] - s["start"]) for s in spans]


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _p(values, q, default=0.0) -> float:
    return float(np.percentile(values, q)) if values else default


def layer_metrics(tracer: Tracer, sweep_inputs: gen.Inputs) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of the traced sweep and mb calls."""
    by_run: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_run.setdefault(s["run"], []).append(s)
    sweep_runs = [v for k, v in by_run.items() if k and k.startswith("sweep")]
    mb_runs = [v for k, v in by_run.items() if k and k.startswith("mb")]
    named = {name: [s for s in tracer.spans if s["name"] == name] for _, name in TARGETS}
    absent = sorted(name for name, spans in named.items() if not spans)

    def per_run(name):
        return [sum(_ms(s for s in run if s["name"] == name)) for run in sweep_runs]

    fits = [s for s in named["fit_notch"] if s["error"] is None]
    children: dict[int, float] = {}
    for s in tracer.spans:
        if s["name"] in FIT_STAGES and s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _ms([s])[0]
    refine = [_ms([f])[0] - children.get(f["id"], 0.0) for f in fits]
    first = sweep_runs[0] if sweep_runs else []
    ingest_ms = _median(per_run("ingest_s21"))
    analyze = per_run("sweep_analyze")
    fit_sums = per_run("fit_notch")
    table_ms = _median([sum(_ms(s for s in run if s["parent"] is None)) for run in mb_runs])
    metrics = {
        "io.ingest_ms": (ingest_ms, "ms"),
        "io.ns_per_point": (1e6 * ingest_ms / sweep_inputs.points, "ns"),
        "io.points": (sweep_inputs.points, "count"),
        "io.bytes": (sweep_inputs.bytes, "B"),
        "resfit.fit_ms_p50": (_p(_ms(fits), 50), "ms"),
        "resfit.fit_ms_p95": (_p(_ms(fits), 95), "ms"),
        "resfit.fit_ms_sum": (_median(fit_sums), "ms"),
        "resfit.delay_ms_p50": (_p(_ms(named["estimate_delay"]), 50), "ms"),
        "resfit.circle_ms_p50": (_p(_ms(named["circle_fit"]), 50), "ms"),
        "resfit.phase_ms_p50": (_p(_ms(named["phase_fit"]), 50), "ms"),
        "resfit.refine_ms_p50": (_p(refine, 50), "ms"),
        "resfit.fits_ok": (
            sum(1 for s in first if s["name"] == "fit_notch" and s["error"] is None),
            "count",
        ),
        "resfit.fits_rejected": (
            sum(1 for s in first if s["name"] == "fit_notch" and s["error"] is not None),
            "count",
        ),
        "sweep.analyze_ms": (_median(analyze), "ms"),
        "sweep.theory_ms": (_median([a - f for a, f in zip(analyze, fit_sums)]), "ms"),
        "theory.table_ms": (table_ms, "ms"),
        "theory.us_per_row": (1e3 * table_ms / gen.MB_ROWS, "us"),
        "report.emit_ms": (_median(per_run("emit_report")), "ms"),
    }
    return metrics, absent


def vector_ms(config: dict) -> float | None:
    """mb_sigma_norm on the table's grid: the floor for a vectorized chain."""
    mbcore = sys.modules.get("cpwloss.mbcore")
    fn = getattr(mbcore, "mb_sigma_norm", None)
    if fn is None:
        return None
    omega, delta0, _ = checks.mb_reference(config)
    temps = gen.mb_temperatures()
    times = []
    try:
        for _ in range(VECTOR_CALLS):
            start = time.perf_counter()
            fn(temps, omega, delta0, config["fit"]["sigma2_prefactor"])
            times.append(1e3 * (time.perf_counter() - start))
    except TypeError:
        return None
    return statistics.median(times)


def run(workload, seed, inputs, work, seconds, spans_file) -> dict:
    """Alternate untraced and traced calls of the workload's command until
    ``seconds`` are up; first time the other command twice, so every layer
    reads a measured value on every workload."""
    modules, has_optimize = import_probe(work)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cpwloss.cli as cli

    config = json.loads(inputs.config.read_text(encoding="utf-8"))
    tracer = Tracer()
    call = Caller(cli, tracer, config)
    if workload == "theory_table":
        # the table has no traces: the sweep layers are timed on a
        # sweep_ref-shaped companion input set made from the same seed
        sweep_inputs = gen.generate("sweep_ref", seed, work / "companion")
        secondary = ("sweep_ref", sweep_inputs, "sweep")
    else:
        sweep_inputs = inputs
        secondary = ("theory_table", inputs, "mb")
    kind = "mb" if workload == "theory_table" else "sweep"

    start = time.perf_counter()
    call(workload, inputs, None)  # warm-up
    for j in range(SECONDARY_CALLS):
        call(secondary[0], secondary[1], f"{secondary[2]}-s{j}")
    plain, traced = [], []
    pair_s = 0.0
    while len(plain) < MIN_PAIRS or fits_in(start, seconds, pair_s):
        i = len(plain)
        pair_start = time.perf_counter()
        if i % 2:
            traced.append(call(workload, inputs, f"{kind}-{i}"))
            plain.append(call(workload, inputs, None))
        else:
            plain.append(call(workload, inputs, None))
            traced.append(call(workload, inputs, f"{kind}-{i}"))
        pair_s = time.perf_counter() - pair_start

    metrics, absent = layer_metrics(tracer, sweep_inputs)
    vec = vector_ms(config)
    if vec is None:
        absent.append("mb_sigma_norm")
    metrics.update({
        "import.modules": (modules, "count"),
        "import.scipy_optimize": (has_optimize, "flag"),
        "theory.vector_ms": (vec or 0.0, "ms"),
        "report.bytes": (call.report_bytes or 0, "B"),
        "quality.qi_rel_err_p95": (_p(call.qi_errors or [], 95), "ratio"),
        "trace.overhead_s": (statistics.median(t - p for t, p in zip(traced, plain)), "s"),
        "trace.absent_spans": (len(absent), "count"),
    })
    tracer.write(spans_file)
    return {
        "metrics": metrics,
        "attempted": call.attempted,
        "failed": call.failed,
        "problems": call.problems,
        "absent_spans": absent,
        "samples": {"plain_s": plain, "traced_s": traced},
    }
