"""End-to-end measurement: the CLI as a child process, one at a time.

A closed loop with one client: each workload invocation is followed by a
cold ``python -m cpwloss.cli --version`` start, so set-up time is measured
under the same conditions as the invocation it is paired with.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen
from gen import child_env, cli_args

MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 120.0  # a hung child is killed and counted as failed


def invoke(args: list[str], cwd: Path) -> dict:
    """Run the CLI once as a child; wall time and the child's own peak RSS.

    os.wait4 returns the rusage of this one child; RUSAGE_CHILDREN would be
    a running maximum over all children and hide a drop.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cpwloss.cli", *args],
            cwd=cwd, env=child_env(), stdout=out, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def check_invocation(workload: str, inputs: gen.Inputs, cwd: Path, config: dict):
    """Problems with one invocation's outputs, and the bytes compared across
    invocations (report.json for sweeps, stdout for the table)."""
    if workload == "theory_table":
        data = (cwd / "stdout.txt").read_bytes()
        return checks.check_mb(data.decode("utf-8", "replace"), config), data
    report = cwd / "out" / "report.json"
    problems, _ = checks.check_sweep(workload, inputs, report)
    return problems, report.read_bytes() if report.exists() else b""


def fits_in(start: float, seconds: float, step: float) -> bool:
    """True while one more step of ``step`` seconds ends in time."""
    return time.perf_counter() - start + step <= seconds


def probe_setup(cwd: Path) -> dict:
    res = invoke(["--version"], cwd)
    text = (cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace").strip()
    res["ok"] = res["rc"] == 0 and bool(text)
    return res


def measure(workload: str, inputs: gen.Inputs, work: Path, seconds: float) -> dict:
    """Closed loop, one client: invocation, then a cold start, until time is up."""
    config = json.loads(inputs.config.read_text(encoding="utf-8"))
    probe_setup(work)  # untimed: byte-compiles the package on a fresh checkout
    runs, probes, problems = [], [], []
    reference = None
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or fits_in(
        start, seconds, (time.perf_counter() - start) / len(runs)
    ):
        shutil.rmtree(work / "out", ignore_errors=True)
        res = invoke(cli_args(workload), work)
        found, blob = check_invocation(workload, inputs, work, config)
        if res["rc"] != 0:
            found.insert(0, f"exit code {res['rc']}")
        if reference is None:
            reference = blob
        elif blob != reference:
            found.append("output differs from the first invocation of this run")
        res["problems"] = found
        runs.append(res)
        problems += found
        probe = probe_setup(work)
        if not probe["ok"]:
            problems.append(f"--version failed with exit code {probe['rc']}")
        probes.append(probe)
    wall = statistics.median(r["wall_s"] for r in runs)
    items = gen.MB_ROWS if workload == "theory_table" else len(inputs.traces)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
    }
    failed = sum(1 for r in runs if r["problems"]) + sum(1 for p in probes if not p["ok"])
    return {
        "metrics": metrics,
        "attempted": len(runs) + len(probes),
        "failed": failed,
        "problems": problems,
        "samples": {"invocations": runs, "setup": probes},
    }
