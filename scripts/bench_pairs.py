#!/usr/bin/env python3
"""Alternating-pair benchmark of two checkouts of this repository.

    python scripts/bench_pairs.py PARENT CHANGE WORKLOAD... > BENCH_prNN.json

Runs ``perfbench/run.py --trace 0`` of the PARENT checkout and of the CHANGE
checkout on each WORKLOAD in 10 pairs. Each pair has its own fresh random
seed, and the side that runs first alternates from pair to pair. Each run
lasts the ``run_seconds`` of the CHANGE checkout's BENCHMARK.json, and its
end-to-end metrics are the ones summarized. Progress goes to stderr; the
summary, in the layout of the BENCH_pr*.json files, goes to stdout.

For every metric the summary gives the quartiles of each side's per-run
values, every run, ``change_wins`` (the pairs in which the change did
better), ``change_over_parent`` (the ratio of the medians), ``parent_iqr``
and ``median_gap``, the distance between the medians. A gain is claimed
when the change wins at least 9 of the 10 pairs and ``median_gap`` exceeds
``parent_iqr``.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SIDES = ("parent", "change")


def summarize(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """The summary of one metric over pairs of runs, pair k being
    (parent_runs[k], change_runs[k]); ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    quartiles = {}
    for side, runs in zip(SIDES, (parent_runs, change_runs)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        quartiles[side] = {"q1": q1, "median": median, "q3": q3}
    parent, change = quartiles["parent"], quartiles["change"]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent_runs, change_runs))
    return {
        **quartiles,
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
        "change_wins": f"{wins}/{len(parent_runs)}",
        "change_over_parent": change["median"] / parent["median"],
        "parent_iqr": parent["q3"] - parent["q1"],
        "median_gap": abs(parent["median"] - change["median"]),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line record and the machine record of one run.py call."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    record = json.loads(lines[-1])
    machine = next(json.loads(line[8:]) for line in lines if line.startswith("machine "))
    return {**record, "machine": machine}


def bench_workload(checkouts: dict, workload: str, seconds: float, metrics: list):
    """The summary of one workload's pairs, and the change's machine record."""
    seeds = random.SystemRandom().sample(range(1000, 10**9), PAIRS)
    first, records = [], {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            rec = run_once(checkouts[side], workload, seed, seconds)
            records[side].append(rec)
            wall = rec["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {k + 1}/{PAIRS} seed {seed} {side}: wall_s {wall:.4f}",
                  file=sys.stderr)
    summary = {}
    for metric in metrics:
        name = metric["name"]
        runs = [[r["metrics"][name]["value"] for r in records[side]] for side in SIDES]
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **summarize(*runs, metric["better"]),
        }
    return {
        "pairs": PAIRS,
        "seeds": seeds,
        "first": first,
        "correct": {side: all(r["correct"] for r in records[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in records[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in records[side]) for side in SIDES},
        "metrics": summary,
    }, records["change"][0]["machine"]


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in argv[2:]:
        workloads[workload], machine = bench_workload(
            checkouts, workload, seconds, bench["end_to_end"]
        )
    machine.pop("git_commit", None)  # a checkout's HEAD, not the tree it ran
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds!r} --trace 0"
    doc = {
        "command": command,
        "protocol": (
            f"parent and change checkouts run alternately, {PAIRS} pairs per workload, "
            "the first side alternating per pair (`first` lists the side that ran "
            "first); one fresh random seed per pair; values are the per-run medians "
            "that run.py reports, with every run listed"
        ),
        "machine": machine,
        "workloads": workloads,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
