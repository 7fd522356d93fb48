import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, args",
    [("run_reference_chain.py", ("--out", "{out}")), ("photon_budget_scan.py", ())],
)
def test_script_exits_zero(name, args, tmp_path, monkeypatch, capsys):
    script = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [script, *(a.format(out=tmp_path) for a in args)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(script, run_name="__main__")
    assert exc.value.code == 0


def test_output_digests_writes_each_output(tmp_path, monkeypatch):
    # the two large sweeps are left to the byte-identity check itself
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = runpy.run_path(str(SCRIPTS / "output_digests.py"))
    labels = []
    for name in ("sweep_ref", "theory_table", "calibration", "synth_sweep"):
        for label, data in script["outputs"](name, script["SEED"], tmp_path):
            assert data, label
            labels.append(label)
    labels, synth = labels[:9], labels[9:]
    assert labels == [
        "sweep_ref/df_vs_T.csv", "sweep_ref/nqp_vs_T.csv", "sweep_ref/qi_vs_T.csv",
        "sweep_ref/report.json", "sweep_ref/sigma_vs_T.csv", "sweep_ref/stdout",
        "theory_table/mb.json", "theory_table/mb.csv", "calibration/config.json",
    ]
    # the 30 trace files of calibrate_sweep_config(), then stdout
    files = sorted(tmp_path.joinpath("synth_sweep", "traces").iterdir())
    assert len(files) == 30
    assert synth == [f"synth_sweep/traces/{p.name}" for p in files] + ["synth_sweep/stdout"]


def test_bench_pairs_summary_on_fixed_runs():
    script = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    parent, change = [4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 2.0, 1.0, 1.0, 4.0]
    lower = script["summarize"](parent, change, "lower")
    assert lower["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert lower["change"] == {"q1": 1.0, "median": 2.0, "q3": 3.0}
    assert lower["change_wins"] == "4/5"
    assert lower["change_over_parent"] == pytest.approx(2.0 / 3.0)
    assert (lower["parent_iqr"], lower["median_gap"]) == (2.0, 1.0)
    assert (lower["parent_runs"], lower["change_runs"]) == (parent, change)
    higher = script["summarize"](parent, change, "higher")
    assert (higher["change_wins"], higher["median_gap"]) == ("1/5", 1.0)


def test_bench_pairs_summary_reproduces_the_committed_records():
    # every committed BENCH_*.json metric that lists its runs
    script = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    checked = 0
    for path in sorted(SCRIPTS.parent.glob("BENCH_*.json")):
        for workload in json.loads(path.read_text())["workloads"].values():
            for name, want in workload["metrics"].items():
                if "parent_runs" not in want:
                    continue
                got = script["summarize"](want["parent_runs"], want["change_runs"], want["better"])
                assert got["change_wins"] == want["change_wins"], (path.name, name)
                for key, value in got.items():
                    if key != "change_wins":
                        assert value == pytest.approx(want[key], rel=1e-12), (path.name, key)
                checked += 1
    assert checked >= 4
