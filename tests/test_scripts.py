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
    for name in ("sweep_ref", "theory_table", "calibration"):
        for label, data in script["outputs"](name, script["SEED"], tmp_path):
            assert data, label
            labels.append(label)
    assert labels == [
        "sweep_ref/df_vs_T.csv", "sweep_ref/nqp_vs_T.csv", "sweep_ref/qi_vs_T.csv",
        "sweep_ref/report.json", "sweep_ref/sigma_vs_T.csv", "sweep_ref/stdout",
        "theory_table/mb.json", "theory_table/mb.csv", "calibration/config.json",
    ]
