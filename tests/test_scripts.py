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
