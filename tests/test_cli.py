import json

import numpy as np
import pytest

from cpwloss import cli
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.io import write_s21_csv
from cpwloss.resfit import NotchParams, synth_trace
from conftest import default_grid


@pytest.fixture(scope="module")
def sweep_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_sweep")
    doc = calibrate_sweep_config(
        temperatures=[round(v, 4) for v in np.linspace(0.12, 2.9, 6)],
        noise_sigma=5e-4,
        npoints=401,
        seed=2,
    )
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=2))
    traces_dir = root / "traces"
    traces_dir.mkdir()
    for tr in synth_sweep(config_from_dict(doc)):
        write_s21_csv(traces_dir / f"s21_T{tr.temperature_k:.4f}K.csv", tr)
    return cfg_path, traces_dir


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestExitCodes:
    def test_missing_config_is_3(self, capsys):
        rc, _, err = run_cli(capsys, "mb")
        assert rc == 3
        assert "config" in err

    def test_bad_config_key_is_3(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"material": {"bogus_key": 1}}))
        rc, _, err = run_cli(capsys, "mb", "--config", str(p))
        assert rc == 3

    def test_missing_input_is_1(self, capsys):
        rc, _, _ = run_cli(capsys, "dc", "/nonexistent/rt.csv")
        assert rc == 1

    def test_unfittable_trace_is_2(self, capsys, tmp_path):
        f = np.linspace(5.9e9, 6.0e9, 64)
        flat = np.full(64, 0.9 + 0j)
        path = tmp_path / "flat.csv"
        from cpwloss.resfit import S21Trace

        write_s21_csv(path, S21Trace(f, flat))
        rc, _, err = run_cli(capsys, "fit", str(path))
        assert rc == 2
        assert "no resonance" in err

    def test_bad_domain_is_1(self, capsys):
        rc, _, _ = run_cli(capsys, "xrd", "--two-theta", "200", "--hkl", "1", "1", "1")
        assert rc == 1


class TestXrdDc:
    def test_xrd_json(self, capsys):
        rc, out, _ = run_cli(capsys, "xrd", "--two-theta", "35.73", "--hkl", "1", "1", "1")
        assert rc == 0
        doc = json.loads(out)
        assert doc["lattice_constant_angstrom"] == pytest.approx(4.35, abs=0.01)

    def test_dc_extraction(self, capsys, tmp_path):
        from test_pipeline import synthetic_rt

        t, r = synthetic_rt()
        path = tmp_path / "rt.csv"
        lines = ["temperature_K,resistance_ohm"] + [
            f"{float(a)!r},{float(b)!r}" for a, b in zip(t, r)
        ]
        path.write_text("\n".join(lines))
        rc, out, _ = run_cli(capsys, "dc", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["tc_kelvin"] == pytest.approx(10.7, abs=0.1)
        assert doc["rrr"] == pytest.approx(0.98, abs=0.005)


class TestFitAndSynth:
    def test_fit_round_trip_via_files(self, capsys, tmp_path):
        p = NotchParams(fr_hz=5.95e9, ql=7e4, qc_mag=1e5, phi_rad=0.15, tau_s=10e-9)
        tr = synth_trace(p, default_grid(p, n=801), 0.0, seed=0, temperature_k=0.5)
        path = tmp_path / "trace.csv"
        write_s21_csv(path, tr)
        rc, out, _ = run_cli(capsys, "fit", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["fr_hz"] == pytest.approx(p.fr_hz, rel=1e-6)
        assert doc["qi"] == pytest.approx(p.qi, rel=1e-3)

    def test_nonphysical_fit_prints_strict_json(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc, _, _ = run_cli(
            capsys, "synth", "--ql", "1.2e5", "--qc", "1e5", "--phi", "0.5",
            "--points", "2001", "--out", str(path),
        )
        assert rc == 0
        rc, out, _ = run_cli(capsys, "fit", str(path))
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["flags"] == ["nonphysical_qi"]
        assert doc["qi"] is None and doc["stderr"]["qi"] is None

    def test_synth_single_trace(self, capsys, tmp_path):
        out_file = tmp_path / "synth.csv"
        rc, _, _ = run_cli(
            capsys, "synth", "--kind", "trace", "--noise", "1e-3",
            "--seed", "5", "--out", str(out_file),
        )
        assert rc == 0
        assert out_file.exists()
        from cpwloss.pipeline.io import ingest_s21

        tr = ingest_s21(out_file)
        assert len(tr) == 2001

    def test_csv_output_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "photon", "--ql", "5e4", "--qc", "1e5", "--qi", "2.5e5",
            "--freq-hz", "5.95e9", "--pin-dbm", "-135", "--format", "csv",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p_vna_dbm,")
        assert len(lines) == 2


class TestMb:
    def test_table(self, capsys, sweep_setup):
        cfg_path, _ = sweep_setup
        rc, out, _ = run_cli(
            capsys, "mb", "--config", str(cfg_path),
            "--tmin", "0.5", "--tmax", "3.0", "--points", "7",
        )
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 7
        s1 = [r["sigma1_norm"] for r in rows]
        assert s1 == sorted(s1)

    @pytest.mark.parametrize(
        "material_only, extra",
        [(False, ("--format", "csv")), (True, ()), (False, ("--points", "0"))],
    )
    def test_table_variants(self, capsys, tmp_path, sweep_setup, material_only, extra):
        cfg_path, _ = sweep_setup
        if material_only:
            doc = json.loads(cfg_path.read_text())
            cfg_path = tmp_path / "material.json"
            cfg_path.write_text(json.dumps({"material": doc["material"]}))
        rc, out, _ = run_cli(capsys, "mb", "--config", str(cfg_path), *extra)
        assert rc == 0
        if "--format" in extra:
            header, *lines = out.strip().splitlines()
            assert header.startswith("temperature_k,sigma1_norm,")
            assert len(lines) == 30
            assert "np.float64(" not in out
            for line in lines:
                [float(v) for v in line.split(",")]
        elif "--points" in extra:
            assert json.loads(out) == []
        else:
            assert len(json.loads(out)) == 30


class TestSweepCommand:
    def test_full_run_and_determinism(self, capsys, tmp_path, sweep_setup):
        cfg_path, traces_dir = sweep_setup
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        rc1, _, _ = run_cli(
            capsys, "sweep", str(traces_dir), "--config", str(cfg_path),
            "--out", str(out1),
        )
        rc2, _, _ = run_cli(
            capsys, "sweep", str(traces_dir), "--config", str(cfg_path),
            "--out", str(out2),
        )
        assert rc1 == 0 and rc2 == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        doc = json.loads((out1 / "report.json").read_text())
        assert len(doc["per_temperature"]) == 6
        assert doc["provenance"]["config_sha256"]
        assert all(i["sha256"] for i in doc["provenance"]["inputs"])

    def test_synth_sweep_command(self, capsys, tmp_path, sweep_setup):
        cfg_path, _ = sweep_setup
        out_dir = tmp_path / "synth_sweep"
        rc, _, _ = run_cli(
            capsys, "synth", "--kind", "sweep", "--config", str(cfg_path),
            "--out", str(out_dir),
        )
        assert rc == 0
        assert len(list(out_dir.glob("*.csv"))) == 6
