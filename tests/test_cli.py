import collections
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpwloss import cli
from cpwloss.constants import HBAR_JS, angular_frequency
from cpwloss.pipeline.config import config_from_dict, load_config
from cpwloss.pipeline.forward import (
    calibrate_sweep_config, film_response, synth_sweep, theory_chain,
)
from cpwloss.pipeline.io import ingest_s21, write_s21_csv
from cpwloss.pipeline.report import emit_report
from cpwloss.pipeline.sweep import sweep_analyze
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
    synth_sweep(config_from_dict(doc), traces_dir)
    return cfg_path, traces_dir


def write_rt_csv(path: Path) -> Path:
    """The synthetic R(T) series of test_pipeline, written as a dc input."""
    from test_pipeline import synthetic_rt

    t, r = synthetic_rt()
    lines = ["temperature_K,resistance_ohm"] + [
        f"{float(a)!r},{float(b)!r}" for a, b in zip(t, r)
    ]
    path.write_text("\n".join(lines))
    return path


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

    @pytest.mark.parametrize("kind", ["sweep", "synth"])
    def test_out_of_range_config_value_is_3(self, capsys, tmp_path, sweep_setup, kind):
        cfg_path, traces_dir = sweep_setup
        doc = json.loads(cfg_path.read_text())
        doc["tls"]["beta_exp"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["sweep", str(traces_dir)] if kind == "sweep" else ["synth", "--kind", "sweep"]
        rc, _, err = run_cli(capsys, *argv, "--config", str(bad), "--out", str(tmp_path))
        assert rc == 3, err
        assert "beta_exp" in err

    def test_empty_temperatures_is_3_and_writes_nothing(
        self, capsys, tmp_path, sweep_setup
    ):
        cfg_path, _ = sweep_setup
        doc = json.loads(cfg_path.read_text())
        doc["run"]["temperatures"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc, stdout, err = run_cli(
            capsys, "synth", "--kind", "sweep", "--config", str(bad), "--out", str(out)
        )
        assert rc == 3, err
        assert stdout == "" and "run.temperatures" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mb", "sweep"])
    def test_duplicate_config_key_is_3_and_writes_nothing(
        self, capsys, tmp_path, sweep_setup, command
    ):
        cfg_path, traces_dir = sweep_setup
        # three alpha keys: json.loads alone would run with the last one
        triple = '"alpha": 0.2, "alpha": 0.4, "alpha": '
        text = cfg_path.read_text().replace('"alpha": ', triple, 1)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        argv = {
            "mb": ["mb", "--points", "2"],
            "sweep": ["sweep", str(traces_dir), "--out", str(out)],
        }[command]
        rc, stdout, err = run_cli(capsys, *argv, "--config", str(bad))
        assert rc == 3, err
        assert stdout == "" and 'duplicate key "alpha"' in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mb", "synth", "synth_sweep"])
    def test_size_beyond_memory_is_1_and_writes_nothing(
        self, capsys, tmp_path, sweep_setup, command
    ):
        # 10**15 float64 values are 7.1 PiB, beyond the address space, so the
        # allocation fails at once
        cfg_path, _ = sweep_setup
        doc = json.loads(cfg_path.read_text())
        doc["run"]["npoints"] = 10**15
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "mb": ["mb", "--config", str(cfg_path), "--points", str(10**15)],
            "synth": ["synth", "--points", str(10**15), "--out", str(tmp_path / "t.csv")],
            "synth_sweep": ["synth", "--kind", "sweep", "--config", str(big), "--out", str(out)],
        }[command]
        rc, stdout, err = run_cli(capsys, *argv)
        assert rc == 1, err
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))
        assert not out.exists()

    def test_missing_input_is_1(self, capsys):
        rc, _, _ = run_cli(capsys, "dc", "/nonexistent/rt.csv")
        assert rc == 1

    @pytest.mark.parametrize("inputs, message", [("missing", "input not found"),
                                                 ("empty", "no input files")])
    def test_sweep_without_input_files_is_1(
        self, capsys, tmp_path, sweep_setup, inputs, message
    ):
        (tmp_path / "empty").mkdir()
        cfg_path, _ = sweep_setup
        out = tmp_path / "out"
        rc, stdout, err = run_cli(
            capsys, "sweep", str(tmp_path / inputs), "--config", str(cfg_path),
            "--out", str(out),
        )
        assert rc == 1
        assert stdout == "" and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("run", "npoints", 16.5, "JSON number 16.5"),
            ("run", "seed", 1.5, "JSON number 1.5"),
            ("run", "seed", -1, ">= 0"),
            ("material", "tc_kelvin", True, "JSON boolean true"),
            ("run", "temperatures", [0.5, True], "JSON array"),
            ("material", "tc_kelvin", "10.7", 'JSON string "10.7"'),
            ("material", "tc_kelvin", math.nan, "JSON number NaN"),
            ("run", "noise_sigma", math.nan, "JSON number NaN"),
        ],
    )
    @pytest.mark.parametrize("command", ["mb", "synth", "sweep"])
    def test_config_value_of_the_wrong_type_is_3(
        self, capsys, tmp_path, sweep_setup, section, key, value, named, command
    ):
        cfg_path, traces_dir = sweep_setup
        doc = json.loads(cfg_path.read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "mb": ["mb", "--points", "2"],
            "synth": ["synth", "--kind", "sweep", "--out", str(out)],
            "sweep": ["sweep", str(traces_dir), "--out", str(out)],
        }[command]
        rc, stdout, err = run_cli(capsys, *argv, "--config", str(bad))
        assert rc == 3
        assert stdout == "" and f"{section}.{key}" in err and named in err
        assert not out.exists()

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
        rc, out, _ = run_cli(capsys, "dc", str(write_rt_csv(tmp_path / "rt.csv")))
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

    @staticmethod
    def _nonphysical_trace(capsys, tmp_path):
        # Ql above |Qc|: the fit is flagged nonphysical_qi and qi is inf
        path = tmp_path / "t.csv"
        rc, _, _ = run_cli(
            capsys, "synth", "--ql", "1.2e5", "--qc", "1e5", "--phi", "0.5",
            "--points", "2001", "--out", str(path),
        )
        assert rc == 0
        return path

    def test_nonphysical_fit_prints_strict_json(self, capsys, tmp_path):
        path = self._nonphysical_trace(capsys, tmp_path)
        rc, out, _ = run_cli(capsys, "fit", str(path))
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["flags"] == ["nonphysical_qi"]
        assert doc["qi"] is None and doc["stderr"]["qi"] is None

    def test_nonphysical_fit_csv_leaves_qi_empty(self, capsys, tmp_path):
        path = self._nonphysical_trace(capsys, tmp_path)
        rc, out, _ = run_cli(capsys, "fit", str(path), "--format", "csv")
        assert rc == 0
        header, row = csv.reader(io.StringIO(out))
        assert row[header.index("qi")] == ""
        assert float(row[header.index("ql")]) > 0

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

    @pytest.mark.parametrize("kind", [("--kind", "trace"), ()])
    def test_synth_trace_with_config_is_input_error(self, capsys, tmp_path, kind):
        out_file = tmp_path / "t.csv"
        rc, out, err = run_cli(
            capsys, "synth", *kind, "--config", str(tmp_path / "missing.json"),
            "--out", str(out_file),
        )
        assert rc == 1
        assert out == "" and "--config" in err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "flag",
        ["--fr-hz", "--ql", "--qc", "--phi", "--amp", "--phase0", "--tau", "--noise",
         "--points", "--span-linewidths", "--temperature"],
    )
    def test_synth_sweep_with_a_trace_flag_is_input_error(
        self, capsys, tmp_path, sweep_setup, flag
    ):
        # each value but --temperature's is the flag's default, so only giving
        # the flag is the fault
        cfg_path, _ = sweep_setup
        value = {"--fr-hz": "5.95e9", "--ql": "7e4", "--qc": "1e5", "--amp": "1",
                 "--points": "2001", "--span-linewidths": "10",
                 "--temperature": "0.5"}.get(flag, "0")
        out_dir = tmp_path / "out"
        rc, out, err = run_cli(
            capsys, "synth", "--kind", "sweep", "--config", str(cfg_path), flag, value,
            "--out", str(out_dir),
        )
        assert rc == 1
        assert out == "" and flag in err
        assert not out_dir.exists()

    def test_synth_trace_into_an_existing_directory(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "synth", "--points", "64", "--out", str(tmp_path))
        assert rc == 0
        assert out == f"wrote {tmp_path / 'trace.csv'}\n"
        assert len(ingest_s21(tmp_path / "trace.csv")) == 64

    def test_csv_quotes_a_path_with_a_comma(self, capsys, tmp_path):
        p = NotchParams(fr_hz=5.95e9, ql=7e4, qc_mag=1e5, phi_rad=0.15)
        path = tmp_path / "a,b" / "t.csv"
        path.parent.mkdir()
        write_s21_csv(path, synth_trace(p, default_grid(p, n=401), 1e-4, seed=1))
        rc, out, _ = run_cli(capsys, "fit", str(path), "--format", "csv")
        assert rc == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 11
        assert row[header.index("source")] == str(path)
        assert float(row[header.index("fr_hz")]) == pytest.approx(p.fr_hz, rel=1e-6)

    def test_csv_output_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "photon", "--ql", "5e4", "--qc", "1e5", "--freq-hz", "5.95e9",
            "--pin-dbm", "-135", "--format", "csv",
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

    def test_csv_is_the_json_rows_through_csv_writer(self, capsys, sweep_setup):
        cfg_path, _ = sweep_setup
        grid = ("--config", str(cfg_path), "--tmin", "0.2", "--tmax", "9.0", "--points", "41")
        rc_json, out_json, _ = run_cli(capsys, "mb", *grid)
        rc_csv, out_csv, _ = run_cli(capsys, "mb", *grid, "--format", "csv")
        assert rc_json == rc_csv == 0
        rows = json.loads(out_json)
        assert all(v is not None for row in rows for v in row.values())
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
        assert out_csv == want.getvalue()

    def test_columns_are_the_chains_film_stage(self, capsys, sweep_setup):
        # mb prints the film stage of theory_chain, bit for bit
        cfg_path, _ = sweep_setup
        rc, out, _ = run_cli(
            capsys, "mb", "--config", str(cfg_path), "--tmin", "0.2", "--tmax", "9.0",
            "--points", "41", "--freq-hz", "6.1e9",
        )
        assert rc == 0
        rows = json.loads(out)
        temps = np.linspace(0.2, 9.0, 41)
        config = config_from_dict(json.loads(cfg_path.read_text()))
        chain = theory_chain(config, angular_frequency(6.1e9), temps)
        film = chain.film
        want = {
            "temperature_k": temps,
            "sigma1_norm": film.sigma1_norm,
            "sigma2_norm": film.sigma2_norm,
            "sigma1_s_per_m": film.sigma1_s_per_m,
            "sigma2_s_per_m": film.sigma2_s_per_m,
            "rs_ohm_sq": film.rs_ohm_sq,
            "ls_h_sq": film.ls_h_sq,
        }
        assert {k: [row[k] for row in rows] for k in want} == {
            k: v.tolist() for k, v in want.items()
        }

    def test_empty_csv_is_the_header_row(self, capsys, sweep_setup):
        cfg_path, _ = sweep_setup
        rc, out, _ = run_cli(
            capsys, "mb", "--config", str(cfg_path), "--points", "0", "--format", "csv",
        )
        assert rc == 0
        assert out == (
            "temperature_k,sigma1_norm,sigma2_norm,sigma1_s_per_m,"
            "sigma2_s_per_m,rs_ohm_sq,ls_h_sq\n"
        )

    @pytest.mark.parametrize("above", [0.0, 9.3])
    def test_grid_reaching_tc_is_input_error(self, capsys, sweep_setup, above):
        cfg_path, _ = sweep_setup
        tc = json.loads(cfg_path.read_text())["material"]["tc_kelvin"]
        rc, out, err = run_cli(
            capsys, "mb", "--config", str(cfg_path), "--tmax", repr(tc + above),
        )
        assert rc == 1
        assert out == ""
        assert "gap closed" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_film_response_is_input_error(self, capsys, sweep_setup):
        # sigma1 overflows at 1e-300 Hz, and Zs is then NaN
        cfg_path, _ = sweep_setup
        rc, out, err = run_cli(
            capsys, "mb", "--config", str(cfg_path), "--points", "2", "--freq-hz", "1e-300"
        )
        assert rc == 1
        assert out == "" and "not finite" in err
        config = config_from_dict(json.loads(cfg_path.read_text()))
        with pytest.raises(ValueError, match="not finite"):
            film_response(config, angular_frequency(1e-300), [0.1, 3.0])

    def test_grid_just_below_tc_runs(self, capsys, sweep_setup):
        cfg_path, _ = sweep_setup
        tc = json.loads(cfg_path.read_text())["material"]["tc_kelvin"]
        tmax = float(np.nextafter(tc, 0.0))
        rc, out, _ = run_cli(
            capsys, "mb", "--config", str(cfg_path), "--tmax", repr(tmax),
        )
        assert rc == 0
        rows = json.loads(out)
        assert rows[-1]["temperature_k"] == tmax
        assert all(v is not None for v in rows[-1].values())


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
        for i in doc["provenance"]["inputs"]:
            assert i["sha256"] == hashlib.sha256(Path(i["path"]).read_bytes()).hexdigest()

    def test_api_writes_the_cli_report(self, capsys, tmp_path, sweep_setup):
        # one set of files: emit_report(sweep_analyze(...)) and `cpwloss
        # sweep` write the same bytes, provenance included
        cfg_path, traces_dir = sweep_setup
        paths = sorted(traces_dir.glob("*.csv"))
        api, by_cli = tmp_path / "api", tmp_path / "cli"
        written = emit_report(sweep_analyze(paths, load_config(cfg_path)), api)
        rc, _, err = run_cli(
            capsys, "sweep", *map(str, paths), "--config", str(cfg_path),
            "--out", str(by_cli),
        )
        assert rc == 0, err
        assert sorted(p.name for p in by_cli.iterdir()) == sorted(p.name for p in written)
        for path in written:
            assert (by_cli / path.name).read_bytes() == path.read_bytes(), path.name
        provenance = json.loads((api / "report.json").read_text())["provenance"]
        assert list(provenance) == [
            "tool", "tool_version", "config_sha256", "inputs", "csv_schemas"
        ]
        assert [i["path"] for i in provenance["inputs"]] == list(map(str, paths))

    def test_each_input_is_read_once(self, capsys, monkeypatch, tmp_path, sweep_setup):
        # the provenance hash comes from the bytes the trace was parsed from
        cfg_path, traces_dir = sweep_setup
        reads = collections.Counter()
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)

            def counted(self, *args, real=real, **kwargs):
                reads[self.name] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(Path, name, counted)
        rc, _, _ = run_cli(
            capsys, "sweep", str(traces_dir), "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        )
        assert rc == 0
        traces = sorted(p.name for p in traces_dir.iterdir())
        assert {name: reads[name] for name in traces} == dict.fromkeys(traces, 1)

    def test_directory_takes_only_trace_files(self, capsys, tmp_path, sweep_setup):
        # a config, a README and a .dat trace beside the .csv traces; the
        # .dat trace is read only when named explicitly
        cfg_path, traces_dir = sweep_setup
        mixed = tmp_path / "mixed"
        shutil.copytree(traces_dir, mixed)
        shutil.copy(cfg_path, mixed / "config.json")
        (mixed / "README").write_text("six traces\n")
        first = sorted(mixed.glob("*.csv"))[0]
        explicit = first.rename(first.with_suffix(".dat"))
        out = tmp_path / "out"
        rc, _, err = run_cli(
            capsys, "sweep", str(mixed), str(explicit), "--config", str(cfg_path),
            "--out", str(out),
        )
        assert rc == 0, err
        inputs = json.loads((out / "report.json").read_text())["provenance"]["inputs"]
        names = sorted(Path(i["path"]).name for i in inputs)
        traces = [q.name for q in mixed.iterdir() if q.suffix in (".csv", ".dat")]
        assert names == sorted(traces) and len(names) == 6

    def test_untagged_trace_is_a_failure(self, capsys, tmp_path, sweep_setup):
        # every input ends in per_temperature or in failures
        cfg_path, traces_dir = sweep_setup
        mixed = tmp_path / "mixed"
        shutil.copytree(traces_dir, mixed)
        first = sorted(mixed.glob("*.csv"))[0]
        lines = first.read_text().splitlines(keepends=True)
        untagged = mixed / "untagged.csv"
        untagged.write_text("".join(ln for ln in lines if not ln.startswith("#")))
        first.unlink()
        out = tmp_path / "out"
        rc, _, err = run_cli(
            capsys, "sweep", str(mixed), "--config", str(cfg_path), "--out", str(out)
        )
        assert rc == 0, err
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_temperature"]) == 5
        assert report["failures"] == [
            {"source": str(untagged), "temperature_k": None, "error": "no temperature tag"}
        ]
        reported = {e["source"] for e in report["per_temperature"] + report["failures"]}
        assert reported == {i["path"] for i in report["provenance"]["inputs"]}

    @staticmethod
    def _with_retagged_copies(capsys, tmp_path, sweep_setup, temps):
        """Run the sweep alone, and with one copy of a trace added per file
        name and temperature in ``temps`` (None: untagged). Check that the
        copies leave ``per_temperature`` and ``derived`` as they were, and
        return the copies' directory and their report."""
        cfg_path, traces_dir = sweep_setup
        mixed = tmp_path / "mixed"
        shutil.copytree(traces_dir, mixed)
        header, *body = sorted(mixed.glob("*.csv"))[0].read_text().splitlines(keepends=True)
        assert header.startswith("# temperature_K=")
        for name, t in temps.items():
            tag = "" if t is None else f"# temperature_K={t!r}\n"
            (mixed / name).write_text(tag + "".join(body))
        runs = {}
        for name, inputs in (("plain", traces_dir), ("mixed", mixed)):
            rc, _, err = run_cli(
                capsys, "sweep", str(inputs), "--config", str(cfg_path),
                "--out", str(tmp_path / name),
            )
            assert rc == 0, err
            runs[name] = json.loads((tmp_path / name / "report.json").read_text())
        plain, report = runs["plain"], runs["mixed"]
        assert report["per_temperature"] == [
            {**e, "source": e["source"].replace(str(traces_dir), str(mixed))}
            for e in plain["per_temperature"]
        ]
        assert report["derived"] == plain["derived"]
        return mixed, report

    def test_trace_at_or_above_tc_is_a_failure(self, capsys, tmp_path, sweep_setup):
        # the other traces report as they do without the hot ones, which
        # are listed between fit failures (none here) and untagged traces,
        # in ascending temperature
        cfg_path, _ = sweep_setup
        tc = json.loads(cfg_path.read_text())["material"]["tc_kelvin"]
        temps = {"hot_a.csv": tc + 0.3, "hot_b.csv": tc, "untagged.csv": None}
        mixed, report = self._with_retagged_copies(capsys, tmp_path, sweep_setup, temps)
        hot = {mixed / "hot_a.csv": tc + 0.3, mixed / "hot_b.csv": tc}
        assert report["failures"] == [
            {
                "source": str(path), "temperature_k": t,
                "error": f"T = {t!r} K >= Tc = {tc!r} K: gap closed, model invalid",
            }
            for path, t in reversed(hot.items())
        ] + [
            {"source": str(mixed / "untagged.csv"), "temperature_k": None,
             "error": "no temperature tag"}
        ]

    def test_trace_at_or_below_0_k_is_a_failure(self, capsys, tmp_path, sweep_setup):
        # set aside like a hot trace, and listed ahead of the hot ones, in
        # ascending temperature
        cfg_path, _ = sweep_setup
        tc = json.loads(cfg_path.read_text())["material"]["tc_kelvin"]
        temps = {"zero.csv": 0.0, "hot.csv": tc, "negative.csv": -0.5}
        mixed, report = self._with_retagged_copies(capsys, tmp_path, sweep_setup, temps)
        assert report["failures"] == [
            {
                "source": str(mixed / name), "temperature_k": t,
                "error": f"T = {t!r} K <= 0 K: temperature must be positive",
            }
            for name, t in (("negative.csv", -0.5), ("zero.csv", 0.0))
        ] + [
            {
                "source": str(mixed / "hot.csv"), "temperature_k": tc,
                "error": f"T = {tc!r} K >= Tc = {tc!r} K: gap closed, model invalid",
            }
        ]

    def test_fit_prints_the_reports_fit_block(self, capsys, tmp_path, sweep_setup):
        # in each trace format: both commands pick the reader by suffix
        cfg_path, ri_dir = sweep_setup
        for fmt in ("ri", "db", "s2p"):
            traces_dir = ri_dir if fmt == "ri" else _rewritten(ri_dir, tmp_path / fmt, fmt)
            out = tmp_path / f"out_{fmt}"
            rc, _, _ = run_cli(
                capsys, "sweep", str(traces_dir), "--config", str(cfg_path),
                "--out", str(out),
            )
            assert rc == 0
            entry = json.loads((out / "report.json").read_text())["per_temperature"][2]
            assert Path(entry["source"]).parent == traces_dir
            rc, stdout, _ = run_cli(capsys, "fit", entry["source"])
            assert rc == 0
            fit = json.loads(stdout)
            assert fit.pop("source") == entry["source"]
            # same keys in the same order, nested stderr included
            assert json.dumps(fit) == json.dumps(entry["fit"])

    def test_synth_sweep_command(self, capsys, tmp_path, sweep_setup):
        cfg_path, _ = sweep_setup
        out_dir = tmp_path / "synth_sweep"
        rc, _, _ = run_cli(
            capsys, "synth", "--kind", "sweep", "--config", str(cfg_path),
            "--out", str(out_dir),
        )
        assert rc == 0
        assert len(list(out_dir.glob("*.csv"))) == 6

    def test_synth_sweep_seed_is_the_configs_run_seed(self, capsys, tmp_path, sweep_setup):
        cfg_path, _ = sweep_setup
        doc = json.loads(cfg_path.read_text())
        assert doc["run"]["seed"] != 5
        doc["run"]["seed"] = 5
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps(doc))
        runs = {
            "flag": ("--config", str(cfg_path), "--seed", "5"),
            "config": ("--config", str(seeded)),
            "plain": ("--config", str(cfg_path)),
        }
        files = {}
        for name, argv in runs.items():
            out_dir = tmp_path / name
            rc, _, _ = run_cli(capsys, "synth", "--kind", "sweep", *argv, "--out", str(out_dir))
            assert rc == 0
            files[name] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert len(files["flag"]) == 6
        assert files["flag"] == files["config"] != files["plain"]

    def test_synth_sweep_name_collision_is_config_error(self, capsys, tmp_path, sweep_setup):
        # 0.12 and 0.12003 K both round to s21_T0.1200K.csv
        cfg_path, _ = sweep_setup
        doc = json.loads(cfg_path.read_text())
        doc["run"]["temperatures"] = [0.12, 0.12003, 0.5]
        cfg = tmp_path / "collide.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "collide"
        rc, out, err = run_cli(
            capsys, "synth", "--kind", "sweep", "--config", str(cfg),
            "--out", str(out_dir),
        )
        assert rc == 3
        assert out == ""
        assert "0.12 K" in err and "0.12003 K" in err and "s21_T0.1200K.csv" in err
        assert not out_dir.exists()


def _rewritten(traces_dir: Path, out_dir: Path, fmt: str) -> Path:
    """A copy of a directory of RI CSV traces, each file rewritten as a
    dB/deg CSV ("db") or as a DB-format Touchstone file ("s2p")."""
    out_dir.mkdir()
    for path in sorted(traces_dir.iterdir()):
        tr = ingest_s21(path)
        db, deg = 20.0 * np.log10(np.abs(tr.s21)), np.degrees(np.angle(tr.s21))
        rows = zip(tr.freq_hz.tolist(), db.tolist(), deg.tolist())
        if fmt == "db":
            lines = [f"# temperature_K={tr.temperature_k!r}", "freq_hz,s21_db,s21_deg"]
            lines += [f"{f!r},{a!r},{b!r}" for f, a, b in rows]
            name = path.name
        else:
            lines = [f"! temperature_K={tr.temperature_k!r}", "# HZ S DB R 50"]
            lines += [f"{f!r} 0 0 {a!r} {b!r} {a!r} {b!r} 0 0 ! S21 = S12" for f, a, b in rows]
            name = path.with_suffix(".s2p").name
        (out_dir / name).write_text("\n".join(lines) + "\n")
    return out_dir


def run_probe(probe: str, *args: str) -> list[str]:
    """Stdout lines of ``probe`` run by a fresh interpreter on this source tree."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout.splitlines()


def test_import_path_holds_no_test_only_code():
    # the quadrature oracle and the removed wrappers live in tests/oracles.py
    # or nowhere, and scipy is a test-only dependency; importing the package
    # and its CLI must not reach any of them
    probe = (
        "import sys, cpwloss, cpwloss.cli, cpwloss.errors, cpwloss.mbcore\n"
        "names = ('mb_full_oracle', '_fermi', 'bessel_k0', 'bessel_i0',\n"
        "         'modified_bessel', 'QuadratureError', 'dirty_limit')\n"
        "mods = (cpwloss, cpwloss.mbcore, cpwloss.errors)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(n for m in mods for n in names if hasattr(m, n)))\n"
        "print(hasattr(cpwloss.mbcore.MaterialParams, 'dirty_limit'))\n"
    )
    assert run_probe(probe) == ["[]", "[]", "False"]


def test_cli_runs_without_scipy(tmp_path, sweep_setup):
    # an interpreter in which `import scipy` fails runs fit, mb, a sweep and
    # dc, and none of them loads numpy.ma (np.median imports it)
    cfg_path, traces_dir = sweep_setup
    traces = [str(t) for t in sorted(traces_dir.iterdir())[:5]]
    argvs = [
        ["fit", traces[0]],
        ["mb", "--config", str(cfg_path), "--points", "50"],
        ["sweep", *traces, "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        ["dc", str(write_rt_csv(tmp_path / "rt.csv"))],
    ]
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cpwloss import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert run_probe(probe, json.dumps(argvs))[-2:] == ["[0, 0, 0, 0]", "False"]
    assert (tmp_path / "out" / "report.json").is_file()


def test_fit_output_does_not_depend_on_blas_threads(tmp_path):
    # 16001 points: the LM cost sums 32002 residuals, more than OpenBLAS
    # sums on one thread in a single dot product, and the normal equations'
    # Gram matrix spans 16001 columns, more than it multiplies on one thread;
    # 110001 points: the delay estimate's wings hold 11000 points each
    p = NotchParams(fr_hz=5.95e9, ql=7e4, qc_mag=1e5, phi_rad=0.15, tau_s=10e-9)
    src = Path(cli.__file__).resolve().parents[1]
    for n in (16001, 110001):
        path = tmp_path / f"long{n}.csv"
        write_s21_csv(path, synth_trace(p, default_grid(p, n=n), 1e-3, seed=0))
        outs = []
        for threads in ("1", "2", None):  # None: OpenBLAS's default, a thread per CPU
            env = dict(os.environ, PYTHONPATH=str(src))
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(name, None)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            outs.append(subprocess.run(
                [sys.executable, "-m", "cpwloss.cli", "fit", str(path)],
                capture_output=True, text=True, check=True, env=env,
            ).stdout)
        assert json.loads(outs[0])["n_points"] == n
        assert outs[0] == outs[1] == outs[2]


PHOTON_Q = ("--ql", "7e4", "--qc", "1e5")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("mb", "--freq-hz", "nan"), "--freq-hz"),
        (("mb", "--tmax", "nan"), "--tmax"),
        (("mb", "--tmin=-inf"), "--tmin"),
        (("photon", *PHOTON_Q, "--freq-hz", "nan", "--pin-dbm", "-100"), "--freq-hz"),
        (("photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--pin-dbm", "1e308"), "dBm"),
        (("photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--pvna-dbm", "1e400"), "--pvna-dbm"),
        (("xrd", "--two-theta", "40", "--hkl", "1", "1", "1", "--wavelength", "nan"),
         "--wavelength"),
        (("synth", "--noise", "nan"), "--noise"),
        (("synth", "--span-linewidths", "inf"), "--span-linewidths"),
    ],
)
def test_non_finite_float_option_is_input_error(capsys, tmp_path, sweep_setup, argv, named):
    cfg_path, _ = sweep_setup
    if argv[0] == "mb":
        argv = (*argv, "--config", str(cfg_path))
    elif argv[0] == "synth":
        argv = (*argv, "--out", str(tmp_path / "trace.csv"))
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert named in err and out == ""
    assert not (tmp_path / "trace.csv").exists()


SUBCOMMAND_ARGV = {
    "mb": ("mb",),
    "fit": ("fit", "t.csv"),
    "sweep": ("sweep", "traces"),
    "photon": ("photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--pin-dbm", "-100"),
    "synth": ("synth",),
    "dc": ("dc", "rt.csv"),
    "xrd": ("xrd", "--two-theta", "40", "--hkl", "1", "1", "1"),
}
SHARED_FLAGS = {"--config": "c.json", "--out": "out", "--seed": "1", "--format": "csv"}
FLAGS_READ = {
    "mb": ("--config", "--format"),
    "fit": ("--format",),
    "sweep": ("--config", "--out"),
    "photon": ("--format",),
    "synth": ("--config", "--out", "--seed"),
    "dc": ("--format",),
    "xrd": ("--format",),
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in SUBCOMMAND_ARGV for f in SHARED_FLAGS if f not in FLAGS_READ[c]],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(
    capsys, monkeypatch, tmp_path, command, flag
):
    monkeypatch.chdir(tmp_path)  # where synth would write trace.csv
    with pytest.raises(SystemExit) as exc:
        cli.main([*SUBCOMMAND_ARGV[command], flag, SHARED_FLAGS[flag]])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {flag}" in out.err


@pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
def test_subcommand_takes_the_flags_it_reads(command):
    given = [v for f in FLAGS_READ[command] for v in (f, SHARED_FLAGS[f])]
    args = cli.build_parser().parse_args([*SUBCOMMAND_ARGV[command], *given])
    assert {f: str(getattr(args, f[2:])) for f in FLAGS_READ[command]} == {
        f: SHARED_FLAGS[f] for f in FLAGS_READ[command]
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("photon", "--ql", "1e300", "--qc", "1e301", "--freq-hz", "1e9", "--pin-dbm", "0"),
        ("photon", *PHOTON_Q, "--freq-hz", "1e200", "--pin-dbm", "-100"),
        ("photon", *PHOTON_Q, "--freq-hz", "1e200", "--n-target", "1"),
        ("photon", "--ql", "1e300", "--qc", "1e301", "--freq-hz", "1e9", "--n-target", "1"),
        *[("photon", "--ql", "1", "--qc", "2", "--freq-hz", f, *mode)
          for f in ("1e-200", "1e-140") for mode in (("--pin-dbm", "0"), ("--n-target", "1"))],
        ("photon", *PHOTON_Q, "--freq-hz", "1e308", "--pin-dbm", "-100"),
    ],
)
def test_photon_overflow_is_input_error(capsys, argv):
    # finite inputs whose squares or photon number are past the float range:
    # <n> of Ql = 1e300, omega^2 at 1e200 Hz and omega itself at 1e308 Hz,
    # and <n> at a frequency where hbar*omega^2 is 0 (1e-200 Hz) or subnormal
    # (1e-140 Hz)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == "" and len(err.splitlines()) == 1
    assert "overflows" in err


def test_photon_n_target_is_the_power_of_n_photons(capsys):
    # Ql = 5e4 and |Qc| = 1e5 give Qi = 1e5 and <n> = 2 Ql^2 P / (|Qc| hbar omega^2)
    q = ("--ql", "5e4", "--qc", "1e5", "--freq-hz", "5.95e9")
    rc, out, _ = run_cli(capsys, "photon", *q, "--n-target", "1")
    assert rc == 0
    record = json.loads(out)
    assert record.keys() == {"n_target", "p_in_dbm"} and record["n_target"] == 1.0
    assert record["p_in_dbm"] == pytest.approx(-145.30500175354362, rel=1e-12)
    rc, out, _ = run_cli(capsys, "photon", *q, "--pin-dbm", "-145.30500175354362")
    assert rc == 0
    assert json.loads(out)["n_ph"] == pytest.approx(1.0, abs=1e-12)


def test_photon_tiny_coupling_keeps_its_loss(capsys):
    # x = Ql/|Qc| = 1e-17: 1 - |S21|^2 - |S11|^2 would round to 0, while
    # 2x(1 - x) keeps the loss and the hanger relation
    q = ("--qc", "1e5", "--freq-hz", "5.95e9")
    rc, out, err = run_cli(capsys, "photon", "--ql", "1e-12", *q, "--pin-dbm", "-100")
    assert rc == 0, err
    record = json.loads(out)
    assert record["p_loss_w"] == pytest.approx(2e-17 * 1e-13, rel=1e-12)
    hbar_omega_sq = HBAR_JS * angular_frequency(5.95e9) ** 2
    assert record["n_ph"] == pytest.approx(
        2 * 1e-24 * 1e-13 / (1e5 * hbar_omega_sq), rel=1e-12
    )
    rc, out, err = run_cli(capsys, "photon", "--ql", "1e-12", *q, "--n-target", "1")
    assert rc == 0, err
    assert math.isfinite(json.loads(out)["p_in_dbm"])
    # Ql > |Qc| is Qi < 0, and Ql = |Qc| is Qi = inf
    for ql, qc, mode in [
        ("2e5", "1e5", "--pin-dbm"), ("1", "1e-300", "--pin-dbm"),
        ("1e5", "1e5", "--pin-dbm"), ("1e5", "1e5", "--n-target"),
    ]:
        rc, out, err = run_cli(
            capsys, "photon", "--ql", ql, "--qc", qc, "--freq-hz", "5.95e9", mode, "1"
        )
        assert rc == 1 and out == "" and len(err.splitlines()) == 1
        assert "Qi is infinite or negative" in err


@pytest.mark.parametrize("mode", [("--pin-dbm", "-135"), ("--n-target", "1")])
def test_photon_att_db_without_pvna_dbm_is_input_error(capsys, mode):
    rc, out, err = run_cli(
        capsys, "photon", *PHOTON_Q, "--freq-hz", "5.95e9", *mode, "--att-db", "-110"
    )
    assert rc == 1
    assert out == "" and "--att-db" in err


@pytest.mark.parametrize("att, p_in", [(("--att-db", "-110"), -135.0), ((), -25.0)])
def test_photon_pvna_dbm_takes_att_db(capsys, att, p_in):
    rc, out, _ = run_cli(
        capsys, "photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--pvna-dbm", "-25", *att
    )
    assert rc == 0
    assert json.loads(out)["p_in_dbm"] == p_in


@pytest.mark.parametrize(
    "argv, message",
    [
        (("synth", "--points", "1e400"), "invalid int value"),
        (("fit",), "required: trace"),
        (("bogus",), "invalid choice"),
        (("photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--pin-dbm", "-135",
          "--pvna-dbm", "-25", "--att-db", "-110"), "not allowed with argument --pin-dbm"),
        (("photon", *PHOTON_Q, "--freq-hz", "5.95e9", "--n-target", "1",
          "--pin-dbm", "-135"), "not allowed with argument --n-target"),
        (("photon", *PHOTON_Q, "--freq-hz", "5.95e9"),
         "one of the arguments --pin-dbm --pvna-dbm --n-target is required"),
        (("fit", "--trace-format", "csv", "t.csv"), "unrecognized arguments: --trace-format"),
        (("photon", *PHOTON_Q, "--qi", "1e5", "--freq-hz", "5.95e9", "--n-target", "1"),
         "unrecognized arguments: --qi"),
    ],
)
def test_usage_error_is_input_error(capsys, argv, message):
    # exit 2 is kept for unfittable traces
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("argv", [("--version",), ("fit", "--help")])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out
