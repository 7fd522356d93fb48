import csv
import importlib.util
import io
import json
import math
import os
import re
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpwloss.constants import M3_TO_UM3, angular_frequency
from cpwloss.errors import FitError, InputError
from cpwloss.impedance import geometric_inductance, qp_loss_theory
from cpwloss.lossmodel import nqp_from_loss, q_tls, qi_theory
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import (
    calibrate_sweep_config,
    film_response,
    loss_chain,
    reference_chain,
    synth_sweep,
    theory_chain,
    tls_f_delta0_for_q,
)
from cpwloss.pipeline.io import ingest_s21, write_s21_csv
from cpwloss.pipeline.report import emit_report, report_to_dict, table_text, to_json
from cpwloss.pipeline.sweep import sweep_analyze
from cpwloss.resfit import S21Trace
from conftest import two_cpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def calibrated_doc():
    return calibrate_sweep_config(
        temperatures=[round(v, 4) for v in np.linspace(0.12, 2.9, 12)],
        noise_sigma=5e-4,
        npoints=501,
        seed=11,
    )


@pytest.fixture(scope="module")
def analyzed(calibrated_doc, tmp_path_factory):
    config = config_from_dict(calibrated_doc)
    paths = synth_sweep(config, tmp_path_factory.mktemp("sweep"))
    return config, paths, sweep_analyze(paths, config)


def write_traces(traces: list[S21Trace], out_dir: Path) -> list[Path]:
    """Each trace written to ``out_dir/trace<i>.csv``, in list order."""
    out_dir.mkdir(exist_ok=True)
    paths = [out_dir / f"trace{i}.csv" for i in range(len(traces))]
    for path, trace in zip(paths, traces):
        write_s21_csv(path, trace)
    return paths


class TestForwardModel:
    def test_calibration_anchors(self, calibrated_doc):
        pts = reference_chain(calibrated_doc)
        assert pts[0].qi_theory == pytest.approx(1e5, rel=1e-9)
        assert pts[-1].qi_theory == pytest.approx(7421.0, rel=1e-9)

    def test_tls_calibration_closed_form(self):
        f_d0 = tls_f_delta0_for_q(1e5, 0.12, 5.95e9, 10.0, 0.5)
        from cpwloss.lossmodel import TlsParams

        p = TlsParams(f_delta0=f_d0, n_c=10.0, beta_exp=0.5)
        q = q_tls(0.12, 1.0, p, angular_frequency(5.95e9))
        assert q == pytest.approx(1e5, rel=1e-12)

    @pytest.mark.parametrize(
        "qi_hot, match", [(1e7, "TLS-only"), (1e3, "fully kinetic limit")]
    )
    def test_calibration_rejects_unreachable_warm_anchor(self, qi_hot, match):
        with pytest.raises(ValueError, match=match):
            calibrate_sweep_config(qi_hot=qi_hot)

    def test_theory_chain_matches_scalar_blocks(self, calibrated_doc):
        # the array chain against the same blocks called one temperature at
        # a time; numpy and CPython round complex division and tanh apart
        config = config_from_dict(calibrated_doc)
        omega = angular_frequency(config.run.frequency_hz)
        chain = theory_chain(config, omega, config.run.temperatures)
        lg = geometric_inductance(config.geometry)
        g = config.fit.geom_factor(config.geometry)
        for i, t in enumerate(config.run.temperatures):
            film = film_response(config, omega, t)
            delta = qp_loss_theory(film.rs_ohm_sq, film.ls_h_sq, omega, lg, g)
            qtls = q_tls(t, config.fit.n_photon, config.tls, omega)
            pairs = {
                name: (getattr(chain.film, name)[i], getattr(film, name))
                for name in vars(film)
            } | {
                "delta_qp": (chain.delta_qp[i], delta),
                "q_tls": (chain.q_tls[i], qtls),
                "qi_theory": (chain.qi_theory[i], qi_theory(qtls, delta)),
            }
            for name, (got, want) in pairs.items():
                assert abs(got - want) <= 4 * np.spacing(abs(want)), (name, t)

    def test_kinetic_perturbation_oracle(self, calibrated_doc):
        # exact fr from the inductance ratio vs the first-order estimate
        # df/f = -(alpha/2) dLs/Ls; with the semi-infinite surface
        # impedance (Ls ~ sigma2^-1/2) this equals -(alpha/4) dsigma2/sigma2
        config = config_from_dict(calibrated_doc)
        pts = reference_chain(calibrated_doc)
        chain = theory_chain(
            config, angular_frequency(config.run.frequency_hz),
            [pt.temperature_k for pt in pts],
        )
        ls, s2 = chain.film.ls_h_sq, chain.film.sigma2_norm
        alpha = calibrated_doc["material"]["alpha"]
        ref = pts[0]
        for pt, ls_t, s2_t in zip(pts[1:], ls[1:], s2[1:]):
            df_exact = pt.fr_hz - ref.fr_hz
            dls = (ls_t - ls[0]) / ls[0]
            df_linear = -0.5 * alpha * dls * ref.fr_hz
            ds2 = (s2_t - s2[0]) / s2[0]
            df_sigma = 0.25 * alpha * ds2 * ref.fr_hz
            if abs(df_exact) > 1.0:
                assert df_linear == pytest.approx(df_exact, rel=0.1)
                assert df_sigma == pytest.approx(df_exact, rel=0.1)

    def test_chain_reproduces_the_benchmarks_frozen_table(self):
        # perfbench/freeze_data.py builds the benchmark's inputs from
        # calibrate_sweep_config and reference_chain; the frozen table it
        # wrote must still come out of them
        spec = importlib.util.spec_from_file_location(
            "freeze_data", PERFBENCH / "freeze_data.py"
        )
        freeze_data = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(freeze_data)
        frozen = json.loads((PERFBENCH / "data" / "reference.json").read_text())
        doc = calibrate_sweep_config()
        assert doc == frozen["config"]
        for name, temps in freeze_data.GRIDS.items():
            grid_doc = dict(doc, run=dict(doc["run"], temperatures=temps))
            rows = frozen["grids"][name]
            pts = freeze_data.reference_chain(grid_doc)
            assert len(pts) == len(rows)
            for pt, (t, fr, qi_total) in zip(pts, rows):
                assert pt.temperature_k == t
                assert abs(pt.fr_hz - fr) <= 4 * np.spacing(fr), (name, t)
                assert abs(pt.qi_total - qi_total) <= 4 * np.spacing(qi_total), (name, t)

    def test_synth_sweep_determinism(self, calibrated_doc, tmp_path):
        config = config_from_dict(calibrated_doc)
        a = synth_sweep(config, tmp_path / "a")
        b = synth_sweep(config, tmp_path / "b")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_synth_sweep_paths_ascend_in_temperature(self, calibrated_doc, tmp_path):
        doc = dict(calibrated_doc, run=dict(calibrated_doc["run"], temperatures=[1.0, 0.12, 0.5]))
        paths = synth_sweep(config_from_dict(doc), tmp_path)
        assert [ingest_s21(p).temperature_k for p in paths] == [0.12, 0.5, 1.0]
        assert sorted(tmp_path.iterdir()) == sorted(paths)


class TestSweepAnalyze:
    def test_recovers_injected_qi(self, analyzed):
        config, traces, report = analyzed
        pts = loss_chain(config)
        injected = {round(p.temperature_k, 6): p.qi_total for p in pts}
        assert len(report.fits) == len(pts)
        for (trace, _), qi in zip(report.fits, report.budget["qi_measured"]):
            want = injected[round(trace.temperature_k, 6)]
            assert qi == pytest.approx(want, rel=0.05)

    def test_qi_theory_conservation_per_entry(self, analyzed):
        config, _, report = analyzed
        chain = theory_chain(
            config, angular_frequency(report.derived["reference_fr_hz"]),
            [trace.temperature_k for trace, _ in report.fits],
        )
        assert report.budget["qi_theory"].tolist() == chain.qi_theory.tolist()

    def test_reference_is_fitted_trace_nearest_t_ref(self, analyzed, calibrated_doc):
        _, paths, _ = analyzed
        doc = dict(calibrated_doc, fit=dict(calibrated_doc["fit"], t_ref_kelvin=1.0))
        config = config_from_dict(doc)
        report = sweep_analyze(paths, config)
        temps = [trace.temperature_k for trace, _ in report.fits]
        nearest = min(temps, key=lambda t: abs(t - 1.0))
        assert nearest != temps[0]
        assert report.derived["reference_temperature_k"] == nearest
        assert report.delta_f_hz[temps.index(nearest)] == 0.0

    def test_density_two_path_identity(self, analyzed):
        config, _, report = analyzed
        omega = angular_frequency(report.derived["reference_fr_hz"])
        for (trace, _), delta_qp, nqp in zip(
            report.fits, report.delta_qp_theory, report.budget["nqp_theory_per_um3"]
        ):
            recomputed = (
                nqp_from_loss(
                    delta_qp, trace.temperature_k, config.material, omega,
                    config.fit.gap_model,
                )
                * M3_TO_UM3
            )
            assert nqp == recomputed

    def test_order_independence(self, analyzed):
        # only the provenance's input list follows the input order
        config, paths, report = analyzed
        order = np.random.default_rng(0).permutation(len(paths))
        doc = report_to_dict(report)
        doc2 = report_to_dict(sweep_analyze([paths[i] for i in order], config))
        inputs = doc["provenance"].pop("inputs")
        assert doc2["provenance"].pop("inputs") == [inputs[i] for i in order]
        assert doc2 == doc

    def test_no_onset_below_the_noise(self, calibrated_doc, tmp_path):
        # cold traces red-shift by a few Hz, inside 3 stderr(fr): no onset,
        # and the threshold is the relative floor
        doc = dict(calibrated_doc, run=dict(
            calibrated_doc["run"], temperatures=[0.12, 0.2, 0.3, 0.4], noise_sigma=5e-3
        ))
        config = config_from_dict(doc)
        report = sweep_analyze(synth_sweep(config, tmp_path), config)
        max_red = -report.delta_f_hz.min()
        assert max_red > 0
        assert report.derived["redshift_onset_k"] is None
        assert report.derived["redshift_threshold_hz"] == 0.01 * max_red

    def test_derived_block_matches_its_rules(self, calibrated_doc, tmp_path):
        # every derived field recomputed from report.json's per_temperature
        # entries by the rules the README states, on a sweep where both
        # counts are non-zero and the red shift has an onset whose threshold
        # is 3 stderr(fr), above the 1% floor
        temps = [*np.linspace(0.12, 1.0, 8), 1.1, 1.2, 1.25]
        doc = dict(calibrated_doc, run=dict(
            calibrated_doc["run"], temperatures=[round(t, 4) for t in temps], seed=14
        ))
        config = config_from_dict(doc)
        paths = synth_sweep(config, tmp_path / "traces")
        emit_report(sweep_analyze(paths, config), tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        entries = report["per_temperature"]
        t = [e["temperature_k"] for e in entries]
        assert t == sorted(t)
        ref = entries[0]  # no fit.t_ref_kelvin: the coldest fitted trace
        shifts = [e["delta_f_hz"] for e in entries]
        assert shifts == [e["fit"]["fr_hz"] - ref["fit"]["fr_hz"] for e in entries]
        low_t = [e for e in entries if e["temperature_k"] < config.material.tc_kelvin / 10]
        plateau = [
            e["budget"]["nqp_measured_per_um3"] for e in low_t
            if e["budget"]["nqp_measured_per_um3"] is not None
        ]
        floor = 0.01 * max(0.0, -min(shifts))
        onset = (None, floor)
        ref_err = ref["fit"]["stderr"]["fr_hz"]
        for e in entries:  # a shift's error combines its trace's and the reference's
            thr = max(3.0 * math.hypot(e["fit"]["stderr"]["fr_hz"], ref_err), floor)
            if e["delta_f_hz"] < -thr:
                onset = (e["temperature_k"], thr)
                break
        want = {
            "reference_temperature_k": ref["temperature_k"],
            "reference_fr_hz": ref["fit"]["fr_hz"],
            "nqp_plateau_per_um3": statistics.median(plateau) if plateau else None,
            "nqp_plateau_points": len(plateau),
            "redshift_onset_k": onset[0],
            "redshift_threshold_hz": onset[1],
            "excess_positive_below_tc_over_10": sum(e["excess_loss"] > 0 for e in low_t),
            "negative_loss_points": sum(e["budget"]["negative_loss"] for e in entries),
        }
        assert report["derived"] == want
        assert want["excess_positive_below_tc_over_10"] > 0
        assert want["negative_loss_points"] > 0
        assert want["nqp_plateau_points"] > 0 and want["redshift_onset_k"] is not None
        assert want["redshift_threshold_hz"] > floor

    def test_noise_alone_sets_no_redshift_onset(self, tmp_path):
        # fr moves by tens of Hz only above 1 K here; with the reference
        # trace's own fr error left out of the threshold, this seed's noise
        # set an onset at 0.2457 K
        temps = [round(v, 4) for v in np.linspace(0.12, 1.0, 8)] + [1.1, 1.2]
        doc = calibrate_sweep_config(
            temperatures=temps, noise_sigma=5e-4, npoints=501, seed=13
        )
        config = config_from_dict(doc)
        report = sweep_analyze(synth_sweep(config, tmp_path), config)
        onset = report.derived["redshift_onset_k"]
        assert onset is None or onset >= 1.0
        if onset is not None:
            errs = [fit.stderr["fr_hz"] for _, fit in report.fits]
            i = [tr.temperature_k for tr, _ in report.fits].index(onset)
            want = 3.0 * math.hypot(errs[i], errs[0])
            assert report.derived["redshift_threshold_hz"] == pytest.approx(want, rel=1e-12)

    def test_corrupt_trace_degrades_gracefully(self, analyzed, tmp_path):
        config, paths, _ = analyzed
        rng = np.random.default_rng(4)
        f = np.linspace(5.8e9, 5.9e9, 256)
        junk = S21Trace(
            f,
            0.9 + 1e-4 * (rng.standard_normal(256) + 1j * rng.standard_normal(256)),
            temperature_k=0.77,
        )
        [junk_path] = write_traces([junk], tmp_path)
        report = sweep_analyze(paths + [junk_path], config)
        assert len(report.failures) == 1
        assert report.failures[0].source == str(junk_path)
        assert len(report.fits) == len(paths)

    def test_all_failed_is_error(self, analyzed, tmp_path):
        config, _, _ = analyzed
        f = np.linspace(5.8e9, 5.9e9, 64)
        flats = [
            S21Trace(f, np.full(64, 0.9 + 0j), temperature_k=t) for t in (0.2, 0.4)
        ]
        with pytest.raises(FitError):
            sweep_analyze(write_traces(flats, tmp_path), config)

    def test_missing_file_is_an_input_error(self, analyzed, tmp_path):
        # as for a file that exists but cannot be read
        config, paths, _ = analyzed
        missing = tmp_path / "missing.csv"
        with pytest.raises(InputError, match=f"^cannot read {re.escape(str(missing))}: "):
            sweep_analyze([*paths[:2], missing], config)

    def test_power_mismatch_rejected(self, analyzed, tmp_path):
        config, paths, _ = analyzed
        bad = [ingest_s21(p) for p in paths]
        bad[0].power_dbm = -130.0
        bad[1].power_dbm = -120.0
        with pytest.raises(InputError, match="power"):
            sweep_analyze(write_traces(bad, tmp_path), config)

    def test_duplicate_temperature_rejected(self, analyzed, tmp_path):
        config, paths, _ = analyzed
        dup = [ingest_s21(p) for p in paths[:3]]
        dup[1].temperature_k = dup[0].temperature_k
        written = write_traces(dup, tmp_path)
        clash = (
            f"{re.escape(str(written[0]))} and {re.escape(str(written[1]))} "
            f"are both at {dup[0].temperature_k} K"
        )
        with pytest.raises(InputError, match="distinct: " + clash):
            sweep_analyze(written, config)

    def test_only_traces_below_tc_count_toward_two(self, analyzed, tmp_path):
        config, paths, _ = analyzed
        pair = [ingest_s21(p) for p in paths[:2]]
        pair[1].temperature_k = config.material.tc_kelvin
        with pytest.raises(InputError, match="at least 2"):
            sweep_analyze(write_traces(pair, tmp_path), config)


class TestEmitReport:
    def test_deterministic_bytes(self, analyzed, tmp_path):
        _, _, report = analyzed
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        emit_report(report, d1)
        emit_report(report, d2)
        for name in ("report.json", "qi_vs_T.csv", "df_vs_T.csv",
                     "sigma_vs_T.csv", "nqp_vs_T.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_json_round_trip(self, analyzed, tmp_path):
        _, _, report = analyzed
        out = tmp_path / "rt"
        emit_report(report, out)
        loaded = json.loads((out / "report.json").read_text())
        assert loaded == report_to_dict(report)

    def test_empty_report_has_no_csvs(self, tmp_path):
        from cpwloss.pipeline.forward import FilmResponse
        from cpwloss.pipeline.sweep import AnalysisReport

        none = np.empty(0)
        empty = AnalysisReport(
            fits=[], delta_f_hz=none, budget={}, delta_qp_theory=none,
            excess_loss=none, excess_negative=none.astype(bool),
            film=FilmResponse(*[none] * 6), failures=[], derived={}, provenance={},
        )
        written = emit_report(empty, tmp_path / "empty")
        assert [p.name for p in written] == ["report.json"]
        doc = json.loads((tmp_path / "empty" / "report.json").read_text())
        assert doc["per_temperature"] == []

    @pytest.mark.parametrize("infinite_qi", [False, True], ids=["analyzed", "infinite_qi"])
    def test_csv_columns_match_report_json(self, analyzed, tmp_path, infinite_qi):
        _, _, report = analyzed
        if infinite_qi:
            # a fit flagged nonphysical_qi carries qi = inf: null in
            # report.json, so an empty cell in the CSV as well
            trace, fit = report.fits[1]
            fits = list(report.fits)
            stderr = {**fit.stderr, "qi": math.inf}
            fits[1] = trace, replace(fit, qi=math.inf, stderr=stderr)
            report = replace(report, fits=fits)
        out = tmp_path / "cols"
        emit_report(report, out)
        doc = json.loads((out / "report.json").read_text())
        assert doc == json.loads(to_json(report_to_dict(report)))
        t = ("temperature_k",)
        columns = {
            "qi_vs_T.csv": {
                "temperature_K": t, "qi_measured": ("fit", "qi"),
                "qi_stderr": ("fit", "stderr", "qi"),
                "qi_theory": ("budget", "qi_theory"), "q_tls": ("budget", "q_tls"),
                "q_qp_theory": ("budget", "q_qp_theory"),
            },
            "df_vs_T.csv": {
                "temperature_K": t, "fr_hz": ("fit", "fr_hz"),
                "fr_stderr_hz": ("fit", "stderr", "fr_hz"), "delta_f_hz": ("delta_f_hz",),
            },
            "sigma_vs_T.csv": {
                "temperature_K": t, "sigma1_norm": ("sigma", "sigma1_norm"),
                "sigma2_norm": ("sigma", "sigma2_norm"),
                "sigma1_s_per_m": ("sigma", "sigma1_s_per_m"),
                "sigma2_s_per_m": ("sigma", "sigma2_s_per_m"),
            },
            "nqp_vs_T.csv": {
                "temperature_K": t,
                "nqp_measured_per_um3": ("budget", "nqp_measured_per_um3"),
                "nqp_theory_per_um3": ("budget", "nqp_theory_per_um3"),
                "delta_qp_measured": ("budget", "delta_qp_measured"),
                "negative_loss": ("budget", "negative_loss"),
            },
        }

        def cell(entry, path):
            for key in path:
                entry = entry[key]
            if entry is None:
                return ""
            if isinstance(entry, bool):
                return "1" if entry else "0"
            return repr(entry)

        assert doc["provenance"]["csv_schemas"] == {
            name: ",".join(cols) for name, cols in sorted(columns.items())
        }
        for name, cols in columns.items():
            header, *rows = (out / name).read_text().splitlines()
            assert header == ",".join(cols)
            assert rows == [
                ",".join(cell(e, path) for path in cols.values())
                for e in doc["per_temperature"]
            ]

    def test_csv_row_count(self, analyzed, tmp_path):
        _, _, report = analyzed
        out = tmp_path / "rows"
        emit_report(report, out)
        lines = (out / "qi_vs_T.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.fits)


MB_COLUMNS = (
    "temperature_k", "sigma1_norm", "sigma2_norm", "sigma1_s_per_m",
    "sigma2_s_per_m", "rs_ohm_sq", "ls_h_sq",
)
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 2.5e-310, -1e-310, 1e16, 1e-5, 1e-4, 1e15,
    1.2345678901234568e17, math.nan, math.inf, -math.inf,
)
_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def float_tables(draw, names=st.lists(st.text(), min_size=1, max_size=4, unique=True)):
    keys = draw(names)
    n = draw(st.integers(0, 6))
    return {k: np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=float)
            for k in keys}


def _finite_rows(columns):
    return [
        {k: v if math.isfinite(v) else None for k, v in zip(columns, row)}
        for row in zip(*(c.tolist() for c in columns.values()))
    ]


class TestTableText:
    """The mb table text against the generic encoders it stands in for."""

    @given(float_tables())
    @example({"temperature_k": np.array([])})
    @example({"temperature_k": np.array([0.5]), "sigma1_norm": np.array([-0.0])})
    @example({"edge": np.array(EDGE_FLOATS), "%s \"q\",\n\u00e9": -np.array(EDGE_FLOATS)})
    def test_json_matches_json_dumps(self, columns):
        want = json.dumps(_finite_rows(columns), indent=2, allow_nan=False) + "\n"
        assert table_text(columns, "json") == want

    @given(float_tables(names=st.just(list(MB_COLUMNS))))
    @example({k: np.roll(EDGE_FLOATS, i) for i, k in enumerate(MB_COLUMNS)})
    def test_csv_matches_csv_writer(self, columns):
        # NaN/inf are an empty cell, as None is for csv.writer; an empty
        # table is its header row
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(r.values() for r in _finite_rows(columns))
        assert table_text(columns, "csv") == want.getvalue()


_strings = st.one_of(
    st.text(),
    st.sampled_from(["", "%s", "%%", '"q"', "a,b", "\\", "\x00\x1f\x7f", "\r\n",
                     "\r", "\n", "\u00e9\u20ac\U0001f600", "\u2028"]),
)
_cells = st.one_of(st.none(), st.booleans(), st.integers(), _floats, _strings)
_json_trees = st.recursive(
    st.one_of(_cells, _floats.map(np.float64)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
    ),
    max_leaves=24,
)


def _null_nonfinite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_nonfinite(v) for v in obj]
    return obj


@st.composite
def cell_tables(draw):
    names = draw(st.lists(_strings, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 4))
    return {k: draw(st.lists(_cells, min_size=n, max_size=n)) for k in names}


class TestWriter:
    """report.py's writer against the stdlib encoders it stands in for."""

    @given(_json_trees)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": (), "d": [{}, [[]]]})
    @example({"edge": list(EDGE_FLOATS), "np": [np.float64(v) for v in EDGE_FLOATS]})
    def test_json_matches_json_dumps(self, obj):
        want = json.dumps(_null_nonfinite(obj), indent=2, allow_nan=False)
        assert to_json(obj) == want

    @pytest.mark.parametrize(
        "obj",
        [np.int64(1), np.bool_(True), {1.0}, b"x", {1: "a"}, {"a": [np.int64(1)]}],
        ids=["np.int64", "np.bool_", "set", "bytes", "int key", "nested"],
    )
    def test_other_types_are_type_errors(self, obj):
        with pytest.raises(TypeError):
            to_json(obj)
        with pytest.raises(TypeError):
            table_text({"a": [obj]}, "csv")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_column_name_that_is_not_a_str_is_a_type_error(self, fmt):
        with pytest.raises(TypeError):
            table_text({1: [1.0]}, fmt)

    @given(cell_tables())
    @example({"a": [None, ""], "b,\"c\"": ["x\ny", "\r"]})
    @example({"a": [None, math.nan, "", True, False, 0]})
    def test_csv_reads_back_and_matches_csv_writer(self, columns):
        # csv.writer is given the cell rule's value: None for null, an int
        # for a bool
        def written(v):
            if v is None or isinstance(v, float) and not math.isfinite(v):
                return None
            return int(v) if isinstance(v, bool) else v

        rows = [list(columns)]
        rows += zip(*([written(v) for v in c] for c in columns.values()))
        text = table_text(columns, "csv")
        want = [["" if v is None else str(v) for v in row] for row in rows]
        assert list(csv.reader(io.StringIO(text, newline=""))) == want
        ref = io.StringIO()
        csv.writer(ref, lineterminator="\n").writerows(rows)
        # Python 3.11's writer leaves a bare CR unquoted
        if "\r" not in ref.getvalue():
            assert text == ref.getvalue()


def _forks_for(columns):
    """The forks that a table takes when each process needs only one byte:
    one worker beside the caller from two rows."""
    return 1 if min(map(len, columns.values()), default=0) >= 2 else 0


class TestTableOnTwoWorkers:
    """The table properties of TestTableText and TestWriter, with every table
    of two or more rows cut into two blocks, one for the caller and one for
    a forked worker, as test_parallel.py's ``pooled`` fixture forces a map."""

    @given(float_tables())
    @example({"edge": np.array(EDGE_FLOATS), "%s \"q\",\n\u00e9": -np.array(EDGE_FLOATS)})
    def test_json_matches_json_dumps(self, columns):
        with two_cpus(min_bytes_per_worker=1) as forks:
            TestTableText.test_json_matches_json_dumps.hypothesis.inner_test(
                TestTableText(), columns
            )
        assert len(forks) == _forks_for(columns)

    @given(float_tables(names=st.just(list(MB_COLUMNS))))
    @example({k: np.roll(EDGE_FLOATS, i) for i, k in enumerate(MB_COLUMNS)})
    def test_csv_matches_csv_writer(self, columns):
        with two_cpus(min_bytes_per_worker=1) as forks:
            TestTableText.test_csv_matches_csv_writer.hypothesis.inner_test(
                TestTableText(), columns
            )
        assert len(forks) == _forks_for(columns)

    @given(cell_tables())
    @example({"a": [None, ""], "b,\"c\"": ["x\ny", "\r"]})
    @example({"a": [None, math.nan, "", True, False, 0]})
    def test_csv_reads_back_and_matches_csv_writer(self, columns):
        with two_cpus(min_bytes_per_worker=1) as forks:
            TestWriter.test_csv_reads_back_and_matches_csv_writer.hypothesis.inner_test(
                TestWriter(), columns
            )
        assert len(forks) == _forks_for(columns)

    @given(cell_tables().filter(lambda c: _forks_for(c)), st.data())
    def test_bad_cell_is_a_type_error(self, columns, data):
        # one column gets a cell of no JSON or CSV type, in either block
        name = data.draw(st.sampled_from(list(columns)))
        row = data.draw(st.integers(0, len(columns[name]) - 1))
        bad = data.draw(st.sampled_from([np.int64(1), {1.0}, b"x"]))
        columns[name][row] = bad
        fmt = data.draw(st.sampled_from(["json", "csv"]))
        with two_cpus(min_bytes_per_worker=1) as forks, pytest.raises(TypeError):
            table_text(columns, fmt)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):  # the worker reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_name_that_is_not_a_str_fails_before_any_fork(self, fmt):
        with two_cpus(min_bytes_per_worker=1) as forks, pytest.raises(TypeError):
            table_text({"a": [1.0, 2.0], 1: [1.0, 2.0]}, fmt)
        assert forks == []
