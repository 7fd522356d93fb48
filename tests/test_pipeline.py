import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpwloss.errors import ConfigError, DataQualityWarning, InputError
from cpwloss.pipeline import config as cfgmod
from cpwloss.pipeline import io as io_module
from cpwloss.pipeline.dc import extract_tc_rrr
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.io import ingest_rt, ingest_s21, write_s21_csv
from cpwloss.pipeline.sweep import sweep_analyze
from cpwloss.pipeline.xrd import lattice_constant
from cpwloss.resfit import NotchParams, synth_trace
from conftest import default_grid


class TestIngestS21Csv:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "# temperature_K=0.12\n# power_dbm=-135\n"
            "freq_hz,s21_re,s21_im\n"
            "5.0e9,1.0,0.0\n5.1e9,0.5,-0.5\n5.2e9,0.9,0.1\n"
        )
        tr = ingest_s21(p)
        assert len(tr) == 3
        assert tr.temperature_k == 0.12
        assert tr.power_dbm == -135.0
        assert tr.s21[1] == 0.5 - 0.5j

    def test_db_deg_equivalent_to_re_im(self, tmp_path):
        freq = [5.0e9, 5.1e9, 5.2e9]
        vals = [0.8 * np.exp(0.3j), 0.2 * np.exp(-1.0j), 1.1 * np.exp(2.5j)]
        ri = ["freq_hz,s21_re,s21_im"] + [
            f"{f},{float(v.real)!r},{float(v.imag)!r}" for f, v in zip(freq, vals)
        ]
        db = ["freq_hz,s21_db,s21_deg"] + [
            f"{f},{float(20*np.log10(abs(v)))!r},{float(math.degrees(np.angle(v)))!r}"
            for f, v in zip(freq, vals)
        ]
        p1, p2 = tmp_path / "ri.csv", tmp_path / "db.csv"
        p1.write_text("\n".join(ri))
        p2.write_text("\n".join(db))
        a, b = ingest_s21(p1), ingest_s21(p2)
        np.testing.assert_allclose(a.s21, b.s21, rtol=0, atol=1e-9)

    def test_non_monotone_sorted_with_warning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "freq_hz,s21_re,s21_im\n5.2e9,3.0,0.0\n5.0e9,1.0,0.0\n5.1e9,2.0,0.0\n"
        )
        with pytest.warns(DataQualityWarning):
            tr = ingest_s21(p)
        assert np.all(np.diff(tr.freq_hz) > 0)
        assert tr.s21[0] == 1.0 + 0j

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("freq_hz,s21_re,s21_im\n5.0e9,1.0,0.0\n5.1e9,oops,0.0\n")
        with pytest.raises(InputError, match=r":3:"):
            ingest_s21(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(InputError):
            ingest_s21(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("freq_hz,s21_re,s21_im\n")
        with pytest.raises(InputError, match="no data rows"):
            ingest_s21(p)

    def test_write_read_round_trip(self, tmp_path):
        p = NotchParams(fr_hz=5.95e9, ql=7e4, qc_mag=1e5, phi_rad=0.2)
        tr = synth_trace(p, default_grid(p, n=64), 1e-3, seed=9, temperature_k=1.5)
        path = tmp_path / "rt.csv"
        write_s21_csv(path, tr)
        back = ingest_s21(path)
        np.testing.assert_array_equal(back.freq_hz, tr.freq_hz)
        np.testing.assert_array_equal(back.s21, tr.s21)
        assert back.temperature_k == 1.5


class TestIngestTouchstone:
    def header(self, fmt):
        return f"! VNA export\n! temperature_K=0.5\n# HZ S {fmt} R 50\n"

    def test_ri_format(self, tmp_path):
        p = tmp_path / "t.s2p"
        rows = [
            "5.0e9 0.9 0.0 0.8 -0.1 0.01 0.0 0.9 0.0",
            "5.1e9 0.9 0.0 0.7 -0.2 0.01 0.0 0.9 0.0",
        ]
        p.write_text(self.header("RI") + "\n".join(rows) + "\n")
        tr = ingest_s21(p)
        assert tr.temperature_k == 0.5
        assert tr.s21[0] == 0.8 - 0.1j
        assert tr.s21[1] == 0.7 - 0.2j

    def test_db_format(self, tmp_path):
        p = tmp_path / "t.s2p"
        rows = [
            "5.0e9 0.0 0.0 -6.0205999132796239 90.0 0.0 0.0 0.0 0.0",
            "5.1e9 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0",
        ]
        p.write_text(self.header("DB") + "\n".join(rows) + "\n")
        tr = ingest_s21(p)
        assert tr.s21[0] == pytest.approx(0.5j, abs=1e-12)
        assert tr.s21[1] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_ghz_unit(self, tmp_path):
        p = tmp_path / "t.s2p"
        p.write_text(
            "# GHZ S RI R 50\n5.0 0 0 1 0 0 0 0 0\n5.1 0 0 1 0 0 0 0 0\n"
        )
        tr = ingest_s21(p)
        assert tr.freq_hz[0] == 5.0e9

    def test_ma_rejected(self, tmp_path):
        p = tmp_path / "t.s2p"
        p.write_text("# HZ S MA R 50\n5.0e9 1 0 1 0 1 0 1 0\n")
        with pytest.raises(InputError, match="MA"):
            ingest_s21(p)

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "t.s2p"
        p.write_text("# HZ S RI R 50\n5.0e9 1 0 1\n")
        with pytest.raises(InputError, match=":2:"):
            ingest_s21(p)


class TestIngestRt:
    def test_basic_series(self, tmp_path):
        p = tmp_path / "rt.csv"
        p.write_text("temperature_K,resistance_ohm\n2.0,0.1\n5.0,0.2\n10.0,100.0\n")
        t, r = ingest_rt(p)
        assert list(t) == [2.0, 5.0, 10.0]
        assert list(r) == [0.1, 0.2, 100.0]

    def test_duplicates_averaged(self, tmp_path):
        p = tmp_path / "rt.csv"
        p.write_text("temperature_K,resistance_ohm\n2.0,1.0\n2.0,3.0\n5.0,4.0\n")
        with pytest.warns(DataQualityWarning):
            t, r = ingest_rt(p)
        assert list(t) == [2.0, 5.0]
        assert list(r) == [2.0, 4.0]

    def test_negative_resistance_rejected(self, tmp_path):
        p = tmp_path / "rt.csv"
        p.write_text("temperature_K,resistance_ohm\n2.0,-1.0\n")
        with pytest.raises(InputError, match="negative"):
            ingest_rt(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, text",
    [
        ("t.csv", "freq_hz,s21_db,s21_deg\n5.0e9,0,0\n5.1e9,1e6,0\n"),
        ("t.s2p", "# HZ S DB R 50\n5.0e9 0 0 0 0 0 0 0 0\n5.1e9 0 0 1e6 0 0 0 0 0\n"),
    ],
)
def test_db_overflow_is_input_error(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(InputError, match="non-finite"):
        ingest_s21(p)


def test_touchstone_option_line_after_the_data_is_a_malformed_row(tmp_path):
    # the option line comes before the data (Touchstone v1); a later one
    # must not rescale the rows read before it
    p = tmp_path / "t.s2p"
    row = "{} 0 0 1 0 0 0 1 0\n"
    p.write_text("# Hz S RI R 50\n" + row.format("5.0e9") + row.format("5.1e9")
                 + "# GHz S RI R 50\n" + row.format("5.2e9"))
    with pytest.raises(InputError, match=r"t\.s2p:4: expected 9 numbers, got '# GHz S RI R 50'"):
        ingest_s21(p)


@pytest.mark.parametrize(
    "name, text, lineno",
    [
        ("t.csv", "# note\n# temperature_K=nan\nfreq_hz,s21_re,s21_im\n", 2),
        ("t.csv", "# power_dbm=-inf\nfreq_hz,s21_re,s21_im\n", 1),
        ("t.s2p", "! x\n! temperature_K=inf\n# HZ S RI R 50\n", 2),
        ("t.s2p", "# HZ S RI R 50\n! power_dbm = NaN\n", 2),
    ],
)
def test_non_finite_metadata_tag_is_input_error(tmp_path, name, text, lineno):
    row = "{},1,0\n" if name.endswith(".csv") else "{} 0 0 1 0 0 0 1 0\n"
    p = tmp_path / name
    p.write_text(text + row.format("5e9") + row.format("5.1e9"))
    with pytest.raises(InputError, match=f":{lineno}: bad metadata"):
        ingest_s21(p)


FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# (file name, reader, header lines, columns, column separator, comment lines)
FORMATS = {
    "csv_ri": ("t.csv", ingest_s21, ["# power_dbm=-135", "freq_hz,s21_re,s21_im"],
               3, ",", ["# note", ""]),
    "csv_db": ("t.csv", ingest_s21, ["freq_hz , S21_dB,s21_deg"], 3, ",", ["# x", " "]),
    "s2p": ("t.s2p", ingest_s21, ["! temperature_K=0.5", "# HZ S DB R 50"],
            9, " ", ["! note", "", "  ! indented"]),
    "rt": ("rt.csv", ingest_rt, ["temperature_K,resistance_ohm"],
           2, ",", ["# temperature_K=not read", ""]),
}

BAD_TOKENS = ["oops", "1_000", "1.0.0", "", "nan", "-inf", "1e999", "0x10", "1e", "\uff11"]


def _read(tmp_path, fmt, text):
    """Run one reader on ``text``: a value or an InputError, never another
    exception or a warning other than the documented data-quality one."""
    name, reader, *_ = FORMATS[fmt]
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", DataQualityWarning)
        return reader(p)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_fuzz_arbitrary_text(tmp_path, fmt, data):
    header = "\n".join(FORMATS[fmt][2])
    body = data.draw(
        st.one_of(
            st.text(),
            st.text(alphabet="0123456789.,-+eE_ \t#!naifHzGRIDBM\n"),
        )
    )
    prefix = data.draw(st.sampled_from(["", header + "\n"]))
    try:
        _read(tmp_path, fmt, prefix + body)
    except InputError:
        pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_fuzz_bad_token_names_its_line(tmp_path, fmt, data):
    _, _, header, ncols, sep, fillers = FORMATS[fmt]
    nrows = data.draw(st.integers(2, 8))
    bad_row = data.draw(st.integers(0, nrows - 1))
    bad_col = data.draw(st.integers(0, ncols - 1))
    token = data.draw(st.none() | st.sampled_from(BAD_TOKENS))
    if fmt == "rt" and bad_col == 1:
        token = data.draw(st.sampled_from([token, "-2.5"]))
    lines = list(header)
    bad_line = None
    for i in range(nrows):
        lines.extend(data.draw(st.lists(st.sampled_from(fillers), max_size=2)))
        cells = [repr(5.0e9 + 1e3 * i)] + ["0.5"] * (ncols - 1)
        if i == bad_row and token is not None:
            cells[bad_col] = token
            bad_line = len(lines) + 1
        lines.append(sep.join(cells))
    text = "\n".join(lines) + "\n"
    if bad_line is None:
        _read(tmp_path, fmt, text)
        return
    with pytest.raises(InputError) as info:
        _read(tmp_path, fmt, text)
    assert f":{bad_line}:" in str(info.value)
    if token == "-2.5":
        assert "negative resistance" in str(info.value)


# lines that may stand between the rows of a data block, by comment character
BLOCK_FILLERS = {
    "#": ["", "   ", "\t", "# note", "# temperature_K=0.3", "# power_dbm=-100",
          "#temperature_K=nan", "# temperature_K=x"],
    "!": ["", "   ", "\t", "! note", "! temperature_K=0.7", "! power_dbm = -90",
          "! power_dbm=inf", "# GHz S RI R 50", "# MHz S MA R 50"],
}


@st.composite
def block_documents(draw, fmt):
    """A document of one format whose data block mixes good rows with the
    cases the one-call parse hands to the numbered rows."""
    _, _, header, ncols, sep, _ = FORMATS[fmt]
    comment = "!" if fmt == "s2p" else "#"
    # the filler lines of this document: often none, so that the one-call
    # parse also meets the bad rows
    fillers = sorted(draw(st.sets(st.sampled_from(BLOCK_FILLERS[comment]), max_size=3)))
    filler_lines = st.lists(st.sampled_from(fillers), max_size=2) if fillers else st.just([])
    lines = list(header)
    for i in range(draw(st.integers(0, 6))):
        lines += draw(filler_lines)
        freq = draw(st.sampled_from([5.0e9 + 1e3 * i] * 4 + [5.0e9, 4.0e9]))
        cells = [repr(freq)] + [repr(1.0 - 0.1 * i)] * (ncols - 1)
        if draw(st.integers(0, 7)) == 0:
            cells[draw(st.integers(0, ncols - 1))] = draw(st.sampled_from(BAD_TOKENS))
        if draw(st.integers(0, 7)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0.5"]
        row = sep.join(cells)
        pad = draw(st.sampled_from(["", " ", "\t"]))
        row = pad + row + draw(st.sampled_from(["", " ", "\t"]))
        if fmt == "s2p" and draw(st.integers(0, 5)) == 0:
            row += " ! trailing"
        lines.append(row)
    lines += draw(filler_lines)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(tmp_path, fmt, text):
    """The bytes and metadata a reader returns for ``text``, or its
    InputError text."""
    try:
        out = _read(tmp_path, fmt, text)
    except InputError as exc:
        return str(exc)
    if fmt == "rt":
        return tuple(a.tobytes() for a in out)
    return (out.freq_hz.tobytes(), out.s21.tobytes(), out.temperature_k,
            out.power_dbm, out.source)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_one_call_parse_matches_the_numbered_rows(tmp_path, monkeypatch, fmt, data):
    text = data.draw(block_documents(fmt))
    one_call = _outcome(tmp_path, fmt, text)
    real, first = io_module._numbers, iter([True])

    def raw_block_fails(lines, *args):
        if next(first, False):  # the first call, over the raw data block
            raise ValueError("raw block")
        return real(lines, *args)

    with monkeypatch.context() as m:
        m.setattr(io_module, "_numbers", raw_block_fails)
        assert _outcome(tmp_path, fmt, text) == one_call


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_clean_data_block_is_parsed_in_one_call(tmp_path, monkeypatch, fmt):
    _, _, header, ncols, sep, _ = FORMATS[fmt]
    rows = [sep.join([repr(5.0e9 + 1e3 * i)] + ["0.5"] * (ncols - 1)) for i in range(50)]
    calls = []
    real = io_module._numbers

    def counted(lines, *args):
        calls.append(len(lines))
        return real(lines, *args)

    monkeypatch.setattr(io_module, "_numbers", counted)
    _read(tmp_path, fmt, "\n".join([*header, *rows]) + "\n")
    assert calls == [50]


def test_byte_order_mark_reads_as_the_file_without_it(tmp_path):
    """A UTF-8 byte-order mark, as Windows and Excel exports write it, is
    dropped: each reader returns what it returns for the file without it,
    an error names the same line, and a sweep's provenance hashes the raw
    bytes, mark included."""
    docs = {  # format: head lines, a row, the line of the second row
        "csv_ri": ("# temperature_K=0.5\nfreq_hz,s21_re,s21_im\n", "{},0.5,-0.5\n", 4),
        "s2p": ("! temperature_K=0.5\n# HZ S RI R 50\n", "{} 0 0 0.5 -0.5 0 0 1 0\n", 4),
        "rt": ("temperature_K,resistance_ohm\n", "{},2.0\n", 3),
    }
    for fmt, (head, row, lineno) in docs.items():
        for last in ("5.1e9", "oops"):
            text = head + row.format("5e9") + row.format(last)
            outcome = _outcome(tmp_path, fmt, text)
            assert _outcome(tmp_path, fmt, "\ufeff" + text) == outcome
            if last == "oops":
                assert f":{lineno}: expected" in outcome
            else:
                assert isinstance(outcome, tuple)

    config = cfgmod.config_from_dict(calibrate_sweep_config(temperatures=[0.3, 0.6], npoints=201))
    paths = synth_sweep(config, tmp_path / "sweep")
    for p in paths:
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    report = sweep_analyze(paths, config)
    assert len(report.fits) == 2
    assert [entry["sha256"] for entry in report.provenance["inputs"]] == [
        hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
    ]


def synthetic_rt(tc=10.7, plateau=159.5, rrr=0.98, width=0.08):
    t = np.concatenate(
        [
            np.arange(2.0, 9.0, 0.5),
            np.arange(9.0, 13.0, 0.05),
            np.arange(13.0, 40.0, 1.0),
            np.arange(40.0, 301.0, 5.0),
        ]
    )
    r = plateau * 0.5 * (1.0 + np.tanh((t - tc) / width))
    high = t > 40.0
    r[high] = plateau * (1.0 - (1.0 - rrr) * (t[high] - 40.0) / 260.0)
    return t, r


class TestExtractTcRrr:
    def test_reference_step(self):
        t, r = synthetic_rt()
        out = extract_tc_rrr(t, r)
        assert out.tc_kelvin == pytest.approx(10.7, abs=0.1)
        assert out.r_sq_tc_ohm == pytest.approx(159.5, abs=0.5)
        assert out.rrr == pytest.approx(0.98, abs=0.005)
        assert out.t10_kelvin < out.tc_kelvin < out.t90_kelvin

    def test_flat_normal_state_gives_unit_rrr(self):
        t, r = synthetic_rt(rrr=1.0)
        out = extract_tc_rrr(t, r)
        assert out.rrr == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance(self):
        t, r = synthetic_rt()
        a = extract_tc_rrr(t, r)
        b = extract_tc_rrr(t, 7.3 * r)
        assert b.tc_kelvin == pytest.approx(a.tc_kelvin, rel=1e-12)
        assert b.rrr == pytest.approx(a.rrr, rel=1e-12)
        assert b.r_sq_tc_ohm == pytest.approx(7.3 * a.r_sq_tc_ohm, rel=1e-12)

    def test_no_transition_rejected(self):
        t = np.linspace(2.0, 300.0, 100)
        r = np.full_like(t, 100.0)
        with pytest.raises(InputError, match="transition"):
            extract_tc_rrr(t, r)

    def test_short_series_flags_rrr(self):
        t, r = synthetic_rt()
        keep = t <= 100.0
        with pytest.warns(DataQualityWarning):
            out = extract_tc_rrr(t[keep], r[keep])
        assert out.rrr is None
        assert out.tc_kelvin == pytest.approx(10.7, abs=0.1)


class TestLatticeConstant:
    def test_table_rows(self):
        assert lattice_constant(35.73, (1, 1, 1)) == pytest.approx(4.35, abs=0.01)
        assert lattice_constant(41.38, (2, 0, 0)) == pytest.approx(4.36, abs=0.01)

    def test_algebraic_identity(self):
        # (100) with sin(theta) = lambda/2 gives a = 1 for any wavelength
        lam = 1.5406
        two_theta = 2.0 * math.degrees(math.asin(lam / 2.0))
        assert lattice_constant(two_theta, (1, 0, 0), lam) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            lattice_constant(0.0, (1, 1, 1))
        with pytest.raises(ValueError):
            lattice_constant(190.0, (1, 1, 1))
        with pytest.raises(ValueError):
            lattice_constant(35.0, (0, 0, 0))


class TestConfig:
    def good_doc(self):
        return {
            "material": {
                "tc_kelvin": 10.7,
                "sheet_resistance_ohm": 159.5,
                "thickness_m": 1e-7,
                "n0_states": 1.86e28,
                "alpha": 0.5,
            },
            "geometry": {
                "center_width_m": 4e-6,
                "gap_m": 2e-6,
                "thickness_m": 1e-7,
                "substrate_eps_r": 11.7,
            },
            "tls": {"f_delta0": 1.26e-5, "n_c": 10.0, "beta_exp": 0.5},
            "fit": {"sigma2_prefactor": "pi"},
            "run": {"frequency_hz": 5.95e9, "seed": 3},
        }

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.good_doc()))
        cfg = cfgmod.load_config(path)
        assert cfg.material.tc_kelvin == 10.7
        assert cfg.fit.sigma2_prefactor == "pi"
        assert cfg.run.seed == 3
        assert cfg.digest == cfgmod.config_sha256(self.good_doc())

    def test_unknown_section_rejected(self):
        doc = self.good_doc()
        doc["materiel"] = doc.pop("material")
        with pytest.raises(ConfigError, match="materiel"):
            cfgmod.config_from_dict(doc)

    def test_unknown_key_rejected(self):
        # a typo, and the keys that no computation read and that were removed
        for section, key in [
            ("material", "alpah"),
            ("material", "mean_free_path_m"),
            ("material", "coherence_length_m"),
            ("material", "penetration_depth_m"),
            ("geometry", "length_m"),
            ("fit", "redshift_nsigma"),
            ("fit", "redshift_rel_floor"),
            ("run", "phi_rad"),
            ("run", "amp"),
            ("run", "phase0_rad"),
            ("run", "tau_s"),
        ]:
            doc = self.good_doc()
            doc[section][key] = 0.5
            with pytest.raises(ConfigError, match=key):
                cfgmod.config_from_dict(doc)

    def test_bad_enum_rejected(self):
        for key in ("sigma2_prefactor", "gap_model"):
            doc = self.good_doc()
            doc["fit"][key] = "both"
            with pytest.raises(ConfigError, match=key):
                cfgmod.config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tls", "beta_exp", 2.0),
            ("tls", "n_c", -1.0),
            ("tls", "f_delta0", 0.0),
            ("run", "frequency_hz", -1.0),
            ("run", "qc_mag", -5.0),
            ("run", "temperatures", [0.12, 0.0, 1.0]),
            ("fit", "t_ref_kelvin", -3.0),
            ("run", "temperatures", []),
            ("fit", "n_photon", -1.0),
            ("fit", "geom_factor_per_m", 0.0),
            ("run", "noise_sigma", -1e-3),
            ("run", "npoints", 15),
            ("run", "span_linewidths", 0.0),
            ("run", "excess_loss", -1e-6),
            ("material", "sheet_resistance_ohm", 0.0),
            ("material", "thickness_m", -1e-7),
            ("material", "n0_states", 0.0),
            ("geometry", "substrate_eps_r", 0.5),
        ],
    )
    def test_out_of_range_value_rejected(self, section, key, value):
        doc = self.good_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"{section}\b.*\b{key}\b"):
            cfgmod.config_from_dict(doc)

    def test_missing_section_flagged_on_require(self):
        doc = self.good_doc()
        del doc["tls"]
        cfg = cfgmod.config_from_dict(doc)
        with pytest.raises(ConfigError, match="tls"):
            cfg.require("material", "tls")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cfgmod.load_config(path)

    @pytest.mark.parametrize("section", ["material", None], ids=["key", "section"])
    def test_duplicate_key_rejected(self, tmp_path, section):
        # json.loads alone would keep the last value without a word
        doc = self.good_doc()
        if section is None:
            text = json.dumps(doc).replace('"tls": ', '"tls": {}, "tls": ', 1)
            key = "tls"
        else:
            text = json.dumps(doc).replace('"alpha": ', '"alpha": 0.3, "alpha": ', 1)
            key = "alpha"
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f'duplicate key "{key}"'):
            cfgmod.load_config(path)
