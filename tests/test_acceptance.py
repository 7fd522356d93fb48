"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); a
FAIL line is always accompanied by the failing assertion.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from cpwloss import cli, mbcore, photon, resfit
from cpwloss.constants import M3_TO_UM3, angular_frequency
from cpwloss.lossmodel import nqp_from_loss
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.dc import extract_tc_rrr
from cpwloss.pipeline.forward import calibrate_sweep_config, loss_chain, synth_sweep
from cpwloss.pipeline.sweep import sweep_analyze
from cpwloss.pipeline.xrd import lattice_constant

from oracles import bessel_k0_i0_reference, mb_full_oracle
from test_pipeline import synthetic_rt

F0 = 5.95e9
OMEGA0 = angular_frequency(F0)
DELTA0 = 1.623e-3


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    """Calibrated 30-temperature synthetic sweep written to disk once."""
    root = tmp_path_factory.mktemp("acceptance_sweep")
    doc = calibrate_sweep_config(
        temperatures=[round(v, 4) for v in np.linspace(0.12, 2.9, 30)],
        noise_sigma=1e-3,
        npoints=1001,
        seed=7,
    )
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=2))
    config = config_from_dict(doc)
    traces_dir = root / "traces"
    synth_sweep(config, traces_dir)
    injected = loss_chain(config)
    return root, cfg_path, traces_dir, doc, injected


def test_criterion_01_gap_arithmetic():
    with criterion(1, "gap arithmetic"):
        assert mbcore.gap_at_zero(10.7) == pytest.approx(1.623e-3, abs=1e-6)


def test_criterion_02_closed_form_vs_quadrature_oracle():
    with criterion(2, "closed form vs quadrature oracle"):
        for t in np.linspace(0.5, 3.0, 12):
            s1_closed, _ = mbcore.mb_sigma_norm(float(t), OMEGA0, DELTA0)
            s1_full, _ = mb_full_oracle(float(t), OMEGA0, DELTA0)
            assert abs(s1_closed / s1_full - 1.0) <= 0.05
        _, s2_four = mbcore.mb_sigma_norm(0.05, OMEGA0, DELTA0, "four")
        _, s2_full = mb_full_oracle(0.05, OMEGA0, DELTA0)
        assert abs((s2_four / s2_full) / (4.0 / math.pi) - 1.0) <= 1e-3


def test_criterion_03_monotonicity_suite():
    with criterion(3, "conductivity monotonicity on 300-point grid"):
        temps = np.linspace(0.1, 3.0, 300)
        s1, s2 = mbcore.mb_sigma_norm(temps, OMEGA0, DELTA0)
        assert np.all(np.diff(s1) > 0), "sigma1 must increase strictly"
        # the strict decrease of sigma2 is checked through its exactly
        # equivalent witness, the pair-breaking deficit 1 - sigma2(T)/sigma2(0),
        # which stays representable where the change in sigma2 itself
        # underflows double precision (T below roughly 0.5 K here)
        assert np.all(np.diff(s2) <= 0), "sigma2 must never increase"
        deficit = mbcore.mb_sigma2_deficit(temps, OMEGA0, DELTA0)
        assert np.all(np.diff(deficit) > 0), "pair-breaking deficit must grow"


def test_criterion_04_notch_round_trip():
    with criterion(4, "notch-fit round trip"):
        rng = np.random.default_rng(20240614)
        drawn = 0
        while drawn < 200:
            ql = 10 ** rng.uniform(3, 6)
            qc = 10 ** rng.uniform(3, 6)
            phi = rng.uniform(-1.0, 1.0)
            if 1.0 / ql - math.cos(phi) / qc <= 0:
                continue
            p = resfit.NotchParams(
                fr_hz=rng.uniform(4e9, 8e9), ql=ql, qc_mag=qc, phi_rad=phi,
                amp=10 ** rng.uniform(-1, 1), phase0_rad=rng.uniform(-math.pi, math.pi),
                tau_s=rng.uniform(0.0, 100e-9),
            )
            drawn += 1
            half = 5.0 * p.fr_hz / p.ql
            grid = np.linspace(p.fr_hz - half, p.fr_hz + half, 2001)
            res = resfit.fit_notch(resfit.synth_trace(p, grid, 0.0, seed=drawn))
            q = res.params
            assert abs(q.fr_hz / p.fr_hz - 1) <= 1e-3
            assert abs(q.ql / p.ql - 1) <= 1e-3
            assert abs(q.qc_mag / p.qc_mag - 1) <= 1e-3
            assert abs(q.amp / p.amp - 1) <= 1e-3
            assert abs(q.phi_rad - p.phi_rad) <= max(1e-3 * abs(p.phi_rad), 1e-3)
            assert abs(q.phase0_rad - p.phase0_rad) <= max(
                1e-3 * abs(p.phase0_rad), 1e-3
            )
            assert abs(q.tau_s - p.tau_s) <= max(1e-3 * p.tau_s, 1e-12)
            assert abs(res.qi / p.qi - 1) <= 1e-3

        # noisy Monte Carlo at the reference operating point
        qi_true, qc = 2.571e5, 1e5
        ql = 1.0 / (1.0 / qi_true + 1.0 / qc)
        p = resfit.NotchParams(fr_hz=F0, ql=ql, qc_mag=qc, phi_rad=0.0)
        half = 5.0 * F0 / ql
        grid = np.linspace(F0 - half, F0 + half, 2001)
        errs = [
            abs(resfit.fit_notch(resfit.synth_trace(p, grid, 1e-3, seed=s)).qi
                / qi_true - 1.0)
            for s in range(100)
        ]
        assert float(np.percentile(errs, 95)) <= 0.05


def test_criterion_05_end_to_end_sweep_round_trip(sweep_artifacts, tmp_path, capsys):
    with criterion(5, "end-to-end sweep round trip"):
        root, cfg_path, traces_dir, doc, injected = sweep_artifacts
        out_dir = tmp_path / "report"
        rc = cli.main(
            ["sweep", str(traces_dir), "--config", str(cfg_path), "--out", str(out_dir)]
        )
        capsys.readouterr()
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        entries = report["per_temperature"]
        assert len(entries) == 30
        injected_qi = {round(p.temperature_k, 6): p.qi_total for p in injected}
        for e in entries:
            want = injected_qi[round(e["temperature_k"], 6)]
            assert abs(e["budget"]["qi_measured"] / want - 1.0) <= 0.05
        qi_series = [e["budget"]["qi_measured"] for e in entries]
        imax = int(np.argmax(qi_series))
        assert 0 < imax < len(qi_series) - 1, "Qi(T) must peak in the interior"
        onset = report["derived"]["redshift_onset_k"]
        assert onset is not None and 1.5 <= onset <= 2.0


def test_criterion_06_quasiparticle_density_chain(sweep_artifacts, tmp_path):
    with criterion(6, "quasiparticle-density chain"):
        root, _, _, doc, _ = sweep_artifacts
        config = config_from_dict(doc)
        material = config.material
        target = 50.0  # um^-3 plateau
        conv = nqp_from_loss(1.0, 0.12, material, OMEGA0) * M3_TO_UM3
        excess = target / conv

        doc_excess = dict(doc)
        doc_excess["run"] = dict(doc["run"], excess_loss=excess, seed=13)
        config_x = config_from_dict(doc_excess)
        report = sweep_analyze(synth_sweep(config_x, tmp_path), config_x)

        # two-path identity: the density conversion applied to the
        # theoretical loss must reproduce the stored theory density exactly
        omega_ref = angular_frequency(report.derived["reference_fr_hz"])
        for (trace, _), delta_qp, nqp in zip(
            report.fits, report.delta_qp_theory, report.budget["nqp_theory_per_um3"]
        ):
            recomputed = (
                nqp_from_loss(
                    delta_qp, trace.temperature_k, material, omega_ref,
                    config.fit.gap_model,
                )
                * M3_TO_UM3
            )
            assert nqp == recomputed

        plateau = report.derived["nqp_plateau_per_um3"]
        assert report.derived["nqp_plateau_points"] > 0
        assert plateau is not None
        assert target / 2.0 <= plateau <= target * 2.0


def test_criterion_07_photon_budget():
    with criterion(7, "photon budget"):
        assert -25.0 + -110.0 == -135.0
        qi, qc = 2.571e5, 5e7  # coupling consistent with a one-photon drive
        ql = 1.0 / (1.0 / qi + 1.0 / qc)
        budget = photon.build_power_budget(-25.0, -110.0, ql, qc, F0)
        assert budget.p_in_dbm == -135.0
        p_one = photon.power_for_photons(1.0, ql, qc, F0)
        assert -138.0 <= p_one <= -132.0


def test_criterion_08_dc_extraction():
    with criterion(8, "DC extraction"):
        t, r = synthetic_rt(tc=10.7, plateau=159.5, rrr=0.98)
        out = extract_tc_rrr(t, r)
        assert out.tc_kelvin == pytest.approx(10.7, abs=0.1)
        assert out.r_sq_tc_ohm == pytest.approx(159.5, abs=0.5)
        assert out.rrr == pytest.approx(0.98, abs=0.005)


def test_criterion_09_xrd_lattice_constants():
    with criterion(9, "XRD lattice constants"):
        assert lattice_constant(35.73, (1, 1, 1), 1.5406) == pytest.approx(
            4.35, abs=0.01
        )
        assert lattice_constant(41.38, (2, 0, 0), 1.5406) == pytest.approx(
            4.36, abs=0.01
        )


def test_criterion_10_special_functions():
    with criterion(10, "special functions"):
        for x in np.logspace(-6, np.log10(50.0), 50).tolist():
            k0_ref, i0_ref = bessel_k0_i0_reference(x)
            # K0 and I0 from the scaled functions the closed forms evaluate
            k0, i0 = mbcore.k0e(x) * math.exp(-x), mbcore.i0e(x) * math.exp(x)
            assert abs(k0 / float(k0_ref) - 1.0) <= 1e-10
            assert abs(i0 / float(i0_ref) - 1.0) <= 1e-10
        from cpwloss.impedance import elliptic_k

        assert elliptic_k(1.0 / math.sqrt(2.0)) == pytest.approx(
            1.8540746773013719, rel=1e-12
        )


def test_criterion_11_sweep_determinism(sweep_artifacts, tmp_path, capsys):
    with criterion(11, "sweep determinism"):
        _, cfg_path, traces_dir, _, _ = sweep_artifacts
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        rc1 = cli.main(
            ["sweep", str(traces_dir), "--config", str(cfg_path), "--out", str(out1)]
        )
        rc2 = cli.main(
            ["sweep", str(traces_dir), "--config", str(cfg_path), "--out", str(out2)]
        )
        capsys.readouterr()
        assert rc1 == 0 and rc2 == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
