import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from cpwloss import mbcore
from cpwloss.constants import KB_EV
from cpwloss.errors import ApproximationWarning
from conftest import OMEGA0, film

from oracles import bessel_k0_i0_reference, mb_full_oracle

DELTA0 = 1.623e-3  # eV, reference-film gap (Tc = 10.7 K) used throughout


class TestGap:
    def test_gap_at_zero_tc_10p7(self):
        assert mbcore.gap_at_zero(10.7) == pytest.approx(1.623e-3, abs=1e-6)

    def test_gap_at_zero_zero(self):
        assert mbcore.gap_at_zero(0.0) == 0.0

    def test_gap_at_zero_1k(self):
        # direct arithmetic 1.76 * kB * 1 K
        assert mbcore.gap_at_zero(1.0) == pytest.approx(1.76 * KB_EV, rel=1e-12)
        assert mbcore.gap_at_zero(1.0) == pytest.approx(1.5165e-4, abs=2e-8)

    def test_gap_at_zero_negative_raises(self):
        with pytest.raises(ValueError):
            mbcore.gap_at_zero(-1.0)

    def test_gap_at_temperature_zero_t(self):
        assert mbcore.gap_at_temperature(DELTA0, 0.0, 10.7) == DELTA0

    def test_gap_at_temperature_tc_over_3(self):
        # tanh(1.74*sqrt(2)) = tanh(2.4607) = 0.98554: the gap is still
        # within 1.5% of delta0 at Tc/3
        val = mbcore.gap_at_temperature(DELTA0, 10.7 / 3.0, 10.7)
        assert val == pytest.approx(DELTA0 * math.tanh(1.74 * math.sqrt(2.0)), rel=1e-12)
        assert val >= 0.985 * DELTA0

    def test_gap_near_tc_collapses(self):
        assert mbcore.gap_at_temperature(DELTA0, 0.999 * 10.7, 10.7) < 0.1 * DELTA0

    def test_gap_closed_raises(self):
        with pytest.raises(ValueError):
            mbcore.gap_at_temperature(DELTA0, 10.7, 10.7)

    def test_gap_constant_model(self):
        assert mbcore.gap_at_temperature(DELTA0, 3.0, 10.7, model="constant") == DELTA0

    @pytest.mark.parametrize("model", ["bcs_tanh", "constant"])
    def test_gap_array_matches_scalar_calls(self, model):
        temps = np.array([0.0, 0.12, 10.7 / 3.0, 5.0, 0.999 * 10.7])
        arr = mbcore.gap_at_temperature(DELTA0, temps, 10.7, model)
        scalars = [mbcore.gap_at_temperature(DELTA0, t, 10.7, model) for t in temps.tolist()]
        assert arr.tolist() == scalars
        assert arr[0] == DELTA0

    @pytest.mark.parametrize("model", ["bcs_tanh", "constant"])
    def test_gap_models_return_one_type(self, model):
        # a numpy float for one temperature, an array for an array of them
        for t in (1.0, np.float64(1.0), np.array(1.0)):
            assert type(mbcore.gap_at_temperature(DELTA0, t, 10.7, model)) is np.float64
        many = mbcore.gap_at_temperature(DELTA0, [0.5, 1.0], 10.7, model)
        assert type(many) is np.ndarray and many.shape == (2,)

    def test_gap_one_bad_element_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            mbcore.gap_at_temperature(DELTA0, [0.5, -0.1, 1.0], 10.7)
        with pytest.raises(ValueError, match="gap closed"):
            mbcore.gap_at_temperature(DELTA0, [0.5, 10.7, 1.0], 10.7)

    @given(st.floats(min_value=0.01, max_value=0.98))
    def test_gap_monotone_nonincreasing(self, frac):
        tc = 10.7
        lo = mbcore.gap_at_temperature(DELTA0, frac * tc, tc)
        hi = mbcore.gap_at_temperature(DELTA0, 0.5 * frac * tc, tc)
        assert lo <= hi <= DELTA0


def k0_i0(x: float) -> tuple[float, float]:
    """(K0(x), I0(x)) from the scaled Bessel functions the closed forms use."""
    return mbcore.k0e(x) * math.exp(-x), mbcore.i0e(x) * math.exp(x)


class TestBessel:
    def test_reference_point_x1(self):
        k0, i0 = k0_i0(1.0)
        assert k0 == pytest.approx(0.42102443824070834, rel=1e-12)
        assert i0 == pytest.approx(1.2660658777520084, rel=1e-12)

    def test_i0_at_zero(self):
        assert mbcore.i0e(0.0) == 1.0

    def test_matches_scipy_in_ulp(self):
        # same Cephes tables: i0e is bit-identical; k0e's x <= 2 branch may
        # round differently in exp and log
        x = np.logspace(-8, 3, 200001)

        def ulps(a, b):  # positive finite doubles order like their bit patterns
            return np.abs(a.view(np.int64) - b.view(np.int64)).max()

        assert ulps(mbcore.i0e(x), scipy.special.i0e(x)) == 0
        assert ulps(mbcore.k0e(x), scipy.special.k0e(x)) <= 16

    def test_scalar_input(self):
        assert float(mbcore.i0e(-2.5)) == float(mbcore.i0e(2.5)) == scipy.special.i0e(2.5)
        assert float(mbcore.k0e(2.5)) == scipy.special.k0e(2.5)

    def test_k0_small_x_log_asymptote(self):
        # K0(x) -> -ln(x/2) - gamma as x -> 0+
        gamma = 0.5772156649015329
        for x in (1e-4, 1e-6):
            expect = -math.log(x / 2.0) - gamma
            assert k0_i0(x)[0] == pytest.approx(expect, rel=1e-7)

    def test_against_series_reference_50_points(self):
        for x in np.logspace(-6, np.log10(50.0), 50):
            k0_ref, i0_ref = bessel_k0_i0_reference(float(x))
            k0, i0 = k0_i0(float(x))
            assert abs(k0 / float(k0_ref) - 1.0) <= 1e-10
            assert abs(i0 / float(i0_ref) - 1.0) <= 1e-10


class TestSigmaNorm:
    def test_sigma1_vanishes_at_low_t(self):
        s1, _ = mbcore.mb_sigma_norm(0.05, OMEGA0, DELTA0)
        assert s1 < 1e-100

    def test_sigma2_zero_t_limits_both_prefactors(self):
        hw = mbcore.HBAR_EVS * OMEGA0
        _, s2_four = mbcore.mb_sigma_norm(0.05, OMEGA0, DELTA0, "four")
        _, s2_pi = mbcore.mb_sigma_norm(0.05, OMEGA0, DELTA0, "pi")
        assert s2_four == pytest.approx(4.0 * DELTA0 / hw, rel=1e-12)
        assert s2_pi == pytest.approx(math.pi * DELTA0 / hw, rel=1e-12)

    def test_sigma1_value_at_1k(self):
        # direct closed-form evaluation, cross-checked against the full oracle
        s1, _ = mbcore.mb_sigma_norm(1.0, OMEGA0, DELTA0)
        assert s1 == pytest.approx(5.1e-7, rel=0.05)
        s1_full, _ = mb_full_oracle(1.0, OMEGA0, DELTA0)
        assert s1 == pytest.approx(s1_full, rel=0.05)

    def test_nonpositive_temperature_raises(self):
        with pytest.raises(ValueError):
            mbcore.mb_sigma_norm(0.0, OMEGA0, DELTA0)
        with pytest.raises(ValueError):
            mbcore.mb_sigma_norm(-1.0, OMEGA0, DELTA0)

    def test_pair_breaking_raises(self):
        omega_big = 2.1 * DELTA0 / mbcore.HBAR_EVS
        with pytest.raises(ValueError):
            mbcore.mb_sigma_norm(1.0, omega_big, DELTA0)

    def test_strained_regime_warns(self):
        with pytest.warns(ApproximationWarning):
            mbcore.mb_sigma_norm(7.0, OMEGA0, DELTA0)  # kB*T > delta0/3
        omega_mid = 0.2 * DELTA0 / mbcore.HBAR_EVS
        with pytest.warns(ApproximationWarning):
            mbcore.mb_sigma_norm(1.0, omega_mid, DELTA0)  # hw > delta0/10

    def test_unknown_prefactor_rejected(self):
        with pytest.raises(ValueError):
            mbcore.mb_sigma_norm(1.0, OMEGA0, DELTA0, "bogus")

    def test_monotone_300_point_grid(self):
        temps = np.linspace(0.1, 3.0, 300)
        s1, s2 = mbcore.mb_sigma_norm(temps, OMEGA0, DELTA0)
        assert np.all(s1 >= 0) and np.all(s2 >= 0)
        assert np.all(np.diff(s1) > 0)
        # sigma2 decreases; in float64 the change underflows below ~0.5 K,
        # so strictness is checked on the pair-breaking deficit instead
        assert np.all(np.diff(s2) <= 0)
        deficit = mbcore.mb_sigma2_deficit(temps, OMEGA0, DELTA0)
        assert np.all(np.diff(deficit) > 0)

    def test_activation_dominance(self):
        # sigma1 / exp(-delta0/kBT) spans less than a decade over [0.5, 3] K
        temps = np.linspace(0.5, 3.0, 40)
        s1, _ = mbcore.mb_sigma_norm(temps, OMEGA0, DELTA0)
        boltz = np.exp(-DELTA0 / (KB_EV * temps))
        ratio = s1 / boltz
        assert ratio.max() / ratio.min() < 10.0
        assert boltz.max() / boltz.min() > 1e10


class TestComplexConductivity:
    def test_sigma_n_value(self, nbn_film):
        assert nbn_film.sigma_n == pytest.approx(6.27e4, rel=1e-3)
        assert nbn_film.sigma_n == pytest.approx(1.0 / (159.5 * 1e-7), rel=1e-12)

    def test_monotone_between_two_temps(self, nbn_film):
        rec = film(nbn_film, [0.5, 3.0])
        assert rec.sigma1_norm[0] < rec.sigma1_norm[1]
        assert rec.sigma2_norm[0] > rec.sigma2_norm[1]

    def test_linear_in_inverse_sheet_resistance(self, nbn_film):
        from dataclasses import replace

        doubled = replace(nbn_film, sheet_resistance_ohm=2 * 159.5)
        a = film(nbn_film, [1.5])
        b = film(doubled, [1.5])
        assert b.sigma1_norm == a.sigma1_norm
        assert b.sigma2_norm == a.sigma2_norm
        assert b.sigma1_s_per_m == pytest.approx(a.sigma1_s_per_m / 2.0, rel=1e-12)

    def test_full_sweep_shape(self, nbn_film):
        rec = film(nbn_film, np.linspace(0.1, 3.0, 50))
        assert np.all(np.diff(rec.sigma1_s_per_m) > 0)
        assert np.all(np.diff(rec.sigma2_s_per_m) <= 0)


class TestMaterialParams:
    def test_default_gap(self, nbn_film):
        assert nbn_film.delta0_ev == pytest.approx(mbcore.gap_at_zero(10.7), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            mbcore.MaterialParams(
                tc_kelvin=-1, sheet_resistance_ohm=1, thickness_m=1e-7,
                n0_states=1e28, alpha=0.5,
            )
        with pytest.raises(ValueError):
            mbcore.MaterialParams(
                tc_kelvin=10, sheet_resistance_ohm=1, thickness_m=1e-7,
                n0_states=1e28, alpha=1.5,
            )
        with pytest.raises(ValueError):
            mbcore.MaterialParams(
                tc_kelvin=10, sheet_resistance_ohm=1, thickness_m=1e-7,
                n0_states=1e28, alpha=0.5, delta0_ev=-1e-3,
            )


class TestFullOracle:
    def test_agreement_with_closed_form(self):
        for t in np.linspace(1.0, 3.0, 5):
            s1_full, _ = mb_full_oracle(float(t), OMEGA0, DELTA0)
            s1, _ = mbcore.mb_sigma_norm(float(t), OMEGA0, DELTA0)
            assert s1 == pytest.approx(s1_full, rel=0.05)

    def test_zero_t_sigma2_limit(self):
        hw = mbcore.HBAR_EVS * OMEGA0
        _, s2_full = mb_full_oracle(0.05, OMEGA0, DELTA0)
        assert s2_full == pytest.approx(math.pi * DELTA0 / hw, rel=1e-3)

    def test_four_mode_prefactor_ratio(self):
        _, s2_full = mb_full_oracle(0.05, OMEGA0, DELTA0)
        _, s2_four = mbcore.mb_sigma_norm(0.05, OMEGA0, DELTA0, "four")
        ratio = s2_four / s2_full
        assert ratio == pytest.approx(4.0 / math.pi, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mb_full_oracle(0.0, OMEGA0, DELTA0)
        with pytest.raises(ValueError):
            mb_full_oracle(1.0, 2.5 * DELTA0 / mbcore.HBAR_EVS, DELTA0)

    def test_missed_tolerance_fails_the_test(self, monkeypatch):
        # a quadrature whose error estimate is as large as its value
        monkeypatch.setattr("scipy.integrate.quad", lambda *a, **k: (1.0, 1.0))
        with pytest.raises(AssertionError, match="quadrature error"):
            mb_full_oracle(1.0, OMEGA0, DELTA0)
