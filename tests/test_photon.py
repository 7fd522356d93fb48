import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpwloss import photon
from cpwloss.constants import HBAR_JS


class TestConversions:
    def test_known_point(self):
        assert photon.dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert photon.dbm_to_watt(-135.0) == pytest.approx(10 ** (-16.5), rel=1e-12)

    @given(st.floats(min_value=-200.0, max_value=60.0))
    def test_round_trip(self, p_dbm):
        assert photon.watt_to_dbm(photon.dbm_to_watt(p_dbm)) == pytest.approx(
            p_dbm, abs=1e-12 * max(1.0, abs(p_dbm))
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            photon.watt_to_dbm(0.0)

    @pytest.mark.parametrize("p_dbm", [3200.0, 1e308, float("inf"), float("nan")])
    def test_unrepresentable_power_rejected(self, p_dbm):
        with pytest.raises(ValueError, match="not a representable power"):
            photon.dbm_to_watt(p_dbm)


class TestScattering:
    def test_critical_point(self):
        s21, s11 = photon.scattering_mags(1e5, 1e5)
        assert s21 == 0.0
        assert s11 == 1.0

    def test_decoupled_limit(self):
        s21, s11 = photon.scattering_mags(1.0, 1e8)
        assert s21 == pytest.approx(1.0, rel=1e-6)
        assert s11 == pytest.approx(1e-8, rel=1e-12)

    def test_half_coupled(self):
        s21, s11 = photon.scattering_mags(5e4, 1e5)
        assert s21 == pytest.approx(0.5, rel=1e-12)
        assert s11 == pytest.approx(0.5, rel=1e-12)

    @given(
        st.floats(min_value=1e3, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @settings(max_examples=40)
    def test_energy_bound_below_half_coupling(self, qc, x):
        # for Ql <= |Qc| the approximations respect |S21|^2+|S11|^2 <= 1
        for ql in (qc / 2.0, qc / 10.0, x * qc):
            s21, s11 = photon.scattering_mags(ql, qc)
            assert s21**2 + s11**2 <= 1.0

    def test_overcoupled_regime_flagged(self):
        # slightly above |Qc| the pair violates energy conservation and
        # power_loss must refuse it
        s21, s11 = photon.scattering_mags(1.2e5, 1e5)
        assert s21**2 + s11**2 > 1.0
        with pytest.raises(ValueError, match="Qi is infinite or negative"):
            photon.power_loss(1e-15, s11)


class TestPowerLoss:
    def test_all_transmitted(self):
        assert photon.power_loss(1e-15, 0.0) == 0.0

    def test_quarter_quarter(self):
        # x = |S11| = 0.25, |S21| = 0.75: 1 - 0.5625 - 0.0625 = 2x(1 - x)
        assert photon.power_loss(1.0, 0.25) == pytest.approx(0.375, rel=1e-12)

    def test_unphysical_rejected(self):
        for x in (1.0, 1.45):  # Qi infinite, Qi < 0
            with pytest.raises(ValueError):
                photon.power_loss(1.0, x)


class TestPhotonNumber:
    def test_zero_loss(self):
        assert photon.photon_number(1e5, 0.0, 5.95e9) == 0.0

    @given(
        st.floats(min_value=1e3, max_value=1e7),
        st.floats(min_value=1e-20, max_value=1e-12),
    )
    @settings(max_examples=40)
    def test_linear_in_qi_and_power(self, qi, p_loss):
        base = photon.photon_number(qi, p_loss, 5.95e9)
        assert photon.photon_number(2 * qi, p_loss, 5.95e9) == pytest.approx(
            2 * base, rel=1e-12
        )
        assert photon.photon_number(qi, 3 * p_loss, 5.95e9) == pytest.approx(
            3 * base, rel=1e-12
        )


class TestHangerRelation:
    @given(
        st.floats(min_value=1e3, max_value=1e9),
        st.floats(min_value=1e-15, max_value=0.999),
        st.floats(min_value=-160.0, max_value=-60.0),
        st.floats(min_value=1e8, max_value=1e11),
    )
    @example(qc=1e9, x=1e-15, p_dbm=-100.0, f_hz=5.95e9)
    @settings(max_examples=200)
    def test_photon_number_is_2_ql_sq_p_over_qc_hbar_omega_sq(self, qc, x, p_dbm, f_hz):
        # Sage et al. 2011, Bruno et al. 2015, for Ql < |Qc| (phi = 0): the
        # loss fraction 2x(1 - x) keeps full precision down to x = Ql/|Qc| = 1e-15
        ql = x * qc
        n = photon.build_power_budget(p_dbm, 0.0, ql, qc, f_hz).n_ph
        p_w = photon.dbm_to_watt(p_dbm)
        assert n == pytest.approx(
            2 * ql**2 * p_w / (qc * HBAR_JS * (2 * math.pi * f_hz) ** 2), rel=1e-12
        )


class TestBudgetAndInversion:
    QI, QC, F = 2.571e5, 5e7, 5.95e9

    def ql(self):
        return 1.0 / (1.0 / self.QI + 1.0 / self.QC)

    def test_input_power_sum(self):
        b = photon.build_power_budget(-25.0, -110.0, self.ql(), self.QC, self.F)
        assert b.p_in_dbm == -135.0

    def test_single_photon_power_near_minus_135(self):
        p = photon.power_for_photons(1.0, self.ql(), self.QC, self.F)
        assert -138.0 <= p <= -132.0

    def test_photon_number_order_unity_at_minus_135(self):
        b = photon.build_power_budget(-25.0, -110.0, self.ql(), self.QC, self.F)
        assert 0.1 <= b.n_ph <= 10.0

    @given(st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=40)
    def test_inverse_identity(self, n_target):
        ql = self.ql()
        p_dbm = photon.power_for_photons(n_target, ql, self.QC, self.F)
        _, s11 = photon.scattering_mags(ql, self.QC)
        p_loss = photon.power_loss(photon.dbm_to_watt(p_dbm), s11)
        n = photon.photon_number(self.QI, p_loss, self.F)
        assert n == pytest.approx(n_target, rel=1e-12)

    def test_ten_db_is_factor_ten(self):
        ql = self.ql()
        p1 = photon.power_for_photons(1.0, ql, self.QC, self.F)
        p10 = photon.power_for_photons(10.0, ql, self.QC, self.F)
        assert p10 - p1 == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_inversion_rejected(self):
        # x = Ql/|Qc| = 1e-320, so Qi * P_loss = 1e-300 * 2e-320 underflows to 0
        with pytest.raises(ValueError, match="underflows to 0"):
            photon.power_for_photons(1.0, 1e-300, 1e20, self.F)
        # Ql = |Qc|, where Qi is infinite: not a ZeroDivisionError
        with pytest.raises(ValueError, match="Qi is infinite or negative"):
            photon.power_for_photons(1.0, 1e5, 1e5, self.F)
