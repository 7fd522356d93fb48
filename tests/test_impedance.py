import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwloss import impedance
from cpwloss.constants import MU0
from conftest import OMEGA0, film


def make_sigma(s1_norm, s2_norm, sigma_n=6.27e4):
    """Complex conductivity sigma1 - j*sigma2 in S/m."""
    return sigma_n * (s1_norm - 1j * s2_norm)


class TestEllipticK:
    def test_k_zero(self):
        assert impedance.elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_lemniscatic_value(self):
        assert impedance.elliptic_k(1.0 / math.sqrt(2.0)) == pytest.approx(
            1.8540746773013719, rel=1e-12
        )

    def test_divergence_near_one(self):
        # K(k) ~ ln(4/sqrt(1-k^2)) as k -> 1-
        for k in (1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
            kp = math.sqrt(1.0 - k * k)
            assert impedance.elliptic_k(k) / math.log(4.0 / kp) == pytest.approx(
                1.0, abs=2e-3
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            impedance.elliptic_k(1.0)
        with pytest.raises(ValueError):
            impedance.elliptic_k(-0.1)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_matches_scipy(self, k):
        assert impedance.elliptic_k(k) == pytest.approx(
            float(scipy.special.ellipk(k * k)), rel=1e-12
        )


class TestGeometricInductance:
    def test_reference_geometry(self, cpw_geometry):
        # w = 4 um, s = 2 um: k0 = 0.5, Lg = (mu0/4) K(sqrt(0.75))/K(0.5)
        assert cpw_geometry.k0 == 0.5
        expect = (
            MU0 / 4.0
            * impedance.elliptic_k(math.sqrt(0.75))
            / impedance.elliptic_k(0.5)
        )
        assert impedance.geometric_inductance(cpw_geometry) == pytest.approx(
            expect, rel=1e-15
        )

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=30)
    def test_scale_invariance(self, scale):
        base = impedance.CpwGeometry(4e-6, 2e-6, 1e-7, 11.7)
        scaled = impedance.CpwGeometry(4e-6 * scale, 2e-6 * scale, 1e-7, 11.7)
        assert impedance.geometric_inductance(scaled) == pytest.approx(
            impedance.geometric_inductance(base), rel=1e-12
        )

    def test_vanishing_gap_limit(self):
        lg = [
            impedance.geometric_inductance(impedance.CpwGeometry(4e-6, s, 1e-7, 11.7))
            for s in (1e-6, 1e-8, 1e-10)
        ]
        assert lg[0] > lg[1] > lg[2] > 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            impedance.CpwGeometry(0.0, 2e-6, 1e-7, 11.7)
        with pytest.raises(ValueError):
            impedance.CpwGeometry(4e-6, -1e-6, 1e-7, 11.7)


class TestSurfaceImpedance:
    def test_lossless_film(self):
        zs = impedance.surface_impedance(make_sigma(0.0, 200.0), OMEGA0)
        assert zs.real == 0.0
        assert zs.imag / OMEGA0 == pytest.approx(
            math.sqrt(MU0 / (OMEGA0 * 200.0 * 6.27e4)), rel=1e-12
        )

    def test_lossless_ls_value(self):
        zs = impedance.surface_impedance(make_sigma(0.0, 200.0), OMEGA0)
        # purely inductive: omega*Ls = sqrt(mu0*omega/sigma2)
        assert zs.imag == pytest.approx(
            math.sqrt(MU0 * OMEGA0 / (200.0 * 6.27e4)), rel=1e-12
        )

    def test_small_dissipation_expansion(self):
        # sigma1 << sigma2: Rs ~ (1/2) (sigma1/sigma2) omega Ls
        zs = impedance.surface_impedance(make_sigma(200.0 * 1e-4, 200.0), OMEGA0)
        assert zs.real == pytest.approx(0.5 * 1e-4 * zs.imag, rel=1e-3)

    def test_zero_conductivity_rejected(self):
        with pytest.raises(ValueError):
            impedance.surface_impedance(make_sigma(0.0, 0.0), OMEGA0)
        with pytest.raises(ValueError):
            impedance.surface_impedance(make_sigma(np.array([0.1, 0.0]), 0.0), OMEGA0)

    @given(
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e8, max_value=1e12),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_round_trip_identity(self, nbn_film, s1n, s2n, omega, t):
        # Zs^2 * sigma = j mu0 omega for any conductivity, and for the film
        # record, whose fields are sigma = sigma1 - j*sigma2 and Zs = Rs + j*omega*Ls
        sigma = make_sigma(s1n, s2n)
        zs = impedance.surface_impedance(sigma, omega)
        rec = film(nbn_film, [t])
        zs_rec = rec.rs_ohm_sq[0] + 1j * OMEGA0 * rec.ls_h_sq[0]
        sigma_rec = rec.sigma1_s_per_m[0] - 1j * rec.sigma2_s_per_m[0]
        for lhs, rhs in (
            (zs**2 * sigma, 1j * MU0 * omega),
            (zs_rec**2 * sigma_rec, 1j * MU0 * OMEGA0),
        ):
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_rs_monotone_with_temperature(self, nbn_film):
        rec = film(nbn_film, np.linspace(0.5, 3.0, 30))
        assert np.all(np.diff(rec.rs_ohm_sq) > 0)


class TestQpLossTheory:
    def lg(self, cpw_geometry):
        return impedance.geometric_inductance(cpw_geometry)

    def test_lossless_film_gives_zero(self, cpw_geometry):
        lg = self.lg(cpw_geometry)
        assert impedance.qp_loss_theory(0.0, 1e-12, OMEGA0, lg, 2.5e5) == 0.0

    def test_geometric_dilution(self, cpw_geometry):
        small = impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, 1e-3, 2.5e5)
        big = impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, self.lg(cpw_geometry), 2.5e5)
        assert small < 1e-3 * big

    def test_increasing_in_sigma1(self, nbn_film, cpw_geometry):
        sigma = make_sigma(np.array([1e-4, 1e-3, 1e-2]), 200.0, sigma_n=nbn_film.sigma_n)
        zs = impedance.surface_impedance(sigma, OMEGA0)
        vals = impedance.qp_loss_theory(
            zs.real, zs.imag / OMEGA0, OMEGA0, self.lg(cpw_geometry), 2.5e5
        )
        assert vals[0] < vals[1] < vals[2]

    def test_decreasing_in_lg(self):
        a = impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, 1e-7, 2.5e5)
        b = impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, 2e-7, 2.5e5)
        assert a > b

    def test_warm_point_within_factor_two_of_measured(self, nbn_film, cpw_geometry):
        # full chain at 2.9 K against the reference device Qi = 7.421e3; the
        # pi prefactor (full-integral zero-T limit) keeps the prediction
        # within a factor of two with the default g = 1/w
        rec = film(nbn_film, [2.9], sigma2_prefactor="pi")
        lg, g = self.lg(cpw_geometry), 1.0 / cpw_geometry.center_width_m
        delta = impedance.qp_loss_theory(rec.rs_ohm_sq[0], rec.ls_h_sq[0], OMEGA0, lg, g)
        q_qp = 1.0 / delta
        assert q_qp / 7.421e3 < 2.0
        assert q_qp / 7.421e3 > 0.5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, 0.0, 2.5e5)
        with pytest.raises(ValueError):
            impedance.qp_loss_theory(1e-6, 1e-12, OMEGA0, 1e-7, -1.0)


class TestKineticFraction:
    def test_in_unit_interval(self, nbn_film, cpw_geometry):
        rec = film(nbn_film, [1.0])
        lg = impedance.geometric_inductance(cpw_geometry)
        alpha = impedance.kinetic_fraction(
            rec.ls_h_sq[0], lg, 1.0 / cpw_geometry.center_width_m
        )
        assert 0.0 < alpha < 1.0

    def test_thickness_dependence_through_sigma_n(self, nbn_film, cpw_geometry):
        # semi-infinite Zs: at fixed sheet resistance, a thinner film has a
        # larger sigma_n = 1/(R_sq d), hence more sigma2, a smaller
        # Ls = sqrt(mu0/(omega sigma2)) and a smaller kinetic fraction.
        # (The opposite trend requires the finite-thickness enhancement of
        # Ls, which is deliberately not applied here.)
        lg = impedance.geometric_inductance(cpw_geometry)
        g = 1.0 / cpw_geometry.center_width_m
        alphas = []
        for d in (200e-9, 100e-9, 50e-9):
            rec = film(replace(nbn_film, thickness_m=d), [1.0])
            a = impedance.kinetic_fraction(rec.ls_h_sq[0], lg, g)
            assert 0.0 < a < 1.0
            alphas.append(a)
        assert alphas[0] > alphas[1] > alphas[2]
