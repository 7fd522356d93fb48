import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwloss import lossmodel, mbcore
from cpwloss.constants import M3_TO_UM3
from conftest import OMEGA0


@pytest.fixture(scope="module")
def tls():
    return lossmodel.TlsParams(
        f_delta0=1.26e-5, n_c=10.0, beta_exp=0.5, omega_rad=OMEGA0
    )


class TestQTls:
    def test_hot_limit_diverges(self, tls):
        assert lossmodel.q_tls(1000.0, 1.0, tls) > 1e3 * lossmodel.q_tls(0.05, 1.0, tls)

    def test_cold_unsaturated_limit(self):
        p = lossmodel.TlsParams(f_delta0=2e-6, n_c=10.0, beta_exp=0.5, omega_rad=OMEGA0)
        # n = 0, T -> 0: tanh -> 1, Q_TLS -> 1/f_delta0
        assert lossmodel.q_tls(0.001, 0.0, p) == pytest.approx(1.0 / 2e-6, rel=1e-6)

    def test_saturation_raises_q(self, tls):
        assert lossmodel.q_tls(0.1, 1e4, tls) > lossmodel.q_tls(0.1, 0.0, tls)

    def test_domain(self, tls):
        with pytest.raises(ValueError):
            lossmodel.q_tls(0.0, 1.0, tls)
        with pytest.raises(ValueError):
            lossmodel.q_tls(1.0, -1.0, tls)


class TestQiTheory:
    def test_no_tls_channel(self):
        assert lossmodel.qi_theory(math.inf, 5e-6) == pytest.approx(2e5, rel=1e-12)

    def test_equal_channels(self):
        assert lossmodel.qi_theory(2e5, 5e-6) == pytest.approx(1e5, rel=1e-12)

    def test_interior_maximum_over_sweep(self, tls, nbn_film, cpw_geometry):
        from cpwloss.impedance import (
            geometric_inductance, qp_loss_theory, surface_impedance,
        )

        lg = geometric_inductance(cpw_geometry)
        temps = np.linspace(0.12, 2.9, 40)
        qi = []
        for t in temps:
            sigma = mbcore.complex_conductivity(nbn_film, float(t), OMEGA0)
            delta = qp_loss_theory(surface_impedance(sigma), lg, 2.24e6)
            qi.append(lossmodel.qi_theory(lossmodel.q_tls(float(t), 1.0, tls), delta))
        imax = int(np.argmax(qi))
        assert 0 < imax < len(qi) - 1

    @given(
        st.floats(min_value=1e2, max_value=1e8),
        st.floats(min_value=0.0, max_value=1e-2),
    )
    @settings(max_examples=60)
    def test_bounded_by_both_channels(self, q, delta):
        qi = lossmodel.qi_theory(q, delta)
        assert qi <= q * (1 + 1e-12)
        if delta > 0:
            assert qi <= (1.0 / delta) * (1 + 1e-12)


class TestDeltaQpMeasured:
    def test_equal_gives_zero(self):
        assert lossmodel.delta_qp_measured(1e5, 1e5) == 0.0

    def test_warm_point_value(self):
        # Qi = 7.421e3 with negligible TLS loss
        val = lossmodel.delta_qp_measured(7.421e3, 1e12)
        assert val == pytest.approx(1.3475e-4, rel=1e-3)

    def test_negative_allowed(self):
        assert lossmodel.delta_qp_measured(2e5, 1e5) < 0.0


class TestNqpFromLoss:
    def test_zero_loss(self, nbn_film):
        assert lossmodel.nqp_from_loss(0.0, 1.0, nbn_film, OMEGA0) == 0.0

    def test_alpha_scaling(self, nbn_film):
        from dataclasses import replace

        doubled = replace(nbn_film, alpha=1.0)  # alpha 0.5 -> 1.0
        a = lossmodel.nqp_from_loss(1e-5, 1.0, nbn_film, OMEGA0)
        b = lossmodel.nqp_from_loss(1e-5, 1.0, doubled, OMEGA0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_thermal_density_increasing(self, nbn_film, cpw_geometry):
        from cpwloss.impedance import (
            geometric_inductance, qp_loss_theory, surface_impedance,
        )

        lg = geometric_inductance(cpw_geometry)
        temps = np.linspace(0.5, 3.0, 25)
        dens = []
        for t in temps:
            sigma = mbcore.complex_conductivity(nbn_film, float(t), OMEGA0)
            delta = qp_loss_theory(surface_impedance(sigma), lg, 2.5e5)
            dens.append(lossmodel.nqp_from_loss(delta, float(t), nbn_film, OMEGA0))
        assert np.all(np.diff(dens) > 0)

    def test_domain(self, nbn_film):
        with pytest.raises(ValueError):
            lossmodel.nqp_from_loss(-1e-6, 1.0, nbn_film, OMEGA0)
        with pytest.raises(ValueError):
            lossmodel.nqp_from_loss(1e-6, 11.0, nbn_film, OMEGA0)


class TestBudget:
    def make(self, nbn_film, qi_measured=8e4, t=0.5, delta_qp=1e-7):
        return lossmodel.make_budget(
            t_kelvin=t,
            q_tls_value=1e5,
            delta_qp_theory=delta_qp,
            qi_measured=qi_measured,
            material=nbn_film,
            omega_rad=OMEGA0,
        )

    def test_channel_identity_bitwise(self, nbn_film):
        # 1/(1/2.167e-7) differs from 2.167e-7 in the last digit, and the
        # difference reaches Qi_theory: the budget must compose delta_qp
        # itself, as the theory chain does
        assert 1.0 / (1.0 / 2.167e-7) != 2.167e-7
        for delta_qp in (1e-7, 2.167e-7):
            b = self.make(nbn_film, delta_qp=delta_qp)
            assert b.qi_theory == lossmodel.qi_theory(1e5, delta_qp)
            assert b.q_qp_theory == 1.0 / delta_qp

    def test_negative_loss_flagging(self, nbn_film):
        clean = self.make(nbn_film, qi_measured=8e4)
        assert not clean.negative_loss
        assert clean.nqp_measured_per_um3 is not None
        noisy = self.make(nbn_film, qi_measured=2e5)  # better than TLS-only
        assert noisy.negative_loss
        assert noisy.nqp_measured_per_um3 is None
        assert noisy.delta_qp_measured < 0.0

    def test_two_path_density_identity(self, nbn_film):
        b = self.make(nbn_film)
        recomputed = (
            lossmodel.nqp_from_loss(1e-7, 0.5, nbn_film, OMEGA0) * M3_TO_UM3
        )
        assert b.nqp_theory_per_um3 == recomputed

    def test_excess_loss_cases(self, nbn_film):
        b = self.make(nbn_film, qi_measured=5e4)
        excess, negative = lossmodel.excess_qp_loss(b)
        assert excess == pytest.approx(1.0 / 5e4 - 1.0 / b.qi_theory, rel=1e-12)
        assert not negative
        b_eq = lossmodel.make_budget(
            t_kelvin=0.5, q_tls_value=1e5, delta_qp_theory=0.0,
            qi_measured=1e5, material=nbn_film, omega_rad=OMEGA0,
        )
        excess, negative = lossmodel.excess_qp_loss(b_eq)
        assert excess == 0.0 and not negative
        b_neg = self.make(nbn_film, qi_measured=1.5e5)
        excess, negative = lossmodel.excess_qp_loss(b_neg)
        assert excess == 0.0 and negative
