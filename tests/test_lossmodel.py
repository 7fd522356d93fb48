import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwloss import lossmodel
from cpwloss.constants import M3_TO_UM3
from conftest import OMEGA0, film


@pytest.fixture(scope="module")
def tls():
    return lossmodel.TlsParams(f_delta0=1.26e-5, n_c=10.0, beta_exp=0.5)


class TestQTls:
    def test_hot_limit_diverges(self, tls):
        hot, cold = (lossmodel.q_tls(t, 1.0, tls, OMEGA0) for t in (1000.0, 0.05))
        assert hot > 1e3 * cold

    def test_cold_unsaturated_limit(self):
        p = lossmodel.TlsParams(f_delta0=2e-6, n_c=10.0, beta_exp=0.5)
        # n = 0, T -> 0: tanh -> 1, Q_TLS -> 1/f_delta0
        q = lossmodel.q_tls(0.001, 0.0, p, OMEGA0)
        assert q == pytest.approx(1.0 / 2e-6, rel=1e-6)

    def test_saturation_raises_q(self, tls):
        saturated, bare = (lossmodel.q_tls(0.1, n, tls, OMEGA0) for n in (1e4, 0.0))
        assert saturated > bare

    def test_domain(self, tls):
        with pytest.raises(ValueError):
            lossmodel.q_tls(0.0, 1.0, tls, OMEGA0)
        with pytest.raises(ValueError):
            lossmodel.q_tls(1.0, -1.0, tls, OMEGA0)
        for omega in (0.0, -OMEGA0):
            with pytest.raises(ValueError, match="omega_rad"):
                lossmodel.q_tls(1.0, 1.0, tls, omega)


class TestQiTheory:
    def test_no_tls_channel(self):
        assert lossmodel.qi_theory(math.inf, 5e-6) == pytest.approx(2e5, rel=1e-12)

    def test_equal_channels(self):
        assert lossmodel.qi_theory(2e5, 5e-6) == pytest.approx(1e5, rel=1e-12)

    def test_interior_maximum_over_sweep(self, tls, nbn_film, cpw_geometry):
        from cpwloss.impedance import geometric_inductance, qp_loss_theory

        lg = geometric_inductance(cpw_geometry)
        temps = np.linspace(0.12, 2.9, 40)
        rec = film(nbn_film, temps)
        delta = qp_loss_theory(rec.rs_ohm_sq, rec.ls_h_sq, OMEGA0, lg, 2.24e6)
        qi = lossmodel.qi_theory(lossmodel.q_tls(temps, 1.0, tls, OMEGA0), delta)
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

    def test_array_matches_scalar_calls(self):
        qi = np.array([1e5, 7.421e3, 2e5, math.inf])
        qtls = np.array([1e5, 1e12, 1e5, math.inf])
        arr = lossmodel.delta_qp_measured(qi, qtls)
        scalars = [lossmodel.delta_qp_measured(a, b) for a, b in zip(qi.tolist(), qtls.tolist())]
        assert all(type(v) is float for v in scalars)
        assert arr.tolist() == scalars
        assert arr[2] < 0.0 and arr[3] == 0.0

    def test_one_bad_element_raises(self):
        with pytest.raises(ValueError, match="positive"):
            lossmodel.delta_qp_measured([1e5, 0.0, 1e5], 1e5)
        with pytest.raises(ValueError, match="positive"):
            lossmodel.delta_qp_measured(1e5, [1e5, 1e5, -1.0])


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
        from cpwloss.impedance import geometric_inductance, qp_loss_theory

        lg = geometric_inductance(cpw_geometry)
        temps = np.linspace(0.5, 3.0, 25)
        rec = film(nbn_film, temps)
        delta = qp_loss_theory(rec.rs_ohm_sq, rec.ls_h_sq, OMEGA0, lg, 2.5e5)
        dens = lossmodel.nqp_from_loss(delta, temps, nbn_film, OMEGA0)
        assert np.all(np.diff(dens) > 0)

    def test_domain(self, nbn_film):
        with pytest.raises(ValueError):
            lossmodel.nqp_from_loss(-1e-6, 1.0, nbn_film, OMEGA0)
        with pytest.raises(ValueError):
            lossmodel.nqp_from_loss(1e-6, 11.0, nbn_film, OMEGA0)
        # one element out of range is enough
        with pytest.raises(ValueError, match=">= 0"):
            lossmodel.nqp_from_loss([1e-6, -1e-9, 1e-6], [0.5, 1.0, 2.0], nbn_film, OMEGA0)
        with pytest.raises(ValueError, match="Tc"):
            lossmodel.nqp_from_loss([1e-6, 1e-6, 1e-6], [0.5, 11.0, 2.0], nbn_film, OMEGA0)

    @pytest.mark.parametrize("gap_model", ["bcs_tanh", "constant"])
    def test_array_matches_scalar_calls(self, nbn_film, gap_model):
        delta = np.array([0.0, 1e-7, 2.167e-7, 3e-5, 1e-4])
        temps = np.array([0.0, 0.12, 0.5, 1.7, 2.9])
        arr = lossmodel.nqp_from_loss(delta, temps, nbn_film, OMEGA0, gap_model)
        scalars = [
            lossmodel.nqp_from_loss(d, t, nbn_film, OMEGA0, gap_model)
            for d, t in zip(delta.tolist(), temps.tolist())
        ]
        assert all(type(v) is float for v in scalars)
        assert arr.tolist() == scalars


def budgets(material, t, q_tls, delta_qp, qi_measured):
    """Array make_budget, with Qi_theory composed as the theory chain does."""
    return lossmodel.make_budget(
        t_kelvin=t,
        q_tls_value=q_tls,
        delta_qp_theory=delta_qp,
        qi_theory_value=lossmodel.qi_theory(q_tls, delta_qp),
        qi_measured=qi_measured,
        material=material,
        omega_rad=OMEGA0,
    )


class TestBudget:
    def make(self, nbn_film, qi_measured=8e4, t=0.5, delta_qp=1e-7):
        [budget] = budgets(nbn_film, [t], [1e5], [delta_qp], [qi_measured])
        return budget

    def test_channel_identity_bitwise(self, nbn_film):
        # 1/(1/2.167e-7) differs from 2.167e-7 in the last digit: the budget
        # takes the chain's Qi_theory as given instead of recomposing it
        # from Q_qp
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

    def test_array_matches_per_element_calls(self, nbn_film):
        # T = 0, a negative measured loss (Qi above the TLS limit), a Qi of
        # inf, an infinite Q_TLS and a vanishing theory loss
        t = [0.0, 0.12, 0.5, 1.0, 2.9]
        q_tls = [1e5, 1e5, 1e5, math.inf, 2e5]
        delta_qp = [0.0, 1e-7, 2.167e-7, 3e-6, 1e-4]
        qi_measured = [8e4, 2e5, math.inf, 5e4, 7.421e3]
        whole = budgets(nbn_film, t, q_tls, delta_qp, qi_measured)
        one_by_one = [
            budgets(nbn_film, *([v] for v in row))[0]
            for row in zip(t, q_tls, delta_qp, qi_measured)
        ]
        assert whole == one_by_one
        assert [b.negative_loss for b in whole] == [False, True, True, False, False]
        for b, t_k, dqp in zip(whole, t, delta_qp):
            assert b.delta_qp_measured == lossmodel.delta_qp_measured(b.qi_measured, b.q_tls)
            assert b.nqp_theory_per_um3 == (
                lossmodel.nqp_from_loss(dqp, t_k, nbn_film, OMEGA0) * M3_TO_UM3
            )
            if b.negative_loss:
                assert b.nqp_measured_per_um3 is None
            else:
                assert b.nqp_measured_per_um3 == (
                    lossmodel.nqp_from_loss(b.delta_qp_measured, t_k, nbn_film, OMEGA0)
                    * M3_TO_UM3
                )
        assert all(
            type(v) is float
            for b in whole
            for v in (b.q_tls, b.qi_theory, b.qi_measured, b.nqp_theory_per_um3)
        )

    def test_one_bad_element_raises(self, nbn_film):
        with pytest.raises(ValueError, match="positive"):
            budgets(nbn_film, [0.5, 1.0], [1e5, 1e5], [1e-7, 1e-7], [8e4, 0.0])
        with pytest.raises(ValueError, match="Tc"):
            budgets(nbn_film, [0.5, 11.0], [1e5, 1e5], [1e-7, 1e-7], [8e4, 8e4])

    def test_excess_loss_cases(self, nbn_film):
        b = self.make(nbn_film, qi_measured=5e4)
        excess, negative = lossmodel.excess_qp_loss(b.qi_measured, b.qi_theory)
        assert excess == pytest.approx(1.0 / 5e4 - 1.0 / b.qi_theory, rel=1e-12)
        assert not negative
        excess, negative = lossmodel.excess_qp_loss(1e5, lossmodel.qi_theory(1e5, 0.0))
        assert excess == 0.0 and not negative
        b_neg = self.make(nbn_film, qi_measured=1.5e5)
        excess, negative = lossmodel.excess_qp_loss(b_neg.qi_measured, b_neg.qi_theory)
        assert excess == 0.0 and negative

    def test_excess_array_matches_scalar_calls(self):
        qi_measured = np.array([5e4, 1e5, 1.5e5, math.inf, 7e3])
        qi_th = np.array([8e4, 1e5, 1e5, 1e5, math.inf])
        excess, negative = lossmodel.excess_qp_loss(qi_measured, qi_th)
        scalars = [
            lossmodel.excess_qp_loss(a, b)
            for a, b in zip(qi_measured.tolist(), qi_th.tolist())
        ]
        assert all(type(e) is float and type(n) is bool for e, n in scalars)
        assert list(zip(excess.tolist(), negative.tolist())) == scalars
        assert negative.tolist() == [False, False, True, True, False]
