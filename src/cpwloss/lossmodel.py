"""TLS and quasiparticle loss channels and the loss budget of a sweep.

The TLS channel follows the standard saturable two-level-system model
1/Q_TLS = F*delta0_TLS * tanh(hbar omega / 2 kB T) / (1 + n/n_c)^beta.
Quasiparticle loss tangents convert to densities through
n_qp = delta_qp * N0 * delta(T) * (pi/alpha) * sqrt(hbar omega / 2 delta(T)).
The same conversion applied to the measured loss (1/Qi - 1/Q_TLS) and to
the theoretical loss gives the measured and theoretical densities; both
paths share one implementation.

The functions are elementwise over arrays, and ``make_budget`` builds a
whole sweep's per-temperature budget in one call: a dict of arrays keyed by
the report.json ``budget`` names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EVS, KB_EV, M3_TO_UM3
from .mbcore import MaterialParams, gap_at_temperature


@dataclass(frozen=True)
class TlsParams:
    """Saturable TLS loss parameters; the frequency is an argument of the
    loss functions. The config's ``tls`` section builds this record."""

    f_delta0: float
    n_c: float
    beta_exp: float

    def __post_init__(self) -> None:
        if self.f_delta0 <= 0:
            raise ValueError("f_delta0 must be positive")
        if self.n_c <= 0:
            raise ValueError("n_c must be positive")
        if not 0.0 < self.beta_exp <= 1.0:
            raise ValueError("beta_exp must be in (0, 1]")


def tls_loss(t_kelvin, n_photon: float, p: TlsParams, omega_rad: float):
    """TLS loss tangent 1/Q_TLS at temperature T (scalar or array), drive
    photon number n and angular frequency omega."""
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    if n_photon < 0:
        raise ValueError("photon number must be >= 0")
    if omega_rad <= 0:
        raise ValueError("omega_rad must be positive")
    thermal = np.tanh(HBAR_EVS * omega_rad / (2.0 * KB_EV * t))
    saturation = (1.0 + n_photon / p.n_c) ** p.beta_exp
    return p.f_delta0 * thermal / saturation


def _inverse(x):
    # 1/0 = inf and 1/inf = 0: an infinite Q is a vanishing loss channel
    with np.errstate(divide="ignore"):
        return np.divide(1.0, x)


def q_tls(t_kelvin, n_photon: float, p: TlsParams, omega_rad: float):
    """TLS quality factor; infinite when the TLS bath is thermally saturated."""
    return _inverse(tls_loss(t_kelvin, n_photon, p, omega_rad))


def qi_theory(q_tls_value, delta_qp):
    """Combined internal quality factor 1/(1/Q_TLS + delta_qp), elementwise."""
    if np.any(np.asarray(q_tls_value) <= 0):
        raise ValueError("Q_TLS must be positive")
    if np.any(np.asarray(delta_qp) < 0):
        raise ValueError("quasiparticle loss must be >= 0")
    return _inverse(_inverse(q_tls_value) + delta_qp)


def delta_qp_measured(qi_measured, q_tls_value):
    """Measured quasiparticle loss 1/Qi - 1/Q_TLS, elementwise.

    May come out negative when the fitted Qi exceeds the modelled TLS limit
    (fit noise near the Qi maximum); callers flag rather than clamp.
    """
    if np.any(np.asarray(qi_measured) <= 0) or np.any(np.asarray(q_tls_value) <= 0):
        raise ValueError("quality factors must be positive")
    return _inverse(qi_measured) - _inverse(q_tls_value)


def nqp_from_loss(
    delta_qp, t_kelvin, params: MaterialParams, omega_rad: float,
    gap_model: str = "bcs_tanh",
):
    """Quasiparticle density in m^-3 from a loss tangent, elementwise.

    Applies n_qp = delta * N0 * delta(T) * (pi/alpha) * sqrt(hw/(2 delta(T))).
    Applied to the measured loss this gives the measured density; applied to
    the theoretical loss it gives the thermal-theory density.
    """
    delta = np.asarray(delta_qp, dtype=float)
    if np.any(delta < 0):
        raise ValueError("loss tangent must be >= 0 (flag negatives upstream)")
    if np.any(np.asarray(t_kelvin) >= params.tc_kelvin):
        raise ValueError("T >= Tc: gap closed, density conversion invalid")
    d_t = gap_at_temperature(params.delta0_ev, t_kelvin, params.tc_kelvin, gap_model)
    hw = HBAR_EVS * omega_rad
    n = delta * params.n0_states * d_t * (math.pi / params.alpha)
    return n * np.sqrt(hw / (2.0 * d_t))


def make_budget(
    t_kelvin, q_tls_value, delta_qp_theory, qi_theory_value, qi_measured,
    material: MaterialParams, omega_rad: float, gap_model: str = "bcs_tanh",
) -> dict[str, np.ndarray]:
    """The budget of a sweep over the equal-length arrays, as one array per
    report.json ``budget`` field, in report order. Densities are in um^-3.

    ``qi_theory_value`` is the theory chain's 1/(1/Q_TLS + delta_qp_theory).
    ``nqp_measured_per_um3`` is NaN where the measured loss is negative
    (``negative_loss`` set); the signed loss stays in ``delta_qp_measured``.
    """
    d_meas = delta_qp_measured(qi_measured, q_tls_value)
    negative = d_meas < 0.0
    # both densities in one conversion, so the gap is evaluated once
    losses = np.stack((np.where(negative, 0.0, d_meas), delta_qp_theory))
    nqp = nqp_from_loss(losses, t_kelvin, material, omega_rad, gap_model) * M3_TO_UM3
    return {
        "q_tls": np.asarray(q_tls_value, dtype=float),
        "q_qp_theory": _inverse(delta_qp_theory),
        "qi_theory": np.asarray(qi_theory_value, dtype=float),
        "qi_measured": np.asarray(qi_measured, dtype=float),
        "delta_qp_measured": d_meas,
        "nqp_measured_per_um3": np.where(negative, np.nan, nqp[0]),
        "nqp_theory_per_um3": nqp[1],
        "negative_loss": negative,
    }


def excess_qp_loss(qi_measured, qi_theory_value):
    """Loss beyond the thermal prediction: max(0, 1/Qi_meas - 1/Qi_theory).

    Returns (excess, negative_flag), elementwise. A positive excess at T well
    below Tc is the signature of a non-equilibrium quasiparticle channel; a
    negative raw difference (measured better than theory) is clamped to zero
    and flagged.
    """
    diff = _inverse(qi_measured) - _inverse(qi_theory_value)
    return np.where(diff > 0.0, diff, 0.0), diff < 0.0
