"""TLS and quasiparticle loss channels and the per-temperature loss budget.

The TLS channel follows the standard saturable two-level-system model
1/Q_TLS = F*delta0_TLS * tanh(hbar omega / 2 kB T) / (1 + n/n_c)^beta.
Quasiparticle loss tangents convert to densities through
n_qp = delta_qp * N0 * delta(T) * (pi/alpha) * sqrt(hbar omega / 2 delta(T)).
The same conversion applied to the measured loss (1/Qi - 1/Q_TLS) and to
the theoretical loss gives the measured and theoretical densities; both
paths share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EVS, KB_EV, M3_TO_UM3
from .mbcore import MaterialParams, gap_at_temperature


@dataclass(frozen=True)
class TlsParams:
    """Saturable TLS loss parameters at a fixed angular frequency."""

    f_delta0: float
    n_c: float
    beta_exp: float
    omega_rad: float

    def __post_init__(self) -> None:
        if self.f_delta0 <= 0:
            raise ValueError("f_delta0 must be positive")
        if self.n_c <= 0:
            raise ValueError("n_c must be positive")
        if not 0.0 < self.beta_exp <= 1.0:
            raise ValueError("beta_exp must be in (0, 1]")
        if self.omega_rad <= 0:
            raise ValueError("omega_rad must be positive")


def tls_loss(t_kelvin, n_photon: float, p: TlsParams):
    """TLS loss tangent 1/Q_TLS at temperature T (scalar or array) and drive
    photon number n."""
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    if n_photon < 0:
        raise ValueError("photon number must be >= 0")
    thermal = np.tanh(HBAR_EVS * p.omega_rad / (2.0 * KB_EV * t))
    saturation = (1.0 + n_photon / p.n_c) ** p.beta_exp
    return p.f_delta0 * thermal / saturation


def _inverse(x):
    # 1/0 = inf and 1/inf = 0: an infinite Q is a vanishing loss channel;
    # a scalar stays a Python float, as the loss budget's fields are
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, x)
    return float(inv) if np.ndim(inv) == 0 else inv


def q_tls(t_kelvin, n_photon: float, p: TlsParams):
    """TLS quality factor; infinite when the TLS bath is thermally saturated."""
    return _inverse(tls_loss(t_kelvin, n_photon, p))


def qi_theory(q_tls_value, delta_qp):
    """Combined internal quality factor 1/(1/Q_TLS + delta_qp), elementwise."""
    if np.any(np.asarray(q_tls_value) <= 0):
        raise ValueError("Q_TLS must be positive")
    if np.any(np.asarray(delta_qp) < 0):
        raise ValueError("quasiparticle loss must be >= 0")
    return _inverse(_inverse(q_tls_value) + delta_qp)


def delta_qp_measured(qi_measured: float, q_tls_value: float) -> float:
    """Measured quasiparticle loss 1/Qi - 1/Q_TLS.

    May come out negative when the fitted Qi exceeds the modelled TLS limit
    (fit noise near the Qi maximum); callers flag rather than clamp.
    """
    if qi_measured <= 0 or q_tls_value <= 0:
        raise ValueError("quality factors must be positive")
    return 1.0 / qi_measured - 1.0 / q_tls_value


def nqp_from_loss(
    delta_qp: float,
    t_kelvin: float,
    params: MaterialParams,
    omega_rad: float,
    gap_model: str = "bcs_tanh",
) -> float:
    """Quasiparticle density in m^-3 from a loss tangent.

    Applies n_qp = delta * N0 * delta(T) * (pi/alpha) * sqrt(hw/(2 delta(T))).
    Applied to the measured loss this gives the measured density; applied to
    the theoretical loss it gives the thermal-theory density.
    """
    if delta_qp < 0:
        raise ValueError("loss tangent must be >= 0 (flag negatives upstream)")
    if t_kelvin >= params.tc_kelvin:
        raise ValueError("T >= Tc: gap closed, density conversion invalid")
    d_t = gap_at_temperature(params.delta0_ev, t_kelvin, params.tc_kelvin, gap_model)
    hw = HBAR_EVS * omega_rad
    return (
        delta_qp
        * params.n0_states
        * d_t
        * (math.pi / params.alpha)
        * math.sqrt(hw / (2.0 * d_t))
    )


@dataclass(frozen=True)
class LossBudget:
    """Per-temperature loss decomposition.

    Densities are reported in um^-3. ``nqp_measured_per_um3`` is None when
    the measured loss was negative (``negative_loss`` set); the raw signed
    loss is always retained in ``delta_qp_measured``.
    """

    temperature_k: float
    q_tls: float
    q_qp_theory: float
    qi_theory: float
    qi_measured: float
    delta_qp_measured: float
    nqp_measured_per_um3: float | None
    nqp_theory_per_um3: float
    negative_loss: bool


def make_budget(
    t_kelvin: float,
    q_tls_value: float,
    delta_qp_theory: float,
    qi_measured: float,
    material: MaterialParams,
    omega_rad: float,
    gap_model: str = "bcs_tanh",
) -> LossBudget:
    """Assemble a self-consistent loss budget for one temperature."""
    q_qp = _inverse(delta_qp_theory)
    qi_th = qi_theory(q_tls_value, delta_qp_theory)
    d_meas = delta_qp_measured(qi_measured, q_tls_value)
    negative = d_meas < 0.0
    nqp_meas = (
        None
        if negative
        else nqp_from_loss(d_meas, t_kelvin, material, omega_rad, gap_model) * M3_TO_UM3
    )
    nqp_th = (
        nqp_from_loss(delta_qp_theory, t_kelvin, material, omega_rad, gap_model)
        * M3_TO_UM3
    )
    return LossBudget(
        temperature_k=t_kelvin,
        q_tls=q_tls_value,
        q_qp_theory=q_qp,
        qi_theory=qi_th,
        qi_measured=qi_measured,
        delta_qp_measured=d_meas,
        nqp_measured_per_um3=nqp_meas,
        nqp_theory_per_um3=nqp_th,
        negative_loss=negative,
    )


def excess_qp_loss(budget: LossBudget) -> tuple[float, bool]:
    """Loss beyond the thermal prediction: max(0, 1/Qi_meas - 1/Qi_theory).

    Returns (excess, negative_flag). A positive excess at T well below Tc is
    the signature of a non-equilibrium quasiparticle channel; a negative raw
    difference (measured better than theory) is clamped to zero and flagged.
    """
    diff = 1.0 / budget.qi_measured - 1.0 / budget.qi_theory
    return max(0.0, diff), diff < 0.0
