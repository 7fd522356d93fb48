"""Drive-power budget and average intra-resonator photon number.

The on-resonance scattering amplitudes |S21| = 1 - Ql/|Qc| and
|S11| = Ql/|Qc| follow from the loaded and coupling quality factors, the
dissipated power from energy conservation P_loss = P_in (1 - |S21|^2 -
|S11|^2), and the average photon number from <n> = Qi * P_loss /
(hbar * omega^2). Together they give the hanger relation
<n> = 2 Ql^2 P_in / (|Qc| hbar omega^2) (Sage et al. 2011, Bruno et al.
2015). Power is carried in watts internally; dBm appears only at the API
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR_JS


def dbm_to_watt(p_dbm: float) -> float:
    """P[W] = 10^((dBm - 30)/10); ValueError when that is not a finite float."""
    try:
        p_w = 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        p_w = math.inf
    if not math.isfinite(p_w):
        raise ValueError(f"{p_dbm} dBm is not a representable power in W")
    return p_w


def _square(x: float, name: str) -> float:
    """x**2; ValueError naming the quantity when that is past the float range."""
    try:
        return x**2
    except OverflowError:
        raise ValueError(f"{name} = {x:g} is too large: its square overflows") from None


def watt_to_dbm(p_w: float) -> float:
    """Inverse of :func:`dbm_to_watt`; requires positive power."""
    if p_w <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_w) + 30.0


def scattering_mags(ql: float, qc_mag: float) -> tuple[float, float]:
    """On-resonance amplitudes (|S21|, |S11|) from Ql and |Qc|.

    |S21| = |1 - x| and |S11| = x with x = Ql/|Qc|: |S21|^2 + |S11|^2
    exceeds 1 only for x > 1, that is Qi < 0, which :func:`power_loss`
    flags downstream.
    """
    if ql <= 0 or qc_mag <= 0:
        raise ValueError("ql and qc_mag must be positive")
    x = ql / qc_mag
    return abs(1.0 - x), x


def power_loss(p_in_w: float, s21_mag: float, s11_mag: float) -> float:
    """Dissipated power P_in * (1 - |S21|^2 - |S11|^2), in W.

    Raises when the scattering magnitudes violate energy conservation
    (|S21|^2 + |S11|^2 > 1) instead of clamping, so the validity envelope of
    the on-resonance approximations is surfaced rather than hidden; only a
    remainder that rounding left below 0 under a sum of at most 1 reads 0.
    """
    if p_in_w < 0:
        raise ValueError("input power must be >= 0")
    if s21_mag < 0 or s11_mag < 0:
        raise ValueError("scattering magnitudes must be >= 0")
    s21_sq, s11_sq = _square(s21_mag, "|S21|"), _square(s11_mag, "|S11|")
    if s21_sq + s11_sq > 1:
        raise ValueError(
            f"|S21|^2 + |S11|^2 = {s21_sq + s11_sq:.6f} > 1: "
            "scattering inputs outside the validity range"
        )
    return p_in_w * max(1.0 - s21_sq - s11_sq, 0.0)


def photon_number(qi: float, p_loss_w: float, f_hz: float) -> float:
    """Average photon number <n> = Qi * P_loss / (hbar * omega^2); ValueError
    when <n> overflows, also where hbar * omega^2 underflows to 0."""
    if qi <= 0 or f_hz <= 0:
        raise ValueError("qi and f_hz must be positive")
    if p_loss_w < 0:
        raise ValueError("dissipated power must be >= 0")
    hbar_omega_sq = HBAR_JS * _square(2.0 * math.pi * f_hz, "omega")
    n_ph = qi * p_loss_w / hbar_omega_sq if hbar_omega_sq > 0 else math.inf
    if n_ph == math.inf:
        raise ValueError(f"<n> = Qi * P_loss / (hbar * omega^2) overflows at f_hz = {f_hz:g}")
    return n_ph


def power_for_photons(
    n_target: float, qi: float, ql: float, qc_mag: float, f_hz: float
) -> float:
    """Feedline power (dBm) that puts ``n_target`` photons in the resonator:
    <n> is linear in the input power, so the forward chain is run at 1 W."""
    if n_target <= 0:
        raise ValueError("photon target must be positive")
    per_watt = photon_number(qi, power_loss(1.0, *scattering_mags(ql, qc_mag)), f_hz)
    if per_watt == 0.0:
        raise ValueError("zero or negative loss fraction: power is undefined")
    return watt_to_dbm(n_target / per_watt)


@dataclass(frozen=True)
class PowerBudget:
    """Complete drive-power accounting for one operating point."""

    p_vna_dbm: float
    p_att_db: float
    p_in_dbm: float
    s21_mag: float
    s11_mag: float
    p_loss_w: float
    n_ph: float


def build_power_budget(
    p_vna_dbm: float,
    p_att_db: float,
    ql: float,
    qc_mag: float,
    qi: float,
    f_hz: float,
) -> PowerBudget:
    """Forward chain: source power and attenuation to photon number."""
    p_in_dbm = p_vna_dbm + p_att_db
    s21, s11 = scattering_mags(ql, qc_mag)
    p_loss = power_loss(dbm_to_watt(p_in_dbm), s21, s11)
    n_ph = photon_number(qi, p_loss, f_hz)
    return PowerBudget(
        p_vna_dbm=p_vna_dbm,
        p_att_db=p_att_db,
        p_in_dbm=p_in_dbm,
        s21_mag=s21,
        s11_mag=s11,
        p_loss_w=p_loss,
        n_ph=n_ph,
    )
