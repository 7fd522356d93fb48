"""Forward model chain: material + geometry + TLS -> Qi(T), fr(T), traces.

Used to generate synthetic temperature sweeps (for the synth command and
for end-to-end round-trip testing) and to calibrate the model scale factors
against a pair of (temperature, Qi) anchor points:

* ``tls_f_delta0_for_q`` pins the TLS strength so Q_TLS(t) hits a target at
  a cold anchor where quasiparticle loss is negligible.
* ``geom_factor_for_loss`` solves the per-square-to-per-length geometry
  factor g so the quasiparticle channel reproduces a target loss at a warm
  anchor. The solve is algebraic: delta = Rs g / (omega (Ls g + Lg)) gives
  g = delta omega Lg / (Rs - delta omega Ls).

The resonance frequency tracks the total line inductance,
fr(T) = f0 * sqrt(Ltot(T0) / Ltot(T)) with Ltot = Lg + g * Ls(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import HBAR_EVS, KB_EV, angular_frequency
from ..impedance import (
    CpwGeometry,
    SurfaceImpedance,
    geometric_inductance,
    kinetic_fraction,
    qp_loss_theory,
    surface_impedance,
)
from ..lossmodel import q_tls, qi_theory
from ..mbcore import ComplexConductivity, MaterialParams, complex_conductivity
from ..resfit import NotchParams, S21Trace, synth_trace
from .config import AnalysisConfig, FitSettings, TlsSettings, config_from_dict


@dataclass(frozen=True)
class ChainPoint:
    """Forward-model state at one temperature."""

    temperature_k: float
    fr_hz: float
    q_tls: float
    delta_qp_theory: float
    qi_theory: float
    qi_total: float
    sigma: ComplexConductivity
    zs: SurfaceImpedance


def loss_chain(
    material: MaterialParams,
    geometry: CpwGeometry,
    tls: TlsSettings,
    fit: FitSettings,
    f0_hz: float,
    temperatures,
    excess_loss: float = 0.0,
) -> list[ChainPoint]:
    """Evaluate the loss and frequency-shift chain on a temperature grid.

    ``qi_total`` folds in an optional constant excess loss channel (used to
    emulate a non-equilibrium quasiparticle population); ``qi_theory`` is
    the TLS + thermal-quasiparticle prediction alone.
    """
    temps = sorted(float(t) for t in temperatures)
    omega0 = angular_frequency(f0_hz)
    lg = geometric_inductance(geometry)
    g = fit.geom_factor(geometry)
    tls_p = tls.tls_params(omega0)
    points: list[ChainPoint] = []
    ltot_ref = None
    for t in temps:
        sigma = complex_conductivity(material, t, omega0, fit.sigma2_prefactor)
        zs = surface_impedance(sigma)
        delta_qp = qp_loss_theory(zs, lg, g)
        qtls = q_tls(t, fit.n_photon, tls_p)
        qi_th = qi_theory(qtls, delta_qp)
        qi_tot = 1.0 / (1.0 / qi_th + excess_loss)
        ltot = lg + g * zs.ls_henry
        if ltot_ref is None:
            ltot_ref = ltot
        fr = f0_hz * math.sqrt(ltot_ref / ltot)
        points.append(
            ChainPoint(
                temperature_k=t,
                fr_hz=fr,
                q_tls=qtls,
                delta_qp_theory=delta_qp,
                qi_theory=qi_th,
                qi_total=qi_tot,
                sigma=sigma,
                zs=zs,
            )
        )
    return points


def synth_sweep(config: AnalysisConfig) -> list[S21Trace]:
    """Generate one synthetic trace per configured temperature.

    Reads the forward-model inputs from the material/geometry/tls/fit
    sections and the synthesis knobs (grid, coupling, noise, seed) from the
    run section. Per-trace noise streams are spawned deterministically from
    the single run seed.
    """
    config.require("material", "geometry", "tls")
    run = config.run
    if run.frequency_hz is None or run.temperatures is None or run.qc_mag is None:
        from ..errors import ConfigError

        raise ConfigError(
            "synth sweep needs run.frequency_hz, run.temperatures and run.qc_mag"
        )
    points = loss_chain(
        config.material,
        config.geometry,
        config.tls,
        config.fit,
        run.frequency_hz,
        run.temperatures,
        excess_loss=run.excess_loss,
    )
    seeds = np.random.SeedSequence(run.seed).spawn(len(points))
    traces: list[S21Trace] = []
    for pt, seed in zip(points, seeds):
        ql = 1.0 / (
            1.0 / pt.qi_total + math.cos(run.phi_rad) / run.qc_mag
        )
        params = NotchParams(
            fr_hz=pt.fr_hz,
            ql=ql,
            qc_mag=run.qc_mag,
            phi_rad=run.phi_rad,
            amp=run.amp,
            phase0_rad=run.phase0_rad,
            tau_s=run.tau_s,
        )
        half_span = 0.5 * run.span_linewidths * pt.fr_hz / ql
        grid = np.linspace(pt.fr_hz - half_span, pt.fr_hz + half_span, run.npoints)
        traces.append(
            synth_trace(
                params,
                grid,
                noise_sigma=run.noise_sigma,
                seed=seed.generate_state(1)[0],
                temperature_k=pt.temperature_k,
                power_dbm=None,
            )
        )
    return traces


def tls_f_delta0_for_q(
    target_q: float,
    t_kelvin: float,
    f_hz: float,
    n_c: float,
    beta_exp: float,
    n_photon: float = 1.0,
) -> float:
    """TLS strength F*delta0 that makes Q_TLS(t_kelvin) equal target_q."""
    if target_q <= 0:
        raise ValueError("target quality factor must be positive")
    omega = angular_frequency(f_hz)
    thermal = math.tanh(HBAR_EVS * omega / (2.0 * KB_EV * t_kelvin))
    saturation = (1.0 + n_photon / n_c) ** beta_exp
    return saturation / (target_q * thermal)


def geom_factor_for_loss(
    material: MaterialParams,
    geometry: CpwGeometry,
    f_hz: float,
    t_kelvin: float,
    target_delta_qp: float,
    sigma2_prefactor: str = "pi",
) -> float:
    """Geometry factor g that reproduces a target quasiparticle loss at one T."""
    if target_delta_qp <= 0:
        raise ValueError("target loss must be positive")
    omega = angular_frequency(f_hz)
    sigma = complex_conductivity(material, t_kelvin, omega, sigma2_prefactor)
    zs = surface_impedance(sigma)
    lg = geometric_inductance(geometry)
    headroom = zs.rs_ohm - target_delta_qp * omega * zs.ls_henry
    if headroom <= 0:
        raise ValueError(
            "target loss exceeds the fully kinetic limit Rs/(omega*Ls) "
            f"= {zs.rs_ohm / (omega * zs.ls_henry):.3e}"
        )
    return target_delta_qp * omega * lg / headroom


def calibrate_sweep_config(
    f0_hz: float = 5.95e9,
    qi_cold: float = 1.0e5,
    t_cold: float = 0.12,
    qi_hot: float = 7.421e3,
    t_hot: float = 2.9,
    tc_kelvin: float = 10.7,
    sheet_resistance_ohm: float = 159.5,
    thickness_m: float = 100e-9,
    n0_states: float = 1.86e28,
    center_width_m: float = 4e-6,
    gap_m: float = 2e-6,
    substrate_eps_r: float = 11.7,
    n_c: float = 10.0,
    beta_exp: float = 0.5,
    n_photon: float = 1.0,
    temperatures=None,
    qc_mag: float = 1.0e5,
    noise_sigma: float = 1e-3,
    npoints: int = 1001,
    span_linewidths: float = 10.0,
    seed: int = 0,
    excess_loss: float = 0.0,
) -> dict:
    """Build a fully calibrated config document for a reference-style sweep.

    The TLS strength is pinned so Qi(t_cold) = qi_cold (where quasiparticle
    loss is negligible) and the geometry factor so the combined chain gives
    Qi(t_hot) = qi_hot. The kinetic-inductance fraction alpha used for
    density conversion is taken from the calibrated chain at the cold end.
    The sigma2 prefactor is ``pi``: with the 4/pi-inflated variant the
    quasiparticle channel cannot reach the warm-anchor loss within the
    physical range alpha <= 1.
    """
    sigma2_prefactor = "pi"
    f_delta0 = tls_f_delta0_for_q(qi_cold, t_cold, f0_hz, n_c, beta_exp, n_photon)
    tls = TlsSettings(f_delta0=f_delta0, n_c=n_c, beta_exp=beta_exp)

    material_probe = MaterialParams(
        tc_kelvin=tc_kelvin,
        sheet_resistance_ohm=sheet_resistance_ohm,
        thickness_m=thickness_m,
        n0_states=n0_states,
        alpha=1.0,
    )
    geometry = CpwGeometry(
        center_width_m=center_width_m,
        gap_m=gap_m,
        thickness_m=thickness_m,
        substrate_eps_r=substrate_eps_r,
    )
    omega0 = angular_frequency(f0_hz)
    tls_hot_loss = 1.0 / q_tls(t_hot, n_photon, tls.tls_params(omega0))
    target_delta = 1.0 / qi_hot - tls_hot_loss
    if target_delta <= 0:
        raise ValueError("warm anchor is above the TLS-only prediction")
    g = geom_factor_for_loss(
        material_probe, geometry, f0_hz, t_hot, target_delta, sigma2_prefactor
    )
    sigma_cold = complex_conductivity(material_probe, t_cold, omega0, sigma2_prefactor)
    zs_cold = surface_impedance(sigma_cold)
    alpha = kinetic_fraction(zs_cold, geometric_inductance(geometry), g)

    if temperatures is None:
        temperatures = [round(v, 4) for v in np.linspace(0.12, 2.9, 30)]
    return {
        "material": {
            "tc_kelvin": tc_kelvin,
            "sheet_resistance_ohm": sheet_resistance_ohm,
            "thickness_m": thickness_m,
            "n0_states": n0_states,
            "alpha": alpha,
        },
        "geometry": {
            "center_width_m": center_width_m,
            "gap_m": gap_m,
            "thickness_m": thickness_m,
            "substrate_eps_r": substrate_eps_r,
        },
        "tls": {"f_delta0": f_delta0, "n_c": n_c, "beta_exp": beta_exp},
        "fit": {
            "sigma2_prefactor": sigma2_prefactor,
            "gap_model": "bcs_tanh",
            "n_photon": n_photon,
            "geom_factor_per_m": g,
        },
        "run": {
            "frequency_hz": f0_hz,
            "seed": seed,
            "temperatures": list(temperatures),
            "qc_mag": qc_mag,
            "noise_sigma": noise_sigma,
            "npoints": npoints,
            "span_linewidths": span_linewidths,
            "excess_loss": excess_loss,
        },
    }


def reference_chain(config_doc: dict):
    """Convenience: loss_chain evaluated from a config document."""
    config = config_from_dict(config_doc)
    config.require("material", "geometry", "tls")
    return loss_chain(
        config.material,
        config.geometry,
        config.tls,
        config.fit,
        config.run.frequency_hz,
        config.run.temperatures,
        excess_loss=config.run.excess_loss,
    )
