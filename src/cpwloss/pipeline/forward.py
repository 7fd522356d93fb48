"""Forward model chain: material + geometry + TLS -> Qi(T), fr(T), traces.

Every evaluation of the film and loss model goes through this module.
``film_response`` is the film stage (Mattis-Bardeen conductivity -> surface
impedance); ``cpwloss mb`` prints it. ``theory_chain`` adds the line and TLS
stages (geometric inductance -> quasiparticle loss -> TLS loss -> Qi) once
over an array of temperatures; sweep analysis, ``loss_chain`` and the
calibration build on it. All of them take the whole ``AnalysisConfig`` and
read the sections they need from it. The module generates synthetic
temperature sweeps (for the synth command and for end-to-end round-trip
testing) and calibrates the model scale factors against a pair of
(temperature, Qi) anchor points:

* ``tls_f_delta0_for_q`` pins the TLS strength so Q_TLS(t) hits a target at
  a cold anchor where quasiparticle loss is negligible.
* ``calibrate_sweep_config`` then solves the per-square-to-per-length
  geometry factor g so the quasiparticle channel reproduces the remaining
  loss at a warm anchor, from one ``theory_chain`` evaluation at both
  anchors. The solve is algebraic: delta = Rs g / (omega (Ls g + Lg)) gives
  g = delta omega Lg / (Rs - delta omega Ls).

The resonance frequency tracks the total line inductance,
fr(T) = f0 * sqrt(Ltot(T0) / Ltot(T)) with Ltot = Lg + g * Ls(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import HBAR_EVS, KB_EV, angular_frequency
from ..errors import ConfigError
from ..impedance import (
    SurfaceImpedance,
    geometric_inductance,
    kinetic_fraction,
    qp_loss_theory,
    surface_impedance,
)
from ..lossmodel import q_tls, qi_theory
from ..mbcore import ComplexConductivity, complex_conductivity
from ..resfit import NotchParams, S21Trace, synth_trace
from .config import AnalysisConfig, config_from_dict


def film_response(
    config: AnalysisConfig, omega: float, temps
) -> tuple[ComplexConductivity, SurfaceImpedance]:
    """Complex conductivity and surface impedance of the config's film at
    angular frequency omega over an array of temperatures; ValueError when a
    value is not finite (an extreme omega overflows the closed forms)."""
    config.require("material")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
        sigma = complex_conductivity(
            config.material, temps, omega, config.fit.sigma2_prefactor
        )
        zs = surface_impedance(sigma)
        finite = np.isfinite([sigma.sigma1, sigma.sigma2, zs.rs_ohm, zs.ls_henry])
    if not finite.all():
        raise ValueError(f"the film response at omega = {omega!r} rad/s is not finite")
    return sigma, zs


@dataclass(frozen=True)
class TheoryChain:
    """The loss chain on a temperature grid; every array is over that grid."""

    sigma: ComplexConductivity
    zs: SurfaceImpedance
    lg_h_per_m: float
    g_per_m: float
    delta_qp: np.ndarray
    q_tls: np.ndarray
    qi_theory: np.ndarray


def theory_chain(config: AnalysisConfig, omega: float, temps) -> TheoryChain:
    """Conductivity, surface impedance, quasiparticle and TLS loss, and the
    combined Qi, at angular frequency omega over an array of temperatures,
    from the config's material, geometry, tls and fit sections."""
    config.require("material", "geometry", "tls")
    temps = np.asarray(temps, dtype=float)
    fit, geometry = config.fit, config.geometry
    sigma, zs = film_response(config, omega, temps)
    lg, g = geometric_inductance(geometry), fit.geom_factor(geometry)
    delta_qp = qp_loss_theory(zs, lg, g)
    qtls = q_tls(temps, fit.n_photon, config.tls, omega)
    return TheoryChain(sigma, zs, lg, g, delta_qp, qtls, qi_theory(qtls, delta_qp))


@dataclass(frozen=True)
class ChainPoint:
    """Forward-model state at one temperature."""

    temperature_k: float
    fr_hz: float
    q_tls: float
    delta_qp_theory: float
    qi_theory: float
    qi_total: float


def loss_chain(config: AnalysisConfig) -> list[ChainPoint]:
    """Evaluate the loss and frequency-shift chain on the config's
    ``run.temperatures`` at ``run.frequency_hz``.

    ``qi_total`` folds in the constant ``run.excess_loss`` channel (used to
    emulate a non-equilibrium quasiparticle population); ``qi_theory`` is
    the TLS + thermal-quasiparticle prediction alone. Points are returned in
    ascending temperature, with fr referred to the coldest one.
    """
    run = config.run
    if run.frequency_hz is None or run.temperatures is None:
        raise ConfigError("the loss chain needs run.frequency_hz and run.temperatures")
    temps = np.sort(np.asarray(run.temperatures, dtype=float))
    chain = theory_chain(config, angular_frequency(run.frequency_hz), temps)
    ltot = chain.lg_h_per_m + chain.g_per_m * chain.zs.ls_henry
    fr = run.frequency_hz * np.sqrt(ltot[0] / ltot)
    qi_total = 1.0 / (1.0 / chain.qi_theory + run.excess_loss)
    columns = (temps, fr, chain.q_tls, chain.delta_qp, chain.qi_theory, qi_total)
    return [ChainPoint(*row) for row in zip(*(c.tolist() for c in columns))]


def synth_sweep(config: AnalysisConfig) -> list[S21Trace]:
    """Generate one synthetic trace per configured temperature.

    Reads the forward-model inputs from the material/geometry/tls/fit
    sections and the synthesis knobs (grid, coupling, noise, seed) from the
    run section. Per-trace noise streams are spawned deterministically from
    the single run seed.
    """
    run = config.run
    if run.frequency_hz is None or run.temperatures is None or run.qc_mag is None:
        raise ConfigError(
            "synth sweep needs run.frequency_hz, run.temperatures and run.qc_mag"
        )
    points = loss_chain(config)
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


def calibrate_sweep_config(
    temperatures=None,
    noise_sigma: float = 1e-3,
    npoints: int = 1001,
    seed: int = 0,
    qi_hot: float = 7.421e3,
) -> dict:
    """Build a fully calibrated config document for a reference-style sweep.

    The device is the reference film and CPW at 5.95 GHz and one photon.
    The TLS strength is pinned so Qi(0.12 K) = 1e5 (where quasiparticle
    loss is negligible) and the geometry factor so the combined chain gives
    Qi(2.9 K) = qi_hot. The kinetic-inductance fraction alpha used for
    density conversion is taken from the calibrated chain at the cold end.
    The sigma2 prefactor is ``pi``: with the 4/pi-inflated variant the
    quasiparticle channel cannot reach the warm-anchor loss within the
    physical range alpha <= 1.
    """
    f0_hz, qi_cold, t_cold, t_hot = 5.95e9, 1.0e5, 0.12, 2.9
    n_c, beta_exp, n_photon = 10.0, 0.5, 1.0
    material_doc = {
        "tc_kelvin": 10.7,
        "sheet_resistance_ohm": 159.5,
        "thickness_m": 100e-9,
        "n0_states": 1.86e28,
    }
    geometry_doc = {
        "center_width_m": 4e-6,
        "gap_m": 2e-6,
        "thickness_m": 100e-9,
        "substrate_eps_r": 11.7,
    }
    f_delta0 = tls_f_delta0_for_q(qi_cold, t_cold, f0_hz, n_c, beta_exp, n_photon)
    tls_doc = {"f_delta0": f_delta0, "n_c": n_c, "beta_exp": beta_exp}
    fit_doc = {"sigma2_prefactor": "pi", "gap_model": "bcs_tanh", "n_photon": n_photon}
    probe = config_from_dict({
        "material": {**material_doc, "alpha": 1.0},
        "geometry": geometry_doc,
        "tls": tls_doc,
        "fit": fit_doc,
    })
    omega0 = angular_frequency(f0_hz)
    chain = theory_chain(probe, omega0, [t_cold, t_hot])
    target_delta = 1.0 / qi_hot - 1.0 / chain.q_tls[1]
    if target_delta <= 0:
        raise ValueError("warm anchor is above the TLS-only prediction")
    zs, lg = chain.zs, chain.lg_h_per_m
    rs_hot, ls_hot = float(zs.rs_ohm[1]), float(zs.ls_henry[1])
    headroom = rs_hot - target_delta * omega0 * ls_hot
    if headroom <= 0:
        raise ValueError(
            "target loss exceeds the fully kinetic limit Rs/(omega*Ls) "
            f"= {rs_hot / (omega0 * ls_hot):.3e}"
        )
    g = float(target_delta * omega0 * lg / headroom)
    alpha = float(kinetic_fraction(zs, lg, g)[0])

    if temperatures is None:
        temperatures = [round(v, 4) for v in np.linspace(t_cold, t_hot, 30)]
    return {
        "material": {**material_doc, "alpha": alpha},
        "geometry": geometry_doc,
        "tls": tls_doc,
        "fit": {**fit_doc, "geom_factor_per_m": g},
        "run": {
            "frequency_hz": f0_hz,
            "seed": seed,
            "temperatures": list(temperatures),
            "qc_mag": 1.0e5,
            "noise_sigma": noise_sigma,
            "npoints": npoints,
            "span_linewidths": 10.0,
            "excess_loss": 0.0,
        },
    }


def reference_chain(config_doc: dict) -> list[ChainPoint]:
    """Convenience: loss_chain evaluated from a config document."""
    return loss_chain(config_from_dict(config_doc))
