"""Forward model chain: material + geometry + TLS -> Qi(T), fr(T), traces.

Every evaluation of the film and loss model goes through this module.
``film_response`` is the film stage (Mattis-Bardeen conductivity -> surface
impedance). It returns one ``FilmResponse`` record of arrays over the
temperature grid, whose fields are the ``cpwloss mb`` columns after the
temperature; ``cpwloss mb`` prints it. ``theory_chain`` adds the line and
TLS stages (geometric inductance -> quasiparticle loss -> TLS loss -> Qi)
once over an array of temperatures; sweep analysis, ``loss_chain`` and the
calibration build on it. All of them take the whole ``AnalysisConfig`` and
read the sections they need from it. ``synth_sweep`` writes a synthetic
sweep as one trace file per temperature, which ``sweep_analyze`` reads as
it reads a measured one. The module also calibrates the model scale
factors against a pair of (temperature, Qi) anchor points:

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
from pathlib import Path

import numpy as np

from ..constants import HBAR_EVS, KB_EV, angular_frequency
from ..errors import ConfigError
from ..impedance import (
    geometric_inductance,
    kinetic_fraction,
    qp_loss_theory,
    surface_impedance,
)
from ..lossmodel import q_tls, qi_theory
from ..mbcore import mb_sigma_norm, require_below_tc
from ..resfit import NotchParams, synth_trace
from .config import AnalysisConfig, config_from_dict
from .io import write_s21_csv


@dataclass(frozen=True)
class FilmResponse:
    """The film stage over a temperature grid, one array per field:
    normalized and absolute conductivity sigma1 - j*sigma2, and the
    per-square surface impedance Rs + j*omega*Ls."""

    sigma1_norm: np.ndarray
    sigma2_norm: np.ndarray
    sigma1_s_per_m: np.ndarray
    sigma2_s_per_m: np.ndarray
    rs_ohm_sq: np.ndarray
    ls_h_sq: np.ndarray


def film_response(config: AnalysisConfig, omega: float, temps) -> FilmResponse:
    """The config's film at angular frequency omega over an array of
    temperatures, all below Tc; ValueError when a value is not finite (an
    extreme omega overflows the closed forms)."""
    config.require("material")
    material = config.material
    temps = np.asarray(temps, dtype=float)
    require_below_tc(temps, material.tc_kelvin)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value
        s1n, s2n = mb_sigma_norm(
            temps, omega, material.delta0_ev, config.fit.sigma2_prefactor
        )
        s1, s2 = s1n * material.sigma_n, s2n * material.sigma_n
        zs = surface_impedance(s1 - 1j * s2, omega)
        film = FilmResponse(s1n, s2n, s1, s2, zs.real, zs.imag / omega)
        finite = np.isfinite([s1, s2, film.rs_ohm_sq, film.ls_h_sq])
    if not finite.all():
        raise ValueError(f"the film response at omega = {omega!r} rad/s is not finite")
    return film


@dataclass(frozen=True)
class TheoryChain:
    """The loss chain on a temperature grid; every array is over that grid."""

    film: FilmResponse
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
    film = film_response(config, omega, temps)
    lg, g = geometric_inductance(geometry), fit.geom_factor(geometry)
    delta_qp = qp_loss_theory(film.rs_ohm_sq, film.ls_h_sq, omega, lg, g)
    qtls = q_tls(temps, fit.n_photon, config.tls, omega)
    return TheoryChain(film, lg, g, delta_qp, qtls, qi_theory(qtls, delta_qp))


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
    ltot = chain.lg_h_per_m + chain.g_per_m * chain.film.ls_h_sq
    fr = run.frequency_hz * np.sqrt(ltot[0] / ltot)
    qi_total = 1.0 / (1.0 / chain.qi_theory + run.excess_loss)
    columns = (temps, fr, chain.q_tls, chain.delta_qp, chain.qi_theory, qi_total)
    return [ChainPoint(*row) for row in zip(*(c.tolist() for c in columns))]


def synth_sweep(config: AnalysisConfig, out_dir: str | Path) -> list[Path]:
    """Write one synthetic trace file per configured temperature, named
    ``s21_T<T to 4 decimals>K.csv`` in ``out_dir``; returns the paths,
    ascending in T. Two temperatures that give one name are a ConfigError,
    raised before any file is written.

    Reads the forward-model inputs from the material/geometry/tls/fit
    sections and the synthesis knobs (grid, coupling, noise, seed) from the
    run section. Each trace is a notch with phi = 0 on a flat, unit
    baseline. Per-trace noise streams are spawned deterministically from
    the single run seed.
    """
    run = config.run
    if run.frequency_hz is None or run.temperatures is None or run.qc_mag is None:
        raise ConfigError(
            "synth sweep needs run.frequency_hz, run.temperatures and run.qc_mag"
        )
    points = loss_chain(config)
    named: dict[str, float] = {}
    for pt in points:
        name = f"s21_T{pt.temperature_k:.4f}K.csv"
        if name in named:
            raise ConfigError(
                f"run.temperatures {named[name]} K and {pt.temperature_k} K "
                f"would both be written to {name}"
            )
        named[name] = pt.temperature_k
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in named]
    seeds = np.random.SeedSequence(run.seed).spawn(len(points))
    for pt, seed, path in zip(points, seeds, paths):
        ql = 1.0 / (1.0 / pt.qi_total + 1.0 / run.qc_mag)
        params = NotchParams(fr_hz=pt.fr_hz, ql=ql, qc_mag=run.qc_mag, phi_rad=0.0)
        half_span = 0.5 * run.span_linewidths * pt.fr_hz / ql
        grid = np.linspace(pt.fr_hz - half_span, pt.fr_hz + half_span, run.npoints)
        trace = synth_trace(
            params, grid, noise_sigma=run.noise_sigma,
            seed=seed.generate_state(1)[0], temperature_k=pt.temperature_k,
        )
        write_s21_csv(path, trace)
    return paths


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
    film, lg = chain.film, chain.lg_h_per_m
    rs_hot, ls_hot = float(film.rs_ohm_sq[1]), float(film.ls_h_sq[1])
    headroom = rs_hot - target_delta * omega0 * ls_hot
    if headroom <= 0:
        raise ValueError(
            "target loss exceeds the fully kinetic limit Rs/(omega*Ls) "
            f"= {rs_hot / (omega0 * ls_hot):.3e}"
        )
    g = float(target_delta * omega0 * lg / headroom)
    alpha = float(kinetic_fraction(film.ls_h_sq, lg, g)[0])

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
