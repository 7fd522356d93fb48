"""Configuration document: one JSON file with material/geometry/tls/fit/run sections.

Unknown keys are rejected at every level (typo safety). Sections other than
``material`` are optional at load time; commands validate that the sections
they need are present.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ConfigError
from ..impedance import CpwGeometry
from ..lossmodel import TlsParams
from ..mbcore import GAP_MODELS, SIGMA2_PREFACTORS, MaterialParams


@dataclass(frozen=True)
class TlsSettings:
    """TLS loss parameters independent of frequency; bind omega at use time."""

    f_delta0: float
    n_c: float
    beta_exp: float

    def tls_params(self, omega_rad: float) -> TlsParams:
        return TlsParams(
            f_delta0=self.f_delta0,
            n_c=self.n_c,
            beta_exp=self.beta_exp,
            omega_rad=omega_rad,
        )


@dataclass(frozen=True)
class FitSettings:
    """Model and analysis options.

    ``geom_factor_per_m`` converts per-square surface impedance to a
    per-length line quantity; None selects the default 1/w. The red-shift
    onset threshold is max(redshift_nsigma * stderr(fr),
    redshift_rel_floor * max red shift); both knobs are overridable.
    """

    sigma2_prefactor: str = "four"
    gap_model: str = "bcs_tanh"
    n_photon: float = 1.0
    geom_factor_per_m: float | None = None
    redshift_nsigma: float = 3.0
    redshift_rel_floor: float = 0.01
    t_ref_kelvin: float | None = None

    def __post_init__(self) -> None:
        if self.sigma2_prefactor not in SIGMA2_PREFACTORS:
            raise ConfigError(
                f"fit.sigma2_prefactor must be one of {SIGMA2_PREFACTORS}"
            )
        if self.gap_model not in GAP_MODELS:
            raise ConfigError(f"fit.gap_model must be one of {GAP_MODELS}")
        if self.n_photon < 0:
            raise ConfigError("fit.n_photon must be >= 0")
        if self.geom_factor_per_m is not None and self.geom_factor_per_m <= 0:
            raise ConfigError("fit.geom_factor_per_m must be positive")

    def geom_factor(self, geometry: CpwGeometry) -> float:
        if self.geom_factor_per_m is not None:
            return self.geom_factor_per_m
        return 1.0 / geometry.center_width_m


@dataclass(frozen=True)
class RunSettings:
    """Synthesis and orchestration knobs (used by synth and sweep commands)."""

    frequency_hz: float | None = None
    seed: int = 0
    temperatures: tuple[float, ...] | None = None
    qc_mag: float | None = None
    noise_sigma: float = 0.0
    npoints: int = 2001
    span_linewidths: float = 10.0
    phi_rad: float = 0.0
    amp: float = 1.0
    phase0_rad: float = 0.0
    tau_s: float = 0.0
    excess_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ConfigError("run.noise_sigma must be >= 0")
        if self.npoints < 16:
            raise ConfigError("run.npoints must be >= 16")
        if self.span_linewidths <= 0:
            raise ConfigError("run.span_linewidths must be positive")
        if self.excess_loss < 0:
            raise ConfigError("run.excess_loss must be >= 0")


@dataclass(frozen=True)
class AnalysisConfig:
    material: MaterialParams | None
    geometry: CpwGeometry | None
    tls: TlsSettings | None
    fit: FitSettings
    run: RunSettings
    digest: str

    def require(self, *sections: str) -> None:
        for name in sections:
            if getattr(self, name) is None:
                raise ConfigError(f"config section '{name}' is required here")


_SECTIONS = {
    "material": MaterialParams,
    "geometry": CpwGeometry,
    "tls": TlsSettings,
    "fit": FitSettings,
    "run": RunSettings,
}


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in config section '{name}': {sorted(unknown)}"
        )
    data = dict(payload)
    if name == "run" and isinstance(data.get("temperatures"), list):
        data["temperatures"] = tuple(float(t) for t in data["temperatures"])
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section '{name}': {exc}") from exc


def config_sha256(document: dict) -> str:
    """Digest of the canonical (sorted, compact) JSON form of the document."""
    canon = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_from_dict(document: dict) -> AnalysisConfig:
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(document) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    built: dict[str, object] = {}
    for name, cls in _SECTIONS.items():
        if name in document:
            built[name] = _build_section(name, cls, document[name])
        elif name in ("fit", "run"):
            built[name] = cls()
        else:
            built[name] = None
    return AnalysisConfig(digest=config_sha256(document), **built)


def load_config(path: str | Path) -> AnalysisConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return config_from_dict(document)
