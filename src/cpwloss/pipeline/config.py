"""Configuration document: one JSON file with material/geometry/tls/fit/run sections.

Each section builds one record: ``material`` a ``mbcore.MaterialParams``,
``geometry`` an ``impedance.CpwGeometry``, ``tls`` a ``lossmodel.TlsParams``,
``fit`` a ``FitSettings`` and ``run`` a ``RunSettings``. ``AnalysisConfig``
holds them, and the analysis chain takes it as one argument. Unknown keys
are rejected at every level (typo safety), and so is a value whose JSON type
does not match its field's annotation. Sections other than ``fit`` and
``run`` may be absent at load time; the code that needs a section checks
for it with ``AnalysisConfig.require``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ConfigError
from ..impedance import CpwGeometry
from ..lossmodel import TlsParams
from ..mbcore import GAP_MODELS, SIGMA2_PREFACTORS, MaterialParams
from ..resfit import MIN_POINTS


@dataclass(frozen=True)
class FitSettings:
    """Model and analysis options.

    ``geom_factor_per_m`` converts per-square surface impedance to a
    per-length line quantity; None selects the default 1/w.
    """

    sigma2_prefactor: str = "four"
    gap_model: str = "bcs_tanh"
    n_photon: float = 1.0
    geom_factor_per_m: float | None = None
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
        if self.t_ref_kelvin is not None and not self.t_ref_kelvin > 0:
            raise ConfigError("fit.t_ref_kelvin must be positive")

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
    excess_loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("frequency_hz", "qc_mag"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"run.{name} must be positive")
        if self.seed < 0:
            raise ConfigError("run.seed must be >= 0")
        if self.temperatures is not None and not (
            self.temperatures and all(t > 0 for t in self.temperatures)
        ):
            raise ConfigError("run.temperatures must be non-empty and positive")
        if self.noise_sigma < 0:
            raise ConfigError("run.noise_sigma must be >= 0")
        if self.npoints < MIN_POINTS:
            raise ConfigError(f"run.npoints must be >= {MIN_POINTS}")
        if self.span_linewidths <= 0:
            raise ConfigError("run.span_linewidths must be positive")
        if self.excess_loss < 0:
            raise ConfigError("run.excess_loss must be >= 0")


@dataclass(frozen=True)
class AnalysisConfig:
    material: MaterialParams | None
    geometry: CpwGeometry | None
    tls: TlsParams | None
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
    "tls": TlsParams,
    "fit": FitSettings,
    "run": RunSettings,
}


_WANTED = {"int": "an integer", "float": "a finite number", "str": "a string",
           "tuple[float, ...]": "an array of finite numbers"}
_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def _number(value) -> bool:
    """Whether a JSON value is a finite number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _typed(where: str, value, annotation: str):
    """``value`` if it has the JSON type of a field annotated ``annotation``
    (an array becomes a tuple of floats); ConfigError otherwise."""
    wanted, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return value
    if wanted == "tuple[float, ...]" and isinstance(value, (list, tuple)):
        if all(map(_number, value)):
            return tuple(float(t) for t in value)
    elif wanted == "float" and _number(value) or wanted == "str" and isinstance(value, str):
        return value
    elif wanted == "int" and isinstance(value, int) and not isinstance(value, bool):
        return value
    kind = _JSON_TYPES.get(type(value), type(value).__name__)
    shown = f" {json.dumps(value)}" if kind in ("boolean", "number", "string") else ""
    raise ConfigError(f"{where} must be {_WANTED[wanted]}, got JSON {kind}{shown}")


def _build_section(name: str, cls, payload: dict):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    # the annotations are strings (postponed evaluation in every record's module)
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(payload) - set(annotations)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in config section '{name}': {sorted(unknown)}"
        )
    data = {k: _typed(f"{name}.{k}", v, annotations[k]) for k, v in payload.items()}
    try:
        return cls(**data)
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object of a config file. A key given twice is a ConfigError:
    json.loads alone keeps the last value, and the digest would not show
    that the file differs."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> AnalysisConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"config {p}: {exc}") from exc
    return config_from_dict(document)
