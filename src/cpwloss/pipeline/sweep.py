"""Temperature-sweep orchestration: read and fit each file, build loss budgets.

``sweep_analyze`` takes the sweep's trace files (a synthetic sweep is
written to files first, by ``forward.synth_sweep``) and the one
``AnalysisConfig``. It makes one pass per file, as one map: read the bytes,
take their sha256, parse the trace and fit it, unless the trace is untagged
or tagged at or below 0 K or at or above Tc. Files are independent, so the
map runs on this process and forked workers when they are large enough to
pay for them (see :mod:`.parallel`); a worker sends back each trace's tags,
digest and fit, never its arrays. The set-aside traces become failure
entries, and the checks that the rest make one sweep come after the map.
Results are merged in ascending temperature order, and a fit's bits do not
depend on the process it ran in, so the report is the same either way. After
the fits, the theory chain, the loss budget and the excess loss are each one
array call over the fitted temperatures; no step loops over temperatures.
The results stay arrays over those temperatures in the ``AnalysisReport``;
the report writer alone turns them into per-temperature rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import __version__
from ..constants import angular_frequency
from ..errors import FitError, InputError
from ..lossmodel import excess_qp_loss, make_budget
from ..resfit import NotchFitResult, fit_notch, median
from .config import AnalysisConfig
from .forward import FilmResponse, theory_chain
from .io import ingest_s21, read_bytes
from .parallel import ordered_map


class TraceTags(NamedTuple):
    """What a sweep keeps of a trace file besides its fit."""

    source: str
    temperature_k: float | None
    power_dbm: float | None


@dataclass(frozen=True)
class FailureEntry:
    source: str
    temperature_k: float | None
    error: str


@dataclass
class AnalysisReport:
    """A sweep's results: the fitted (tags, fit) pairs, ascending in T, and
    one array element per pair in every array and in the film response."""

    fits: list[tuple[TraceTags, NotchFitResult]]
    delta_f_hz: np.ndarray
    budget: dict[str, np.ndarray]
    delta_qp_theory: np.ndarray
    excess_loss: np.ndarray
    excess_negative: np.ndarray
    film: FilmResponse
    failures: list[FailureEntry]
    derived: dict
    provenance: dict


def _partition(
    results: list[tuple[TraceTags, NotchFitResult | FitError | None]], tc: float
) -> tuple[list[tuple[TraceTags, NotchFitResult | FitError]], list[FailureEntry]]:
    """The (tags, fit) pairs to use, ascending in T, and the failures of the
    traces set aside, whose fit is None (T <= 0 K, then T >= Tc, ascending;
    then untagged); InputError when the pairs to use are not one sweep."""
    tagged = sorted(
        (pair for pair in results if pair[0].temperature_k is not None),
        key=lambda pair: pair[0].temperature_k,
    )
    kept = [pair for pair in tagged if pair[1] is not None]

    def reason(t: float) -> str:
        if t <= 0.0:
            return f"T = {t} K <= 0 K: temperature must be positive"
        return f"T = {t} K >= Tc = {tc} K: gap closed, model invalid"

    set_aside = [
        FailureEntry(tags.source, tags.temperature_k, reason(tags.temperature_k))
        for tags, fit in tagged if fit is None
    ] + [
        FailureEntry(tags.source, None, "no temperature tag")
        for tags, _ in results if tags.temperature_k is None
    ]
    if len(kept) < 2:
        raise InputError("sweep needs at least 2 temperature-tagged traces below Tc")
    for (a, _), (b, _) in zip(kept, kept[1:]):
        if b.temperature_k <= a.temperature_k:
            raise InputError(
                f"trace temperatures must be distinct: {a.source} and "
                f"{b.source} are both at {a.temperature_k} K"
            )
    powers = [tr.power_dbm for tr, _ in kept if tr.power_dbm is not None]
    if powers and max(powers) - min(powers) > 0.5:
        raise InputError(
            "traces span more than 0.5 dB of drive power; "
            "a sweep must be taken at fixed power"
        )
    return kept, set_aside


REDSHIFT_NSIGMA = 3.0
REDSHIFT_REL_FLOOR = 0.01


def _redshift_onset(temps, shifts, fr_stderr, ref_stderr) -> tuple[float | None, float]:
    """First temperature with a significant red shift, and the threshold used.

    A shift is the difference of two fitted frequencies, so its error
    combines both: the threshold is max(REDSHIFT_NSIGMA * sqrt(stderr(fr)^2
    + stderr(fr_ref)^2), REDSHIFT_REL_FLOOR * largest red shift). The
    relative floor keeps the onset meaningful when synthetic or averaged
    data drives the fit errors far below any physically interesting shift.
    """
    max_red = float(max(0.0, -shifts.min(initial=0.0)))
    floor = REDSHIFT_REL_FLOOR * max_red
    thresholds = np.maximum(REDSHIFT_NSIGMA * np.hypot(fr_stderr, ref_stderr), floor)
    hits = np.flatnonzero(shifts < -thresholds)
    if hits.size:
        return float(temps[hits[0]]), float(thresholds[hits[0]])
    return None, floor


def _read_and_fit(path: str | Path, tc: float):
    """One sweep file: its tags, the sha256 of its bytes, and its fit, a
    ``FitError``, or None when the trace is set aside: untagged, or tagged
    outside (0, Tc)."""
    data = read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    trace = ingest_s21(path, data=data)
    tags = TraceTags(trace.source, trace.temperature_k, trace.power_dbm)
    if tags.temperature_k is None or not 0.0 < tags.temperature_k < tc:
        return tags, digest, None
    try:
        return tags, digest, fit_notch(trace)
    except FitError as exc:
        return tags, digest, exc


def sweep_analyze(paths: list[str | Path], config: AnalysisConfig) -> AnalysisReport:
    """Read and fit every trace file and decompose the loss budget per temperature.

    Each file is read by its suffix (``io.ingest_s21``), hashed and fitted
    in one step of one map, in this process or a forked worker when the
    files are large enough. The report's provenance names the tool, its
    version and the config digest, and lists each file's path and sha256 in
    input order. Traces at or below 0 K, at or above the film's Tc and
    untagged ones are set aside unfitted; they and the unfittable traces
    degrade to failure entries, and the analysis fails only when no trace
    fits. The material, geometry and tls sections of ``config`` are
    required. The reference trace is the coldest successful one, or, with
    ``fit.t_ref_kelvin`` set, the successful trace nearest that temperature.
    The theory chain (conductivity, surface impedance, TLS) is evaluated at
    the reference trace's fitted resonance frequency, once over all fitted
    temperatures, and ``delta_f_hz`` is measured from it.
    """
    config.require("material", "geometry", "tls")
    tc = config.material.tc_kelvin
    # a file that cannot be stat'ed counts 0 bytes: reading it in the map fails
    sizes = [p.stat().st_size if p.is_file() else 0 for p in map(Path, paths)]
    results = ordered_map(partial(_read_and_fit, tc=tc), paths, sizes)
    provenance = {
        "tool": "cpwloss",
        "tool_version": __version__,
        "config_sha256": config.digest,
        "inputs": [
            {"path": str(path), "sha256": digest}
            for path, (_, digest, _) in zip(paths, results)
        ],
    }
    kept, set_aside = _partition([(tags, fit) for tags, _, fit in results], tc)
    fits = [(tags, r) for tags, r in kept if not isinstance(r, FitError)]
    failures = [
        FailureEntry(tags.source, tags.temperature_k, str(r))
        for tags, r in kept
        if isinstance(r, FitError)
    ] + set_aside
    if not fits:
        raise FitError("no trace in the sweep could be fitted")

    t_ref = config.fit.t_ref_kelvin
    if t_ref is None:
        ref_tags, ref_fit = fits[0]
    else:
        ref_tags, ref_fit = min(
            fits, key=lambda pair: abs(pair[0].temperature_k - t_ref)
        )
    fr_ref = ref_fit.params.fr_hz
    omega = angular_frequency(fr_ref)

    temps = np.array([tags.temperature_k for tags, _ in fits])
    qi_measured = np.array([fit.qi for _, fit in fits])
    chain = theory_chain(config, omega, temps)
    budget = make_budget(
        temps, chain.q_tls, chain.delta_qp, chain.qi_theory, qi_measured,
        config.material, omega, config.fit.gap_model,
    )
    excess, negative = excess_qp_loss(qi_measured, chain.qi_theory)
    delta_f = np.array([fit.params.fr_hz for _, fit in fits]) - fr_ref
    fr_stderr = np.array([fit.stderr.get("fr_hz", 0.0) for _, fit in fits])

    low_t = temps < config.material.tc_kelvin / 10.0
    nqp = budget["nqp_measured_per_um3"]
    plateau = nqp[low_t & ~np.isnan(nqp)]
    onset_t, onset_threshold = _redshift_onset(
        temps, delta_f, fr_stderr, ref_fit.stderr.get("fr_hz", 0.0)
    )
    derived = {
        "reference_temperature_k": ref_tags.temperature_k,
        "reference_fr_hz": fr_ref,
        "nqp_plateau_per_um3": median(plateau) if plateau.size else None,
        "nqp_plateau_points": plateau.size,
        "redshift_onset_k": onset_t,
        "redshift_threshold_hz": onset_threshold,
        "excess_positive_below_tc_over_10": int(np.count_nonzero(low_t & (excess > 0.0))),
        "negative_loss_points": int(np.count_nonzero(budget["negative_loss"])),
    }
    return AnalysisReport(
        fits=fits,
        delta_f_hz=delta_f,
        budget=budget,
        delta_qp_theory=chain.delta_qp,
        excess_loss=excess,
        excess_negative=negative,
        film=chain.film,
        failures=failures,
        derived=derived,
        provenance=provenance,
    )
