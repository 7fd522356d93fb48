"""Temperature-sweep orchestration: fit every trace, assemble loss budgets.

Per-temperature fits are independent (no shared mutable state) and results
are merged in ascending temperature order; the current implementation runs
them sequentially, which keeps the report deterministic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import angular_frequency
from ..errors import FitError, InputError
from ..impedance import CpwGeometry
from ..lossmodel import LossBudget, excess_qp_loss, make_budget
from ..mbcore import MaterialParams
from ..resfit import NotchFitResult, S21Trace, fit_notch
from .config import AnalysisConfig, FitSettings, TlsSettings
from .forward import theory_chain


@dataclass
class SweepDataset:
    """Input bundle for one temperature sweep."""

    traces: list[S21Trace]
    material: MaterialParams
    geometry: CpwGeometry
    tls: TlsSettings
    fit: FitSettings = field(default_factory=FitSettings)

    def __post_init__(self) -> None:
        tagged = [tr for tr in self.traces if tr.temperature_k is not None]
        if len(tagged) < 2:
            raise InputError("sweep needs at least 2 temperature-tagged traces")
        self.traces = sorted(tagged, key=lambda tr: tr.temperature_k)
        temps = [tr.temperature_k for tr in self.traces]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise InputError("trace temperatures must be distinct")
        powers = [tr.power_dbm for tr in self.traces if tr.power_dbm is not None]
        if powers and max(powers) - min(powers) > 0.5:
            raise InputError(
                "traces span more than 0.5 dB of drive power; "
                "a sweep must be taken at fixed power"
            )


def dataset_from_config(traces: list[S21Trace], config: AnalysisConfig) -> SweepDataset:
    config.require("material", "geometry", "tls")
    return SweepDataset(
        traces=list(traces),
        material=config.material,
        geometry=config.geometry,
        tls=config.tls,
        fit=config.fit,
    )


@dataclass(frozen=True)
class TemperatureEntry:
    """Everything derived for one temperature."""

    temperature_k: float
    source: str | None
    fit: NotchFitResult
    delta_f_hz: float
    budget: LossBudget
    delta_qp_theory: float
    excess_loss: float
    excess_negative: bool
    sigma1_norm: float
    sigma2_norm: float
    sigma1_s_per_m: float
    sigma2_s_per_m: float


@dataclass(frozen=True)
class FailureEntry:
    source: str | None
    temperature_k: float | None
    error: str


@dataclass
class AnalysisReport:
    entries: list[TemperatureEntry]
    failures: list[FailureEntry]
    derived: dict
    provenance: dict


def _redshift_onset(
    entries: list[TemperatureEntry], nsigma: float, rel_floor: float
) -> tuple[float | None, float]:
    """First temperature with a significant red shift, and the threshold used.

    The threshold combines the per-point fit uncertainty (nsigma * stderr)
    with a relative floor tied to the largest observed red shift; the floor
    keeps the onset meaningful when synthetic or averaged data drives the
    fit errors far below any physically interesting shift.
    """
    shifts = np.array([e.delta_f_hz for e in entries])
    max_red = float(max(0.0, -shifts.min(initial=0.0)))
    floor = rel_floor * max_red
    threshold = floor
    for e in entries:
        thr = max(nsigma * e.fit.stderr.get("fr_hz", 0.0), floor)
        if e.delta_f_hz < -thr:
            return e.temperature_k, thr
    return None, threshold


def sweep_analyze(dataset: SweepDataset, provenance: dict | None = None) -> AnalysisReport:
    """Fit every trace and decompose the loss budget per temperature.

    Unfittable traces degrade to failure entries; the analysis fails only
    when no trace fits. The reference trace is the coldest successful one,
    or, with ``fit.t_ref_kelvin`` set, the successful trace nearest that
    temperature. The theory chain (conductivity, surface impedance, TLS)
    is evaluated at the reference trace's fitted resonance frequency, once
    over all fitted temperatures, and ``delta_f_hz`` is measured from it.
    """
    fits: list[tuple[S21Trace, NotchFitResult]] = []
    failures: list[FailureEntry] = []
    for trace in dataset.traces:
        try:
            fits.append((trace, fit_notch(trace)))
        except FitError as exc:
            failures.append(
                FailureEntry(
                    source=trace.source,
                    temperature_k=trace.temperature_k,
                    error=str(exc),
                )
            )
    if not fits:
        raise FitError("no trace in the sweep could be fitted")

    t_ref = dataset.fit.t_ref_kelvin
    if t_ref is None:
        ref_trace, ref_fit = fits[0]
    else:
        ref_trace, ref_fit = min(
            fits, key=lambda pair: abs(pair[0].temperature_k - t_ref)
        )
    fr_ref = ref_fit.params.fr_hz
    omega = angular_frequency(fr_ref)

    chain = theory_chain(
        dataset.material,
        dataset.geometry,
        dataset.tls,
        dataset.fit,
        omega,
        [trace.temperature_k for trace, _ in fits],
    )
    sigma = chain.sigma
    columns = (
        chain.q_tls,
        chain.delta_qp,
        sigma.sigma1_norm,
        sigma.sigma2_norm,
        sigma.sigma1,
        sigma.sigma2,
    )
    entries: list[TemperatureEntry] = []
    for (trace, fit), (qtls, delta_qp, s1n, s2n, s1, s2) in zip(
        fits, zip(*(c.tolist() for c in columns))
    ):
        t = trace.temperature_k
        budget = make_budget(
            t_kelvin=t,
            q_tls_value=qtls,
            delta_qp_theory=delta_qp,
            qi_measured=fit.qi,
            material=dataset.material,
            omega_rad=omega,
            gap_model=dataset.fit.gap_model,
        )
        excess, negative = excess_qp_loss(budget)
        entries.append(
            TemperatureEntry(
                temperature_k=t,
                source=trace.source,
                fit=fit,
                delta_f_hz=fit.params.fr_hz - fr_ref,
                budget=budget,
                delta_qp_theory=delta_qp,
                excess_loss=excess,
                excess_negative=negative,
                sigma1_norm=s1n,
                sigma2_norm=s2n,
                sigma1_s_per_m=s1,
                sigma2_s_per_m=s2,
            )
        )

    lowt_cut = dataset.material.tc_kelvin / 10.0
    plateau_vals = [
        e.budget.nqp_measured_per_um3
        for e in entries
        if e.temperature_k < lowt_cut and e.budget.nqp_measured_per_um3 is not None
    ]
    onset_t, onset_threshold = _redshift_onset(
        entries, dataset.fit.redshift_nsigma, dataset.fit.redshift_rel_floor
    )
    n_excess_lowt = sum(
        1 for e in entries if e.temperature_k < lowt_cut and e.excess_loss > 0.0
    )
    derived = {
        "reference_temperature_k": ref_trace.temperature_k,
        "reference_fr_hz": fr_ref,
        "nqp_plateau_per_um3": (
            float(np.median(plateau_vals)) if plateau_vals else None
        ),
        "nqp_plateau_points": len(plateau_vals),
        "redshift_onset_k": onset_t,
        "redshift_threshold_hz": onset_threshold,
        "excess_positive_below_tc_over_10": n_excess_lowt,
        "negative_loss_points": sum(1 for e in entries if e.budget.negative_loss),
    }
    return AnalysisReport(
        entries=entries,
        failures=failures,
        derived=derived,
        provenance=provenance or {},
    )
