"""Temperature-sweep orchestration: fit every trace, assemble loss budgets.

Per-temperature fits are independent (no shared mutable state), so they run
on a forked worker pool when the sweep is large enough to pay for one (see
:mod:`.parallel`). Results are merged in ascending temperature order, and a
fit's bits do not depend on the process it ran in, so the report is the
same from the pool and from one process. After the fits, the theory chain,
the loss budgets and the excess loss are each one array call over the
fitted temperatures; no step loops over temperatures.
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
from .parallel import ordered_map


@dataclass
class SweepDataset:
    """Input bundle for one temperature sweep.

    Traces at or above the film's Tc (ascending), then untagged traces, are
    set aside in ``set_aside`` with the reason; the analysis reports each
    one as a failure.
    """

    traces: list[S21Trace]
    material: MaterialParams
    geometry: CpwGeometry
    tls: TlsSettings
    fit: FitSettings = field(default_factory=FitSettings)
    set_aside: list[tuple[S21Trace, str]] = field(init=False)

    def __post_init__(self) -> None:
        tc = self.material.tc_kelvin
        tagged = [tr for tr in self.traces if tr.temperature_k is not None]
        tagged.sort(key=lambda tr: tr.temperature_k)
        self.set_aside = [
            (tr, f"T = {tr.temperature_k} K >= Tc = {tc} K: gap closed, model invalid")
            for tr in tagged if tr.temperature_k >= tc
        ] + [(tr, "no temperature tag") for tr in self.traces if tr.temperature_k is None]
        self.traces = [tr for tr in tagged if tr.temperature_k < tc]
        if len(self.traces) < 2:
            raise InputError("sweep needs at least 2 temperature-tagged traces below Tc")
        for a, b in zip(self.traces, self.traces[1:]):
            if b.temperature_k <= a.temperature_k:
                raise InputError(
                    f"trace temperatures must be distinct: {a.source} and "
                    f"{b.source} are both at {a.temperature_k} K"
                )
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


REDSHIFT_NSIGMA = 3.0
REDSHIFT_REL_FLOOR = 0.01


def _redshift_onset(entries: list[TemperatureEntry]) -> tuple[float | None, float]:
    """First temperature with a significant red shift, and the threshold used.

    The threshold is max(REDSHIFT_NSIGMA * stderr(fr), REDSHIFT_REL_FLOOR *
    largest red shift). The relative floor keeps the onset meaningful when
    synthetic or averaged data drives the fit errors far below any
    physically interesting shift.
    """
    shifts = np.array([e.delta_f_hz for e in entries])
    max_red = float(max(0.0, -shifts.min(initial=0.0)))
    floor = REDSHIFT_REL_FLOOR * max_red
    threshold = floor
    for e in entries:
        thr = max(REDSHIFT_NSIGMA * e.fit.stderr.get("fr_hz", 0.0), floor)
        if e.delta_f_hz < -thr:
            return e.temperature_k, thr
    return None, threshold


def _fit_or_error(trace: S21Trace) -> NotchFitResult | FitError:
    try:
        return fit_notch(trace)
    except FitError as exc:
        return exc


def sweep_analyze(dataset: SweepDataset, provenance: dict | None = None) -> AnalysisReport:
    """Fit every trace and decompose the loss budget per temperature.

    Unfittable and set-aside traces degrade to failure entries; the analysis
    fails only when no trace fits. The reference trace is the coldest
    successful one, or, with ``fit.t_ref_kelvin`` set, the successful trace
    nearest that temperature. The theory chain (conductivity, surface
    impedance, TLS) is evaluated at the reference trace's fitted resonance
    frequency, once over all fitted temperatures, and ``delta_f_hz`` is
    measured from it.
    """
    work_bytes = sum(tr.freq_hz.nbytes + tr.s21.nbytes for tr in dataset.traces)
    results = list(
        zip(dataset.traces, ordered_map(_fit_or_error, dataset.traces, work_bytes))
    )
    fits = [(trace, r) for trace, r in results if not isinstance(r, FitError)]
    failures = [
        FailureEntry(trace.source, trace.temperature_k, str(r))
        for trace, r in results
        if isinstance(r, FitError)
    ] + [FailureEntry(tr.source, tr.temperature_k, why) for tr, why in dataset.set_aside]
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

    temps = [trace.temperature_k for trace, _ in fits]
    qi_measured = [fit.qi for _, fit in fits]
    chain = theory_chain(
        dataset.material, dataset.geometry, dataset.tls, dataset.fit, omega, temps
    )
    budgets = make_budget(
        temps, chain.q_tls, chain.delta_qp, chain.qi_theory, qi_measured,
        dataset.material, omega, dataset.fit.gap_model,
    )
    excess, negative = excess_qp_loss(qi_measured, chain.qi_theory)
    sigma = chain.sigma
    columns = (
        chain.delta_qp, excess, negative,
        sigma.sigma1_norm, sigma.sigma2_norm, sigma.sigma1, sigma.sigma2,
    )
    # the fields after the budget, in TemperatureEntry order
    entries = [
        TemperatureEntry(
            trace.temperature_k, trace.source, fit, fit.params.fr_hz - fr_ref, budget, *row
        )
        for (trace, fit), budget, row in zip(
            fits, budgets, zip(*(c.tolist() for c in columns))
        )
    ]

    lowt_cut = dataset.material.tc_kelvin / 10.0
    plateau_vals = [
        e.budget.nqp_measured_per_um3
        for e in entries
        if e.temperature_k < lowt_cut and e.budget.nqp_measured_per_um3 is not None
    ]
    onset_t, onset_threshold = _redshift_onset(entries)
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
