"""Temperature-sweep orchestration: fit every trace, assemble loss budgets.

``sweep_analyze`` takes the traces and the one ``AnalysisConfig``. It first
sets aside, as failure entries, the traces the model cannot describe (at or
below 0 K, at or above Tc, untagged), and checks that the rest make one
sweep. Per-temperature fits are independent (no shared mutable state), so
they run on a forked worker pool when the sweep is large enough to pay for
one (see :mod:`.parallel`). Results are merged in ascending temperature order, and a
fit's bits do not depend on the process it ran in, so the report is the
same from the pool and from one process. After the fits, the theory chain,
the loss budgets and the excess loss are each one array call over the
fitted temperatures; no step loops over temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import angular_frequency
from ..errors import FitError, InputError
from ..lossmodel import LossBudget, excess_qp_loss, make_budget
from ..resfit import NotchFitResult, S21Trace, fit_notch, median
from .config import AnalysisConfig
from .forward import theory_chain
from .parallel import ordered_map


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


def _partition(
    traces: list[S21Trace], tc: float
) -> tuple[list[S21Trace], list[FailureEntry]]:
    """The traces to fit, ascending in T, and the failures of those set aside
    (T <= 0 K, then T >= Tc, ascending; then untagged); InputError when the
    traces to fit are not one sweep."""
    tagged = sorted(
        (tr for tr in traces if tr.temperature_k is not None),
        key=lambda tr: tr.temperature_k,
    )
    kept = [tr for tr in tagged if 0.0 < tr.temperature_k < tc]

    def reason(t: float) -> str:
        if t <= 0.0:
            return f"T = {t} K <= 0 K: temperature must be positive"
        return f"T = {t} K >= Tc = {tc} K: gap closed, model invalid"

    set_aside = [
        FailureEntry(tr.source, tr.temperature_k, reason(tr.temperature_k))
        for tr in tagged if not 0.0 < tr.temperature_k < tc
    ] + [
        FailureEntry(tr.source, None, "no temperature tag")
        for tr in traces if tr.temperature_k is None
    ]
    if len(kept) < 2:
        raise InputError("sweep needs at least 2 temperature-tagged traces below Tc")
    for a, b in zip(kept, kept[1:]):
        if b.temperature_k <= a.temperature_k:
            raise InputError(
                f"trace temperatures must be distinct: {a.source} and "
                f"{b.source} are both at {a.temperature_k} K"
            )
    powers = [tr.power_dbm for tr in kept if tr.power_dbm is not None]
    if powers and max(powers) - min(powers) > 0.5:
        raise InputError(
            "traces span more than 0.5 dB of drive power; "
            "a sweep must be taken at fixed power"
        )
    return kept, set_aside


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


def sweep_analyze(
    traces: list[S21Trace], config: AnalysisConfig, provenance: dict | None = None
) -> AnalysisReport:
    """Fit every trace and decompose the loss budget per temperature.

    Traces at or below 0 K, at or above the film's Tc and untagged ones are
    set aside; they and the unfittable traces degrade to failure entries,
    and the analysis fails only when no trace fits. The material, geometry
    and tls sections of ``config`` are required. The reference trace is the
    coldest successful one, or, with ``fit.t_ref_kelvin`` set, the
    successful trace nearest that temperature. The theory chain (conductivity, surface
    impedance, TLS) is evaluated at the reference trace's fitted resonance
    frequency, once over all fitted temperatures, and ``delta_f_hz`` is
    measured from it.
    """
    config.require("material", "geometry", "tls")
    traces, set_aside = _partition(traces, config.material.tc_kelvin)
    work_bytes = sum(tr.freq_hz.nbytes + tr.s21.nbytes for tr in traces)
    results = list(zip(traces, ordered_map(_fit_or_error, traces, work_bytes)))
    fits = [(trace, r) for trace, r in results if not isinstance(r, FitError)]
    failures = [
        FailureEntry(trace.source, trace.temperature_k, str(r))
        for trace, r in results
        if isinstance(r, FitError)
    ] + set_aside
    if not fits:
        raise FitError("no trace in the sweep could be fitted")

    t_ref = config.fit.t_ref_kelvin
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
    chain = theory_chain(config, omega, temps)
    budgets = make_budget(
        temps, chain.q_tls, chain.delta_qp, chain.qi_theory, qi_measured,
        config.material, omega, config.fit.gap_model,
    )
    excess, negative = excess_qp_loss(qi_measured, chain.qi_theory)
    film = chain.film
    columns = (
        chain.delta_qp, excess, negative,
        film.sigma1_norm, film.sigma2_norm, film.sigma1_s_per_m, film.sigma2_s_per_m,
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

    lowt_cut = config.material.tc_kelvin / 10.0
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
            median(plateau_vals) if plateau_vals else None
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
