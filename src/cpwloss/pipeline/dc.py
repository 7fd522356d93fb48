"""DC transport analysis: Tc, normal-state sheet resistance and RRR.

Tc is taken at the temperature where R(T) first reaches 50% of the
normal-state plateau while warming; the plateau is the median of R over
[Tc + 2 K, Tc + 20 K] after a coarse first pass. The 10% and 90% crossings
are reported as the transition width. RRR = R(300 K) / R(plateau); it is
None (with a warning) when the series does not reach 295 K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DataQualityWarning, InputError
from ..resfit import median


@dataclass(frozen=True)
class DcExtraction:
    tc_kelvin: float
    r_sq_tc_ohm: float
    rrr: float | None
    t10_kelvin: float
    t90_kelvin: float


def _first_crossing(t: np.ndarray, r: np.ndarray, level: float) -> float:
    """Temperature of the first upward crossing of ``level``, interpolated."""
    above = r >= level
    if above[0]:
        return float(t[0])
    idx = np.argmax(above)
    if not above[idx]:
        raise InputError("resistance never reaches the requested level")
    t0, t1 = t[idx - 1], t[idx]
    r0, r1 = r[idx - 1], r[idx]
    if r1 == r0:
        return float(t1)
    return float(t0 + (level - r0) * (t1 - t0) / (r1 - r0))


def extract_tc_rrr(t_kelvin: np.ndarray, r_ohm: np.ndarray) -> DcExtraction:
    """Extract (Tc, R_square(Tc), RRR) from an ascending R(T) series."""
    t = np.asarray(t_kelvin, dtype=float)
    r = np.asarray(r_ohm, dtype=float)
    if t.size != r.size or t.size < 4:
        raise InputError("R(T) series needs at least 4 matched points")
    if np.any(np.diff(t) <= 0):
        raise InputError("temperatures must be strictly ascending")

    plateau_coarse = float(np.max(r))
    if plateau_coarse <= 0:
        raise InputError("series has no normal-state resistance")
    if np.min(r) > 0.1 * plateau_coarse:
        raise InputError(
            "no superconducting transition found "
            "(resistance never drops below 10% of the plateau)"
        )
    tc_coarse = _first_crossing(t, r, 0.5 * plateau_coarse)

    window = (t >= tc_coarse + 2.0) & (t <= tc_coarse + 20.0)
    plateau = median(r[window]) if np.any(window) else plateau_coarse
    tc = _first_crossing(t, r, 0.5 * plateau)
    t10 = _first_crossing(t, r, 0.1 * plateau)
    t90 = _first_crossing(t, r, 0.9 * plateau)

    if t[-1] >= 295.0:
        r300 = float(np.interp(min(300.0, t[-1]), t, r))
        rrr = r300 / plateau
    else:
        warnings.warn(
            "series does not reach 295 K; RRR unavailable",
            DataQualityWarning,
            stacklevel=2,
        )
        rrr = None
    return DcExtraction(
        tc_kelvin=tc, r_sq_tc_ohm=plateau, rrr=rrr, t10_kelvin=t10, t90_kelvin=t90
    )
