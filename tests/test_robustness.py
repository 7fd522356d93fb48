"""Robustness matrix of the notch fit: one row per distortion of a clean trace.

Each row fits 40 fixed seeds of one cell, complex noise sigma = 1e-3 per
quadrature, Qi = |Qc| = 1e5 and 1001 points over 10 linewidths unless the
row says otherwise. Every trace must fit, and the Qi pull
(fitted Qi - true Qi) / stderr(Qi) must have a mean within +-0.5 and a
sample standard deviation within 0.7-1.3, about three standard errors of
the sd of 40 unit-normal draws around 1.
"""

import math

import numpy as np
import pytest

from cpwloss.resfit import NotchParams, fit_notch, synth_trace
from conftest import F0_HZ

SEEDS = range(40)
SIGMA = 1e-3
PULL_MEAN_MAX = 0.5
PULL_SD_BAND = (0.7, 1.3)


def qi_pulls(phi=0.0, tau_s=0.0, span_linewidths=10.0, offset=0.0, qc=1e5, qi=1e5):
    """Qi pulls of the row's seeds; ``offset`` puts fr that fraction of the
    span above the grid's center."""
    ql = 1.0 / (1.0 / qi + math.cos(phi) / qc)
    p = NotchParams(fr_hz=F0_HZ, ql=ql, qc_mag=qc, phi_rad=phi, tau_s=tau_s)
    span = span_linewidths * F0_HZ / ql
    center = F0_HZ - offset * span
    f = np.linspace(center - span / 2, center + span / 2, 1001)
    pulls = []
    for seed in SEEDS:
        fit = fit_notch(synth_trace(p, f, SIGMA, seed=seed))
        assert fit.flags == () and math.isfinite(fit.qi)
        pulls.append((fit.qi - p.qi) / fit.stderr["qi"])
    return np.array(pulls)


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param({"phi": 0.4}, id="phi=0.4"),
        pytest.param({"phi": -0.8}, id="phi=-0.8"),
        pytest.param({"tau_s": 60e-9}, id="tau=60ns-span=10"),
        pytest.param({"tau_s": 60e-9, "span_linewidths": 100.0}, id="tau=60ns-span=100"),
        pytest.param({"span_linewidths": 2.0}, id="span=2"),
        pytest.param({"span_linewidths": 3.0}, id="span=3"),
        pytest.param({"span_linewidths": 100.0}, id="span=100"),
        pytest.param({"offset": 0.25}, id="offset=0.25"),
        pytest.param({"offset": 0.40}, id="offset=0.40"),
        # fr half a linewidth from the grid's edge
        pytest.param({"offset": 0.45}, id="offset=0.45"),
        pytest.param({"qc": 1e4}, id="qc=1e4"),
        pytest.param({"qc": 1e5}, id="qc=1e5"),
        pytest.param({"qc": 1e6}, id="qc=1e6"),
        pytest.param({"qc": 1e7}, id="qc=1e7"),
    ],
)
def test_every_trace_fits_with_an_unbiased_qi_pull(cell):
    pulls = qi_pulls(**cell)
    assert abs(pulls.mean()) <= PULL_MEAN_MAX
    lo, hi = PULL_SD_BAND
    assert lo <= pulls.std(ddof=1) <= hi
