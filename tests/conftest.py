import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cpwloss.constants import angular_frequency
from cpwloss.impedance import CpwGeometry
from cpwloss.mbcore import MaterialParams
from cpwloss.pipeline import parallel
from cpwloss.pipeline.config import AnalysisConfig, FitSettings, RunSettings
from cpwloss.pipeline.forward import film_response
from cpwloss.resfit import NotchParams

F0_HZ = 5.95e9
OMEGA0 = angular_frequency(F0_HZ)


@contextlib.contextmanager
def two_cpus(min_bytes_per_worker=None):
    """Two usable CPUs for ``parallel.ordered_map``, also on a one-CPU host,
    and the size rule's MIN_BYTES_PER_WORKER when given; yields the pids
    forked in this process."""
    real, forks = os.fork, []

    def fork():
        forks.append(real())
        return forks[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(os, "fork", fork)
        if min_bytes_per_worker is not None:
            m.setattr(parallel, "MIN_BYTES_PER_WORKER", min_bytes_per_worker)
        yield forks


def film(material: MaterialParams, temps, omega=OMEGA0, sigma2_prefactor="four"):
    """The film stage of ``material`` alone over ``temps``."""
    fit = FitSettings(sigma2_prefactor=sigma2_prefactor)
    config = AnalysisConfig(material, None, None, fit, RunSettings(), digest="")
    return film_response(config, omega, temps)


@pytest.fixture(scope="session")
def nbn_film() -> MaterialParams:
    """100 nm NbN-like film: Tc 10.7 K, 159.5 ohm/sq, N0 1.86e28 /(m^3 eV)."""
    return MaterialParams(
        tc_kelvin=10.7,
        sheet_resistance_ohm=159.5,
        thickness_m=100e-9,
        n0_states=1.86e28,
        alpha=0.5,
    )


@pytest.fixture(scope="session")
def cpw_geometry() -> CpwGeometry:
    """4 um center strip, 2 um gaps, on high-resistivity silicon."""
    return CpwGeometry(
        center_width_m=4e-6,
        gap_m=2e-6,
        thickness_m=100e-9,
        substrate_eps_r=11.7,
    )


@pytest.fixture(scope="session")
def operating_point() -> NotchParams:
    """Notch parameters matching the 5.95 GHz resonator near 1 K."""
    qi, qc, phi = 2.571e5, 1e5, 0.2
    ql = 1.0 / (1.0 / qi + np.cos(phi) / qc)
    return NotchParams(
        fr_hz=F0_HZ,
        ql=ql,
        qc_mag=qc,
        phi_rad=phi,
        amp=0.8,
        phase0_rad=0.7,
        tau_s=30e-9,
    )


def default_grid(p: NotchParams, span_linewidths: float = 10.0, n: int = 2001):
    half = 0.5 * span_linewidths * p.fr_hz / p.ql
    return np.linspace(p.fr_hz - half, p.fr_hz + half, n)
