"""cpwloss: loss modelling and notch-resonance analysis for superconducting
coplanar-waveguide microwave resonators.

Core layers:

* :mod:`cpwloss.mbcore` - two-fluid (Mattis-Bardeen) complex conductivity.
* :mod:`cpwloss.impedance` - surface impedance, CPW geometric inductance and
  the theoretical quasiparticle loss tangent.
* :mod:`cpwloss.lossmodel` - TLS model, loss budgets, quasiparticle densities.
* :mod:`cpwloss.resfit` - notch-type S21 model and fitting pipeline.
* :mod:`cpwloss.photon` - drive-power and photon-number accounting.
* :mod:`cpwloss.pipeline` - ingestion, DC analysis, sweeps, reports, config.
"""

__version__ = "0.1.0"

from .impedance import (
    CpwGeometry,
    SurfaceImpedance,
    elliptic_k,
    geometric_inductance,
    kinetic_fraction,
    qp_loss_theory,
    surface_impedance,
)
from .lossmodel import (
    LossBudget,
    TlsParams,
    delta_qp_measured,
    excess_qp_loss,
    make_budget,
    nqp_from_loss,
    q_tls,
    qi_theory,
)
from .mbcore import (
    ComplexConductivity,
    MaterialParams,
    complex_conductivity,
    gap_at_temperature,
    gap_at_zero,
    mb_sigma_norm,
)
from .photon import (
    PowerBudget,
    build_power_budget,
    dbm_to_watt,
    photon_number,
    power_for_photons,
    power_loss,
    scattering_mags,
    watt_to_dbm,
)
from .resfit import (
    NotchFitResult,
    NotchParams,
    S21Trace,
    circle_fit,
    estimate_delay,
    fit_notch,
    model_s21,
    synth_trace,
)
