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

Names are imported from their modules, e.g.
``from cpwloss.resfit import fit_notch``.
"""

__version__ = "0.1.0"
