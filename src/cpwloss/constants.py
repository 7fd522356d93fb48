"""Physical constants.

Internal unit convention: SI throughout, with energies carried in eV.
Temperatures in K, angular frequencies in rad/s, lengths in m. Frequencies
in Hz are accepted at API boundaries and converted once via
``angular_frequency``.
"""

import math

KB_EV = 8.617333262e-5
"""Boltzmann constant, eV/K."""

HBAR_EVS = 6.582119569e-16
"""Reduced Planck constant, eV*s."""

HBAR_JS = 1.054571817e-34
"""Reduced Planck constant, J*s (used for photon-energy bookkeeping)."""

MU0 = 1.25663706212e-6
"""Vacuum permeability, H/m."""

BCS_GAP_RATIO = 1.76
"""Weak-coupling BCS ratio: delta0 = 1.76 * kB * Tc."""

M3_TO_UM3 = 1e-18
"""Density conversion factor, m^-3 to um^-3."""

CU_KALPHA1_ANGSTROM = 1.5406
"""Cu K-alpha1 X-ray wavelength, Angstrom: the default of ``cpwloss xrd``."""


def angular_frequency(f_hz: float) -> float:
    """Convert a frequency in Hz to an angular frequency in rad/s."""
    return 2.0 * math.pi * f_hz
