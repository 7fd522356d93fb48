"""Cubic lattice constant from a powder-diffraction peak position (Bragg law)."""

from __future__ import annotations

import math

from ..constants import CU_KALPHA1_ANGSTROM


def lattice_constant(
    two_theta_deg: float,
    hkl: tuple[int, int, int],
    wavelength_angstrom: float = CU_KALPHA1_ANGSTROM,
) -> float:
    """a = lambda * sqrt(h^2 + k^2 + l^2) / (2 sin(theta)), in Angstrom."""
    if not 0.0 < two_theta_deg < 180.0:
        raise ValueError("2*theta must be in (0, 180) degrees")
    h, k, l = (int(v) for v in hkl)
    if h == 0 and k == 0 and l == 0:
        raise ValueError("hkl must not be (0, 0, 0)")
    if wavelength_angstrom <= 0:
        raise ValueError("wavelength must be positive")
    theta = math.radians(two_theta_deg / 2.0)
    return wavelength_angstrom * math.sqrt(h * h + k * k + l * l) / (2.0 * math.sin(theta))
