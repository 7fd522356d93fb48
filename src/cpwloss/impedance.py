"""Surface impedance of the film and the CPW quasiparticle loss tangent.

The film's surface impedance Zs = sqrt(j mu0 omega / (sigma1 - j sigma2))
= Rs + j omega Ls is combined with the conformal-mapping geometric
inductance of the coplanar line to form the theoretical quasiparticle loss
tangent. Surface impedance is a per-square quantity while the geometric
inductance is per unit length; an explicit geometry factor g (1/m) converts
between the two (default g = 1/w, the center-strip current concentration
approximation). The film functions take and return plain arrays (or
scalars), elementwise over temperature; ``pipeline.forward.film_response``
holds their film-stage results in one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU0


@dataclass(frozen=True)
class CpwGeometry:
    """Coplanar-waveguide cross-section. Lengths in m."""

    center_width_m: float
    gap_m: float
    thickness_m: float
    substrate_eps_r: float

    def __post_init__(self) -> None:
        if self.center_width_m <= 0 or self.gap_m <= 0 or self.thickness_m <= 0:
            raise ValueError("all CPW lengths must be positive")
        if self.substrate_eps_r < 1:
            raise ValueError("substrate_eps_r must be >= 1")

    @property
    def k0(self) -> float:
        """Conformal-mapping modulus w / (w + 2s), in (0, 1)."""
        return self.center_width_m / (self.center_width_m + 2.0 * self.gap_m)


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), by AGM iteration.

    The arithmetic-geometric mean converges quadratically; the result is
    accurate to machine precision for 0 <= k < 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
    a = 1.0
    b = math.sqrt(1.0 - k * k)
    # quadratic convergence: a handful of iterations reach 1 ulp, after
    # which a and b may dither without ever satisfying a strict tolerance
    for _ in range(60):
        if abs(a - b) <= 2.0 * math.ulp(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def geometric_inductance(geom: CpwGeometry) -> float:
    """Geometric inductance per unit length of the CPW, H/m.

    Lg = (mu0/4) * K(k0') / K(k0) with k0 = w/(w+2s), k0' = sqrt(1-k0^2).
    Depends only on the w/(w+2s) ratio, not on the absolute scale.
    """
    k0 = geom.k0
    if not 0.0 < k0 < 1.0:
        raise ValueError("degenerate CPW geometry: w/(w+2s) must be in (0, 1)")
    k0p = math.sqrt(1.0 - k0 * k0)
    return (MU0 / 4.0) * elliptic_k(k0p) / elliptic_k(k0)


def surface_impedance(sigma, omega_rad: float):
    """Dirty-limit surface impedance Zs = Rs + j*omega*Ls from the complex
    conductivity sigma = sigma1 - j*sigma2 in S/m, elementwise.

    Zs = sqrt(j mu0 omega / sigma), principal branch, Re(Zs) >= 0. This is
    the semi-infinite form; no finite-thickness correction is applied.
    """
    if np.any(sigma == 0):
        raise ValueError("conductivity is zero; surface impedance undefined")
    return np.sqrt(1j * MU0 * omega_rad / sigma)


def qp_loss_theory(
    rs_ohm, ls_henry, omega_rad: float, lg_h_per_m: float, geom_factor_per_m: float
):
    """Theoretical quasiparticle loss tangent of the loaded line.

    delta_qp = Rs*g / (omega * (Ls*g + Lg)) where g converts the per-square
    surface impedance into a per-unit-length line impedance. With g = 1 and
    units ignored this reduces to the bare Rs / (omega*(Ls + Lg)) form.
    """
    if lg_h_per_m <= 0:
        raise ValueError("geometric inductance must be positive")
    if geom_factor_per_m <= 0:
        raise ValueError("geometry factor must be positive")
    denom = omega_rad * (ls_henry * geom_factor_per_m + lg_h_per_m)
    if np.any(denom <= 0):
        raise ValueError("non-positive inductive denominator: unphysical inputs")
    return rs_ohm * geom_factor_per_m / denom


def kinetic_fraction(ls_henry, lg_h_per_m: float, geom_factor_per_m: float):
    """Kinetic-inductance fraction alpha = Ls*g / (Ls*g + Lg)."""
    lk = ls_henry * geom_factor_per_m
    if np.any(lk <= 0) or lg_h_per_m <= 0:
        raise ValueError("inductances must be positive")
    return lk / (lk + lg_h_per_m)
