"""Surface impedance of the film and the CPW quasiparticle loss tangent.

The film's surface impedance Zs = sqrt(j mu0 omega / (sigma1 - j sigma2))
= Rs + j omega Ls is combined with the conformal-mapping geometric
inductance of the coplanar line to form the theoretical quasiparticle loss
tangent. Surface impedance is a per-square quantity while the geometric
inductance is per unit length; an explicit geometry factor g (1/m) converts
between the two (default g = 1/w, the center-strip current concentration
approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU0
from .mbcore import ComplexConductivity


@dataclass(frozen=True)
class CpwGeometry:
    """Coplanar-waveguide cross-section. Lengths in m."""

    center_width_m: float
    gap_m: float
    thickness_m: float
    substrate_eps_r: float
    length_m: float | None = None

    def __post_init__(self) -> None:
        if self.center_width_m <= 0 or self.gap_m <= 0 or self.thickness_m <= 0:
            raise ValueError("all CPW lengths must be positive")
        if self.substrate_eps_r < 1:
            raise ValueError("substrate_eps_r must be >= 1")
        if self.length_m is not None and self.length_m <= 0:
            raise ValueError("length_m must be positive when given")

    @property
    def k0(self) -> float:
        """Conformal-mapping modulus w / (w + 2s), in (0, 1)."""
        return self.center_width_m / (self.center_width_m + 2.0 * self.gap_m)


@dataclass(frozen=True)
class SurfaceImpedance:
    """Per-square surface impedance Rs + j*omega*Ls at angular frequency omega,
    at one temperature or elementwise over an array of them."""

    rs_ohm: float | np.ndarray
    ls_henry: float | np.ndarray
    omega_rad: float

    @property
    def zs(self):
        return self.rs_ohm + 1j * (self.omega_rad * self.ls_henry)


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


def surface_impedance(sigma: ComplexConductivity) -> SurfaceImpedance:
    """Dirty-limit surface impedance from the complex conductivity.

    Zs = sqrt(j mu0 omega / (sigma1 - j sigma2)), principal branch,
    Re(Zs) >= 0. This is the semi-infinite form; no finite-thickness
    correction is applied. A conductivity record over an array of
    temperatures gives Rs and Ls arrays of the same shape.
    """
    s = sigma.sigma
    if np.any(s == 0):
        raise ValueError("conductivity is zero; surface impedance undefined")
    omega = sigma.omega_rad
    zs = np.sqrt(1j * MU0 * omega / s)
    if np.any(zs.real < 0):
        raise ValueError("surface impedance left the principal branch (Re < 0)")
    return SurfaceImpedance(rs_ohm=zs.real, ls_henry=zs.imag / omega, omega_rad=omega)


def qp_loss_theory(
    zs: SurfaceImpedance, lg_h_per_m: float, geom_factor_per_m: float
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
    denom = zs.omega_rad * (zs.ls_henry * geom_factor_per_m + lg_h_per_m)
    if np.any(denom <= 0):
        raise ValueError("non-positive inductive denominator: unphysical inputs")
    return zs.rs_ohm * geom_factor_per_m / denom


def kinetic_fraction(
    zs: SurfaceImpedance, lg_h_per_m: float, geom_factor_per_m: float
):
    """Kinetic-inductance fraction alpha = Ls*g / (Ls*g + Lg)."""
    lk = zs.ls_henry * geom_factor_per_m
    if np.any(lk <= 0) or lg_h_per_m <= 0:
        raise ValueError("inductances must be positive")
    return lk / (lk + lg_h_per_m)
