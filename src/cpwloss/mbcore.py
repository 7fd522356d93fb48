"""Two-fluid (Mattis-Bardeen) complex conductivity of a superconducting film.

Implements the low-frequency, low-temperature closed forms for the
normalized conductivity sigma(T) = sigma1(T) - j*sigma2(T) of a
superconductor in the dirty limit, together with the full thermal-equilibrium
integrals evaluated by adaptive quadrature (used as an independent
verification oracle in the test suite).

All functions are pure and thread-safe. Temperatures in K, angular
frequencies in rad/s, energies in eV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .constants import BCS_GAP_RATIO, HBAR_EVS, KB_EV
from .errors import ApproximationWarning, QuadratureError

GAP_MODELS = ("bcs_tanh", "constant")

SIGMA2_PREFACTORS = ("four", "pi")
"""Leading prefactor of the sigma2 closed form.

``four`` uses 4*delta0/(hbar*omega); ``pi`` uses pi*delta0/(hbar*omega),
which matches the zero-temperature limit of the full integral. The two
differ by the constant factor 4/pi; the bracketed thermal correction is
identical.
"""


def gap_at_zero(tc_kelvin: float) -> float:
    """Zero-temperature BCS energy gap 1.76*kB*Tc, in eV."""
    if tc_kelvin < 0:
        raise ValueError(f"critical temperature must be >= 0, got {tc_kelvin}")
    return BCS_GAP_RATIO * KB_EV * tc_kelvin


def gap_at_temperature(
    delta0_ev: float, t_kelvin: float, tc_kelvin: float, model: str = "bcs_tanh"
) -> float:
    """Energy gap delta(T) in eV.

    ``bcs_tanh`` uses the standard interpolation
    delta0 * tanh(1.74 * sqrt(Tc/T - 1)), which is exact at T = 0 and
    closes at Tc. ``constant`` returns delta0 (adequate below Tc/3).
    """
    if model not in GAP_MODELS:
        raise ValueError(f"unknown gap model {model!r}; expected one of {GAP_MODELS}")
    if delta0_ev <= 0:
        raise ValueError("delta0 must be positive")
    if t_kelvin < 0:
        raise ValueError("temperature must be >= 0")
    if t_kelvin >= tc_kelvin:
        raise ValueError(
            f"T = {t_kelvin} K >= Tc = {tc_kelvin} K: gap closed, model invalid"
        )
    if model == "constant" or t_kelvin == 0.0:
        return delta0_ev
    return delta0_ev * math.tanh(1.74 * math.sqrt(tc_kelvin / t_kelvin - 1.0))


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order zero."""
    if np.any(np.asarray(x) <= 0):
        raise ValueError("K0 requires x > 0")
    return special.k0(x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero."""
    x_arr = np.asarray(x)
    if np.any(x_arr < 0):
        raise ValueError("I0 requires x >= 0")
    if np.any(x_arr > 700.0):
        raise OverflowError("I0 overflows double precision for x > 700")
    return special.i0(x)


def modified_bessel(x: float) -> tuple[float, float]:
    """Return (K0(x), I0(x)) for x > 0."""
    return bessel_k0(x), bessel_i0(x)


def _check_regime(hw_ev: float, delta0_ev: float, kt_max_ev: float) -> None:
    if hw_ev >= 2.0 * delta0_ev:
        raise ValueError(
            "hbar*omega >= 2*delta0: photon energy breaks pairs, "
            "the two-fluid closed forms do not apply"
        )
    if hw_ev > delta0_ev / 10.0:
        warnings.warn(
            "hbar*omega > delta0/10: low-frequency approximation is strained",
            ApproximationWarning,
            stacklevel=3,
        )
    if kt_max_ev > delta0_ev / 3.0:
        warnings.warn(
            "kB*T > delta0/3: low-temperature approximation is strained",
            ApproximationWarning,
            stacklevel=3,
        )


def _sigma2_deficit(kt, xi, boltz, delta0_ev: float):
    # boltz = exp(-delta0/kT) and xi = hw/2kT, shared with the sigma1 term
    return np.sqrt(2.0 * np.pi * kt / delta0_ev) * boltz + 2.0 * boltz * special.i0e(xi)


def mb_sigma2_deficit(t_kelvin, omega_rad: float, delta0_ev: float):
    """Thermal pair-breaking deficit of sigma2: 1 - sigma2(T)/sigma2(0).

    Exponentially small at low temperature and computed directly (not via
    1 - bracket), so it stays resolvable in double precision far below the
    point where sigma2 itself rounds to its zero-temperature value.
    """
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    kt = KB_EV * t
    hw = HBAR_EVS * omega_rad
    if hw <= 0 or delta0_ev <= 0:
        raise ValueError("omega and delta0 must be positive")
    xi = hw / (2.0 * kt)
    boltz = np.exp(-delta0_ev / kt)
    deficit = _sigma2_deficit(kt, xi, boltz, delta0_ev)
    return float(deficit) if np.ndim(t_kelvin) == 0 else deficit


def mb_sigma_norm(
    t_kelvin,
    omega_rad: float,
    delta0_ev: float,
    sigma2_prefactor: str = "four",
):
    """Normalized two-fluid conductivity (sigma1/sigmaN, sigma2/sigmaN).

    Valid for hbar*omega << delta0 and kB*T << delta0; warns when either
    precondition is strained (thresholds delta0/10 and delta0/3) and raises
    in the pair-breaking regime hbar*omega >= 2*delta0.

    sigma1/sigmaN = (4 delta0/hw) exp(-delta0/kT) sinh(hw/2kT) K0(hw/2kT);
    sigma2/sigmaN = pref * [1 - sqrt(2 pi kT/delta0) exp(-delta0/kT)
                              - 2 exp(-delta0/kT) exp(-hw/2kT) I0(hw/2kT)],
    with pref = 4 delta0/hw (``four``) or pi delta0/hw (``pi``).
    """
    if sigma2_prefactor not in SIGMA2_PREFACTORS:
        raise ValueError(
            f"unknown sigma2 prefactor {sigma2_prefactor!r}; "
            f"expected one of {SIGMA2_PREFACTORS}"
        )
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    kt = KB_EV * t
    hw = HBAR_EVS * omega_rad
    if hw <= 0 or delta0_ev <= 0:
        raise ValueError("omega and delta0 must be positive")
    _check_regime(hw, delta0_ev, float(np.max(kt, initial=0.0)))

    xi = hw / (2.0 * kt)
    boltz = np.exp(-delta0_ev / kt)
    # sinh(xi) * K0(xi) evaluated with scaled Bessels so large xi cannot
    # overflow: sinh(xi)*K0(xi) = 0.5*(1 - exp(-2 xi)) * k0e(xi).
    sinh_k0 = 0.5 * (1.0 - np.exp(-2.0 * xi)) * special.k0e(xi)
    sigma1 = (4.0 * delta0_ev / hw) * boltz * sinh_k0

    deficit = _sigma2_deficit(kt, xi, boltz, delta0_ev)
    if sigma2_prefactor == "four":
        pref = 4.0 * delta0_ev / hw
    else:
        pref = np.pi * delta0_ev / hw
    sigma2 = pref * (1.0 - deficit)

    if np.ndim(t_kelvin) == 0:
        return float(sigma1), float(sigma2)
    return sigma1, sigma2


def sigma_n_from_sheet(sheet_resistance_ohm: float, thickness_m: float) -> float:
    """Normal-state conductivity 1/(R_square * d), in S/m."""
    if sheet_resistance_ohm <= 0 or thickness_m <= 0:
        raise ValueError("sheet resistance and thickness must be positive")
    return 1.0 / (sheet_resistance_ohm * thickness_m)


@dataclass(frozen=True)
class MaterialParams:
    """Superconducting film constants.

    ``delta0_ev`` defaults to the BCS value 1.76*kB*Tc when not given.
    ``alpha`` is the kinetic-inductance fraction used when converting loss
    tangents to quasiparticle densities; it has no default because it is a
    film- and geometry-specific measured quantity.
    """

    tc_kelvin: float
    sheet_resistance_ohm: float
    thickness_m: float
    n0_states: float
    alpha: float
    delta0_ev: float | None = None
    mean_free_path_m: float | None = None
    coherence_length_m: float | None = None
    penetration_depth_m: float | None = None

    def __post_init__(self) -> None:
        if self.tc_kelvin <= 0:
            raise ValueError("tc_kelvin must be positive")
        if self.sheet_resistance_ohm <= 0:
            raise ValueError("sheet_resistance_ohm must be positive")
        if self.thickness_m <= 0:
            raise ValueError("thickness_m must be positive")
        if self.n0_states <= 0:
            raise ValueError("n0_states must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.delta0_ev is None:
            object.__setattr__(self, "delta0_ev", gap_at_zero(self.tc_kelvin))
        elif self.delta0_ev <= 0:
            raise ValueError("delta0_ev must be positive")

    @property
    def sigma_n(self) -> float:
        """Normal-state conductivity, S/m."""
        return sigma_n_from_sheet(self.sheet_resistance_ohm, self.thickness_m)

    @property
    def dirty_limit(self) -> bool | None:
        """True iff l << xi and l << lambda (threshold: l below a third of
        each). None when any of the three lengths is not provided."""
        lengths = (
            self.mean_free_path_m,
            self.coherence_length_m,
            self.penetration_depth_m,
        )
        if any(v is None for v in lengths):
            return None
        l_mfp, xi, lam = lengths
        return l_mfp < xi / 3.0 and l_mfp < lam / 3.0


@dataclass(frozen=True)
class ComplexConductivity:
    """Normalized and absolute conductivity of the film at angular frequency
    omega, at one temperature or elementwise over an array of them."""

    sigma1_norm: float | np.ndarray
    sigma2_norm: float | np.ndarray
    sigma_n: float
    temperature_k: float | np.ndarray
    omega_rad: float

    @property
    def sigma1(self):
        """Absolute sigma1, S/m."""
        return self.sigma1_norm * self.sigma_n

    @property
    def sigma2(self):
        """Absolute sigma2, S/m."""
        return self.sigma2_norm * self.sigma_n

    @property
    def sigma(self):
        """Complex conductivity sigma1 - j*sigma2, S/m."""
        return self.sigma1 - 1j * self.sigma2


def complex_conductivity(
    params: MaterialParams,
    t_kelvin,
    omega_rad: float,
    sigma2_prefactor: str = "four",
) -> ComplexConductivity:
    """Film conductivity record at angular frequency omega.

    ``t_kelvin`` is one temperature or an array of them; the record's
    conductivity fields then have its shape.
    """
    s1n, s2n = mb_sigma_norm(
        t_kelvin, omega_rad, params.delta0_ev, sigma2_prefactor=sigma2_prefactor
    )
    return ComplexConductivity(
        sigma1_norm=s1n,
        sigma2_norm=s2n,
        sigma_n=params.sigma_n,
        temperature_k=t_kelvin,
        omega_rad=omega_rad,
    )


def _fermi(e_ev: float, kt_ev: float) -> float:
    # exp(-x)/(1+exp(-x)) form avoids the catastrophic cancellation of
    # 0.5*(1 - tanh(x/2)) when e >> kT.
    x = e_ev / kt_ev
    if x >= 0:
        em = math.exp(-min(x, 745.0))
        return em / (1.0 + em)
    return 1.0 / (1.0 + math.exp(x))


def mb_full_oracle(
    t_kelvin: float,
    omega_rad: float,
    delta0_ev: float,
    rtol: float = 1e-8,
) -> tuple[float, float]:
    """Full thermal-equilibrium conductivity integrals, by adaptive quadrature.

    Independent of the closed forms in :func:`mb_sigma_norm`; intended for
    verification in tests, not for production sweeps. The gap is held at
    ``delta0_ev``. Integrable square-root edge singularities are removed by
    substitution (E = delta + u^2 for sigma1, E = delta - hw*cos^2(theta)
    for sigma2) before quadrature.
    """
    if t_kelvin <= 0:
        raise ValueError("temperature must be positive")
    kt = KB_EV * t_kelvin
    hw = HBAR_EVS * omega_rad
    d = delta0_ev
    if hw <= 0 or d <= 0:
        raise ValueError("omega and delta0 must be positive")
    if hw >= 2.0 * d:
        raise ValueError("hbar*omega >= 2*delta0: outside the sub-gap regime")
    # imported here, its only use, so the CLI does not load it at start-up
    from scipy import integrate

    def integrand1(u: float) -> float:
        e = d + u * u
        num = e * e + d * d + hw * e
        den = math.sqrt(e + d) * math.sqrt((e + hw) ** 2 - d * d)
        return 2.0 * (_fermi(e, kt) - _fermi(e + hw, kt)) * num / den

    def integrand2(th: float) -> float:
        c = math.cos(th)
        e = d - hw * c * c
        num = e * e + d * d + hw * e
        den = math.sqrt(d + e) * math.sqrt(e + hw + d)
        return 2.0 * (1.0 - 2.0 * _fermi(e + hw, kt)) * num / den

    u_max = math.sqrt(60.0 * kt + 5.0 * hw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val1, err1 = integrate.quad(
                integrand1, 0.0, u_max, epsabs=0.0, epsrel=rtol * 1e-2, limit=200
            )
            val2, err2 = integrate.quad(
                integrand2, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=rtol * 1e-2, limit=200
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(
                f"conductivity quadrature did not converge at "
                f"T={t_kelvin} K, omega={omega_rad} rad/s: {exc}"
            ) from exc
    for name, val, err in (("sigma1", val1, err1), ("sigma2", val2, err2)):
        if val != 0.0 and err / abs(val) > rtol:
            raise QuadratureError(
                f"{name} quadrature error {err:.3e} exceeds rtol*|value| "
                f"({rtol:.1e} * {abs(val):.3e}) at T={t_kelvin} K"
            )
    return (2.0 / hw) * val1, val2 / hw
