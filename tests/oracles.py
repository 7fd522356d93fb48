"""Independent reference implementations used only to check the package.

The Bessel oracle evaluates the ascending power series of I0 and K0 in
high-precision decimal arithmetic (pure Python, no scipy), so it shares no
code path with the production implementation. Precision is chosen with
enough headroom to absorb the exp(2x)-scale cancellation in the K0 series
at the top of the tested range.

The conductivity oracle evaluates the full thermal-equilibrium
Mattis-Bardeen integrals by adaptive quadrature, independently of the
closed forms in :mod:`cpwloss.mbcore`.
"""

import math
import warnings
from decimal import Decimal, getcontext

from scipy import integrate

from cpwloss.constants import HBAR_EVS, KB_EV

EULER_GAMMA = Decimal(
    "0.57721566490153286060651209008240243104215933593992"
    "35988057672348848677267776646709369470632917467495"
)


def bessel_k0_i0_reference(x_float: float, prec: int = 130) -> tuple[Decimal, Decimal]:
    """(K0(x), I0(x)) from the ascending series, exact at the float argument."""
    if x_float <= 0:
        raise ValueError("reference series requires x > 0")
    getcontext().prec = prec
    x = Decimal(x_float)
    q = x * x / 4
    term = Decimal(1)
    i0 = Decimal(1)
    harmonic = Decimal(0)
    s2 = Decimal(0)
    tiny = Decimal(10) ** (-(prec - 10))
    k = 0
    while True:
        k += 1
        term = term * q / (k * k)
        harmonic += Decimal(1) / k
        i0 += term
        s2 += term * harmonic
        if term < tiny * i0:
            break
    k0 = -((x / 2).ln() + EULER_GAMMA) * i0 + s2
    return k0, i0


def elliptic_k_series(k: float, terms: int = 200) -> float:
    """K(k) from the hypergeometric series in m = k^2 (slow, small k only)."""
    m = k * k
    total = 0.0
    coef = 1.0
    for n in range(terms):
        if n > 0:
            coef *= ((2 * n - 1) / (2 * n)) ** 2 * m
        total += coef
    return math.pi / 2.0 * total


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
    """Full thermal-equilibrium conductivity integrals (sigma1/sigmaN,
    sigma2/sigmaN), by adaptive quadrature.

    The gap is held at ``delta0_ev``. Integrable square-root edge
    singularities are removed by substitution (E = delta + u^2 for sigma1,
    E = delta - hw*cos^2(theta) for sigma2) before quadrature. A quadrature
    that misses ``rtol`` fails with AssertionError.
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
            raise AssertionError(
                f"conductivity quadrature did not converge at "
                f"T={t_kelvin} K, omega={omega_rad} rad/s: {exc}"
            ) from exc
    for name, val, err in (("sigma1", val1, err1), ("sigma2", val2, err2)):
        if val != 0.0 and err / abs(val) > rtol:
            raise AssertionError(
                f"{name} quadrature error {err:.3e} exceeds rtol*|value| "
                f"({rtol:.1e} * {abs(val):.3e}) at T={t_kelvin} K"
            )
    return (2.0 / hw) * val1, val2 / hw
