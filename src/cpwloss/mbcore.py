"""Two-fluid (Mattis-Bardeen) complex conductivity of a superconducting film.

Implements the low-frequency, low-temperature closed forms for the
normalized conductivity sigma(T) = sigma1(T) - j*sigma2(T) of a
superconductor in the dirty limit, evaluated with the scaled Bessel
functions ``k0e`` and ``i0e``. The quadrature of the full integrals that
checks these closed forms lives with the tests, in ``tests/oracles.py``.
The film stage, ``pipeline.forward.film_response``, scales them by the
normal-state conductivity of ``MaterialParams`` and turns them into a
surface impedance.

All functions are pure and thread-safe. Temperatures in K, angular
frequencies in rad/s, energies in eV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import BCS_GAP_RATIO, HBAR_EVS, KB_EV
from .errors import ApproximationWarning

# Cephes Chebyshev tables (Moshier 1989; numpy's i0 ships the same I0 ones),
# highest order first: I0 on [0, 8] and (8, inf), K0 on (0, 2] and (2, inf)
_I0_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)
_K0_A = (
    1.37446543561352307156E-16, 4.25981614279661018399E-14, 1.03496952576338420167E-11,
    1.90451637722020886025E-9, 2.53479107902614945675E-7, 2.28621210311945178607E-5,
    1.26461541144692592338E-3, 3.59799365153615016266E-2, 3.44289899924628486886E-1,
    -5.35327393233902768720E-1,
)
_K0_B = (
    5.30043377268626276149E-18, -1.64758043015242134646E-17, 5.21039150503902756861E-17,
    -1.67823109680541210385E-16, 5.51205597852431940784E-16, -1.84859337734377901440E-15,
    6.34007647740507060557E-15, -2.22751332699166985548E-14, 8.03289077536357521100E-14,
    -2.98009692317273043925E-13, 1.14034058820847496303E-12, -4.51459788337394416547E-12,
    1.85594911495471785253E-11, -7.95748924447710747776E-11, 3.57739728140030116597E-10,
    -1.69753450938905987466E-9, 8.57403401741422608519E-9, -4.66048989768794782956E-8,
    2.76681363944501510342E-7, -1.83175552271911948767E-6, 1.39498137188764993662E-5,
    -1.28495495816278026384E-4, 1.56988388573005337491E-3, -3.14481013119645005427E-2,
    2.44030308206595545468E0,
)


def _chbevl(x, coef):
    """Clenshaw sum of a Chebyshev series, elementwise (Cephes ``chbevl``)."""
    b0, b1 = coef[0], 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def i0e(x):
    """Exponentially scaled modified Bessel function exp(-|x|) I0(x)."""
    x = np.abs(np.asarray(x, dtype=float))
    lo, hi = np.minimum(x, 8.0), np.maximum(x, 8.0)
    big = _chbevl(32.0 / hi - 2.0, _I0_B) / np.sqrt(hi)
    return np.where(x <= 8.0, _chbevl(lo / 2.0 - 2.0, _I0_A), big)


def k0e(x):
    """Exponentially scaled modified Bessel function exp(x) K0(x), for x > 0."""
    x = np.asarray(x, dtype=float)
    lo, hi = np.minimum(x, 2.0), np.maximum(x, 2.0)
    i0_lo = np.exp(lo) * _chbevl(lo / 2.0 - 2.0, _I0_A)
    small = (_chbevl(lo * lo - 2.0, _K0_A) - np.log(0.5 * lo) * i0_lo) * np.exp(lo)
    return np.where(x <= 2.0, small, _chbevl(8.0 / hi - 2.0, _K0_B) / np.sqrt(hi))


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


def require_below_tc(t: np.ndarray, tc_kelvin: float) -> None:
    """ValueError unless every temperature lies below Tc: the closed forms
    hold delta0 fixed, so they give no warning of their own once the gap
    has closed."""
    if np.any(t >= tc_kelvin):
        raise ValueError(
            f"T = {t.max()} K >= Tc = {tc_kelvin} K: gap closed, model invalid"
        )


def gap_at_temperature(
    delta0_ev: float, t_kelvin, tc_kelvin: float, model: str = "bcs_tanh"
):
    """Energy gap delta(T) in eV, elementwise over the temperatures T.

    ``bcs_tanh`` uses the standard interpolation
    delta0 * tanh(1.74 * sqrt(Tc/T - 1)), which is exact at T = 0
    (tanh(inf) = 1) and closes at Tc. ``constant`` returns delta0
    (adequate below Tc/3).
    """
    if model not in GAP_MODELS:
        raise ValueError(f"unknown gap model {model!r}; expected one of {GAP_MODELS}")
    if delta0_ev <= 0:
        raise ValueError("delta0 must be positive")
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t < 0):
        raise ValueError("temperature must be >= 0")
    require_below_tc(t, tc_kelvin)
    if model == "constant":
        gap = np.full(t.shape, delta0_ev)[()]  # a scalar for a scalar T, as tanh gives
    else:
        with np.errstate(divide="ignore"):
            gap = delta0_ev * np.tanh(1.74 * np.sqrt(tc_kelvin / t - 1.0))
    return gap


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


def _thermal(t_kelvin, omega_rad: float, delta0_ev: float):
    # kT, hbar*omega, xi = hw/2kT, the Boltzmann factor exp(-delta0/kT) and
    # the sigma2 deficit, which shares xi and the Boltzmann factor with sigma1
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    kt, hw = KB_EV * t, HBAR_EVS * omega_rad
    if hw <= 0 or delta0_ev <= 0:
        raise ValueError("omega and delta0 must be positive")
    xi, boltz = hw / (2.0 * kt), np.exp(-delta0_ev / kt)
    deficit = np.sqrt(2.0 * np.pi * kt / delta0_ev) * boltz + 2.0 * boltz * i0e(xi)
    return kt, hw, xi, boltz, deficit


def mb_sigma2_deficit(t_kelvin, omega_rad: float, delta0_ev: float):
    """Thermal pair-breaking deficit of sigma2: 1 - sigma2(T)/sigma2(0).

    Exponentially small at low temperature and computed directly (not via
    1 - bracket), so it stays resolvable in double precision far below the
    point where sigma2 itself rounds to its zero-temperature value.
    """
    return _thermal(t_kelvin, omega_rad, delta0_ev)[-1]


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
    kt, hw, xi, boltz, deficit = _thermal(t_kelvin, omega_rad, delta0_ev)
    _check_regime(hw, delta0_ev, float(np.max(kt, initial=0.0)))
    # sinh(xi) * K0(xi) evaluated with scaled Bessels so large xi cannot
    # overflow: sinh(xi)*K0(xi) = 0.5*(1 - exp(-2 xi)) * k0e(xi).
    sinh_k0 = 0.5 * (1.0 - np.exp(-2.0 * xi)) * k0e(xi)
    sigma1 = (4.0 * delta0_ev / hw) * boltz * sinh_k0
    pref = (4.0 if sigma2_prefactor == "four" else np.pi) * delta0_ev / hw
    sigma2 = pref * (1.0 - deficit)
    return sigma1, sigma2


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
        return 1.0 / (self.sheet_resistance_ohm * self.thickness_m)
