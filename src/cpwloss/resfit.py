"""Notch-type complex S21 model, environment calibration and resonance fitting.

The transmission of a resonator side-coupled to a feedline is modelled as

    S21(f) = a * exp(j phase0) * exp(-2j pi f tau)
             * [1 - (Ql/|Qc|) * exp(j phi) / (1 + 2j Ql (f/fr - 1))]

(diameter-corrected notch form). Fitting proceeds through the usual seeded
pipeline: cable-delay estimate from the off-resonant wings, algebraic
(Taubin) circle fit, a closed-form seed of fr, Ql and the environment from
the circle and its centered phase, then one joint :func:`levenberg_marquardt`
refinement of all seven parameters on the stacked real/imaginary residuals,
with normal equations from one complex Gram matrix, stopping once the gain it
predicts falls below the rounding noise of the cost.
Qi follows from 1/Qi = 1/Ql - Re(exp(j phi))/|Qc|.

Fits on different traces are independent and safe to run in parallel; a
sweep runs them on several processes (:mod:`cpwloss.pipeline.parallel`).
The synthetic-trace generator is seeded per call and never shares RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

PARAM_NAMES = ("fr_hz", "ql", "qc_mag", "phi_rad", "amp", "phase0_rad", "tau_s")

# LM iteration budget: MAX_ITER * (n_params + 1) residual evaluations
MAX_ITER = 200
_TOL = 1e-12  # LM stops at this relative step size, or cost reduction made or predicted


def median(values) -> float:
    """Median of a non-empty 1-D array, bitwise equal to ``np.median`` on
    finite input; ``np.median`` imports ``numpy.ma`` on its first call."""
    a = np.asarray(values, dtype=float)
    half = a.size // 2
    # + 0.0 as in np.median's mean, whose sum turns a -0.0 into 0.0
    if a.size % 2:
        return float(np.partition(a, half)[half] + 0.0)
    part = np.partition(a, (half - 1, half))
    return float((part[half - 1] + part[half] + 0.0) / 2.0)


def _wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class NotchParams:
    """Parameters of the notch model; angles in rad, tau in s."""

    fr_hz: float
    ql: float
    qc_mag: float
    phi_rad: float
    amp: float = 1.0
    phase0_rad: float = 0.0
    tau_s: float = 0.0

    def __post_init__(self) -> None:
        if self.fr_hz <= 0:
            raise ValueError("fr_hz must be positive")
        if self.ql <= 0 or self.qc_mag <= 0:
            raise ValueError("ql and qc_mag must be positive")
        if not abs(self.phi_rad) < math.pi / 2:
            raise ValueError("impedance-mismatch angle must satisfy |phi| < pi/2")
        if self.amp <= 0:
            raise ValueError("amp must be positive")

    @property
    def qi(self) -> float:
        """Internal quality factor; inf or negative marks an unphysical set."""
        inv = 1.0 / self.ql - math.cos(self.phi_rad) / self.qc_mag
        return math.inf if inv == 0.0 else 1.0 / inv

    @property
    def is_physical(self) -> bool:
        """True when the derived Qi is positive and finite."""
        return 1.0 / self.ql - math.cos(self.phi_rad) / self.qc_mag > 0.0


@dataclass
class S21Trace:
    """One complex transmission trace on a strictly ascending frequency grid."""

    freq_hz: np.ndarray
    s21: np.ndarray
    temperature_k: float | None = None
    power_dbm: float | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        self.freq_hz = np.asarray(self.freq_hz, dtype=float)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.freq_hz.ndim != 1 or self.freq_hz.size < 2:
            raise ValueError("need at least two frequency points")
        if self.s21.shape != self.freq_hz.shape:
            raise ValueError("freq_hz and s21 must have the same shape")
        if not np.all(np.diff(self.freq_hz) > 0):
            raise ValueError("frequencies must be strictly ascending")
        if not (np.all(np.isfinite(self.freq_hz)) and np.all(np.isfinite(self.s21))):
            raise ValueError("trace contains non-finite values")

    def __len__(self) -> int:
        return int(self.freq_hz.size)


@dataclass(frozen=True)
class NotchFitResult:
    """Fit output: best parameters, derived Qi, 1-sigma errors, residual."""

    params: NotchParams
    qi: float
    stderr: dict[str, float]
    rms_residual: float
    n_points: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DelayEstimate:
    tau_s: float
    stderr_s: float


@dataclass(frozen=True)
class CircleFit:
    center: complex
    radius: float
    rms_residual: float


def model_s21(p: NotchParams, freq_hz):
    """Evaluate the notch model at the given frequencies."""
    f = np.asarray(freq_hz, dtype=float)
    detune = 1.0 + 2j * p.ql * (f / p.fr_hz - 1.0)
    notch = 1.0 - (p.ql / p.qc_mag) * np.exp(1j * p.phi_rad) / detune
    env = p.amp * np.exp(1j * (p.phase0_rad - 2.0 * np.pi * f * p.tau_s))
    out = env * notch
    return complex(out) if np.ndim(freq_hz) == 0 else out


def synth_trace(
    p: NotchParams,
    freq_hz,
    noise_sigma: float = 0.0,
    seed: int = 0,
    temperature_k: float | None = None,
) -> S21Trace:
    """Model trace plus independent complex Gaussian noise (sigma per quadrature).

    Deterministic for a given seed.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    f = np.asarray(freq_hz, dtype=float)
    z = model_s21(p, f).astype(complex)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        z = z + noise_sigma * (
            rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)
        )
    return S21Trace(f, z, temperature_k=temperature_k)


def _phase_slope(f: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of unwrapped phase vs frequency, and its variance."""
    theta = np.unwrap(np.angle(z))
    fm = f - f.mean()
    # numpy's pairwise sums, not BLAS dot products: a long one would be
    # split across BLAS threads, and its rounding would depend on their count
    sxx = float(np.sum(fm * fm))
    slope = float(np.sum(fm * (theta - theta.mean()))) / sxx
    resid = theta - theta.mean() - slope * fm
    dof = max(len(f) - 2, 1)
    var = float(np.sum(resid * resid)) / dof / sxx
    return slope, var


def estimate_delay(trace: S21Trace) -> DelayEstimate:
    """Cable delay from the phase slope of the off-resonant wings.

    Fits a line to the unwrapped phase on the outer 20% of the points (half
    per side) and returns tau = -slope/(2 pi). The returned standard error
    is the weighted-fit error; on resonance-free or noisy data it can exceed
    the estimate itself, which callers should treat as "no usable delay
    information".
    """
    n = len(trace)
    if n < 16:
        raise FitError("delay estimation needs at least 16 points")
    k = max(3, int(round(0.1 * n)))
    f, z = trace.freq_hz, trace.s21
    slopes, variances = [], []
    for sl in (slice(0, k), slice(n - k, n)):
        s, v = _phase_slope(f[sl], z[sl])
        slopes.append(s)
        variances.append(v)
    if all(v == 0.0 for v in variances):
        slope = float(np.mean(slopes))
        err = 0.0
    else:
        w = [1.0 / max(v, 1e-300) for v in variances]
        slope = (slopes[0] * w[0] + slopes[1] * w[1]) / (w[0] + w[1])
        err = math.sqrt(1.0 / (w[0] + w[1]))
    return DelayEstimate(tau_s=-slope / (2.0 * math.pi), stderr_s=err / (2.0 * math.pi))


def circle_fit(points) -> CircleFit:
    """Algebraic least-squares circle through complex points (Taubin fit).

    Solves the 3x3 symmetric eigenproblem of the Taubin formulation on
    centered data; exact for points lying exactly on a circle.
    """
    z = np.asarray(points, dtype=complex).ravel()
    if z.size < 3:
        raise FitError("circle fit needs at least 3 points")
    x, y = z.real, z.imag
    xm, ym = x.mean(), y.mean()
    u, v = x - xm, y - ym
    w = u * u + v * v
    zm = w.mean()
    scale = math.sqrt(zm)
    if not np.isfinite(scale) or scale == 0.0:
        raise FitError("degenerate circle fit: all points coincide")
    b_mat = np.column_stack([w - zm, u, v])
    m = b_mat.T @ b_mat / z.size
    d_half = np.array([2.0 * scale, 1.0, 1.0])
    s = m / np.outer(d_half, d_half)
    evals, evecs = np.linalg.eigh(s)
    q = evecs[:, 0]
    a, b, c = q / d_half
    if abs(a) * zm < 1e-12 * math.hypot(b, c) * scale:
        raise FitError("degenerate circle fit: points are collinear")
    cu = -b / (2.0 * a)
    cv = -c / (2.0 * a)
    d_coef = -a * zm
    r_sq = cu * cu + cv * cv - d_coef / a
    if r_sq <= 0 or not np.isfinite(r_sq):
        raise FitError("circle fit failed: non-positive radius")
    radius = math.sqrt(r_sq)
    center = complex(cu + xm, cv + ym)
    dist = np.abs(z - center)
    rms = float(np.sqrt(np.mean((dist - radius) ** 2)))
    return CircleFit(center=center, radius=radius, rms_residual=rms)


def _seed_resonance(
    f: np.ndarray, zc: np.ndarray, idx: int
) -> tuple[float, float, float]:
    """Closed-form (fr, Ql, theta0) seed at the dip ``idx`` of the centered trace.

    ``zc`` is the delay-corrected trace minus the circle center, whose
    phase near resonance is theta(f) = theta0 + 2 atan(2 Ql (1 - f/fr)),
    so |dtheta/df| = 4 Ql/fr at fr. The slope is a least-squares line over
    the contiguous points whose phase lies within pi/4 of theta(idx), a
    window of about 0.4 linewidths that averages out the per-point noise a
    single-point gradient would pass into the seed.
    """
    theta = np.unwrap(np.angle(zc))
    far = np.flatnonzero(np.abs(theta - theta[idx]) > math.pi / 4.0)
    lo = int(far[far < idx].max(initial=-1)) + 1
    hi = int(far[far > idx].min(initial=f.size))
    # at least the dip and its neighbours, for grids coarser than the window
    lo, hi = min(lo, max(idx - 1, 0)), max(hi, min(idx + 2, f.size))
    slope, _ = _phase_slope(f[lo:hi], zc[lo:hi])
    fr0 = float(f[idx])
    return fr0, abs(slope) * fr0 / 4.0, float(theta[idx])


# OpenBLAS computes a dot product of at most this many elements on one
# thread, and splits a longer one across its threads
_DOT_CHUNK = 10_000
# ... and a 6 x 6 complex matrix product over at most 7281 columns
# (6 * 6 * 7281 < 2**18, its threshold for a threaded zgemm)
_GRAM_CHUNK = 4096
# the stack row of which each Jacobian row is a multiple
_ROWS = np.array([0, 1, 2, 2, 3, 3, 4])


def _half_sq(r: np.ndarray) -> float:
    """The LM cost 0.5*|r|^2, from dot products of at most _DOT_CHUNK elements.

    One long dot product would be split across BLAS threads: its rounding
    would then depend on the thread count, and in forked workers its
    threads would compete with the other workers for the CPUs. Up to
    _DOT_CHUNK elements this is the plain ``r @ r``.
    """
    c = _DOT_CHUNK
    return 0.5 * sum(float(r[i : i + c] @ r[i : i + c]) for i in range(0, r.size, c))


def _notch_residual(f, w, z, p):
    """The residual at ``p`` as interleaved (re, im) pairs, and its parts."""
    fr, ql, qc, phi, amp, ph_c, tau = p
    env = amp * np.exp(1j * (ph_c - w * tau))
    detune = 1.0 + 2j * ql * (f / fr - 1.0)
    notch = env * ((ql / qc) * np.exp(1j * phi)) / detune
    m = env - notch
    r = m - z
    return r.view(float), (notch, detune, m, r)


def _normal_equations(f, w, p, parts, x_scale):
    """JtJ and Jtr of the residual at ``p``, in ``x_scale`` units.

    The Jacobian's row k, d(residual)/d(p_k), is coef[k] times one of five
    complex vectors (f q, q, notch, m, w m). With the residual as a sixth,
    the products of every pair of rows are the real parts of one 6 x 6
    Gram matrix conj(S) S^T, taken over _GRAM_CHUNK columns at a time so
    that BLAS runs each product on one thread.
    """
    fr, ql, qc, _, amp, _, _ = p
    notch, detune, m, r = parts
    q = notch / detune
    s = np.stack([f * q, q, notch, m, w * m, r])
    s_conj, c = s.conj(), _GRAM_CHUNK
    gram = sum(s_conj[:, i : i + c] @ s[:, i : i + c].T for i in range(0, f.size, c))
    coef = x_scale * np.array(
        [-2j * ql / (fr * fr), -1.0 / ql, 1.0 / qc, -1j, 1.0 / amp, 1j, -1j]
    )
    cols = gram[_ROWS]
    jtj = (coef.conj()[:, None] * coef * cols[:, _ROWS]).real
    return jtj, (coef.conj() * cols[:, 5]).real


def levenberg_marquardt(residual, normal_equations, x0, x_scale, max_evals):
    """Levenberg-Marquardt minimum of 0.5*|r|^2 from ``x0``: the point, the
    cost there and JtJ in ``x_scale`` units.

    ``residual(x)`` returns the real residuals r and a state from which
    ``normal_equations(x, state)`` returns JtJ and Jtr of dr/d(x/x_scale).
    Steps are damped by lam*diag(JtJ) with Nielsen's update of lam; a trial
    point with a non-finite residual is rejected. The LM stops at a step
    below _TOL of the point, at an accepted gain below _TOL of the cost, or,
    before a trial evaluation, when the gain the linearized model predicts
    is below _TOL of the cost. FitError gives the reason it did not
    converge within ``max_evals`` residual evaluations.
    """
    with np.errstate(all="ignore"):
        x, (r, state) = x0, residual(x0)
        cost, nfev, lam, nu, done = _half_sq(r), 1, 1e-3, 2.0, False
        if not math.isfinite(cost):  # then no trial point can gain
            raise FitError("non-finite residual at the start")
        while True:
            a, g = normal_equations(x, state)
            # also non-finite when a coefficient of the Jacobian is
            if not np.isfinite(a).all():
                raise FitError("non-finite Jacobian")
            if done:
                return x, cost, a
            diag = a.diagonal()
            while True:
                try:
                    step = np.linalg.solve(a + np.diag(lam * diag), -g)
                except np.linalg.LinAlgError:
                    raise FitError("singular normal equations") from None
                # the gain the linearized model predicts (Madsen, Nielsen &
                # Tingleff 2004); below _TOL of the cost, rounding noise in g
                # makes trial steps losses until lam has grown enough
                pred = 0.5 * (step @ (lam * diag * step - g))
                small = np.linalg.norm(step) <= _TOL * np.linalg.norm(x / x_scale)
                if small or pred <= _TOL * cost:
                    return x, cost, a
                if nfev >= max_evals:
                    raise FitError(f"{max_evals} evaluations exhausted")
                x_new = x + step * x_scale
                r_new, state_new = residual(x_new)
                cost_new, nfev = _half_sq(r_new), nfev + 1
                gain = cost - cost_new
                if gain > 0.0:  # False for a non-finite trial point
                    break
                lam, nu = lam * nu, 2.0 * nu
            rho = gain / pred
            lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
            x, state, cost = x_new, state_new, cost_new
            done = gain <= _TOL * (cost + gain)


def _refine(f, z, p0, x_scale, f_center):
    """:func:`levenberg_marquardt` fit of the seven notch parameters from ``p0``."""
    # The environment phase is referenced to the span center: with the
    # f = 0 convention, phase0 and tau are degenerate through a lever arm
    # of order f/span and LM crawls along the resulting sliver valley.
    # The Jacobian is analytic; finite differences leave enough noise in
    # the normal equations for LM to stall orders of magnitude above the
    # attainable residual.
    w = 2.0 * np.pi * (f - f_center)
    try:
        return levenberg_marquardt(
            lambda x: _notch_residual(f, w, z, x),
            lambda x, parts: _normal_equations(f, w, x, parts, x_scale),
            p0, x_scale, MAX_ITER * (len(p0) + 1),
        )
    except FitError as exc:
        raise FitError(f"notch refinement did not converge: {exc}") from None


def fit_notch(trace: S21Trace) -> NotchFitResult:
    """Full notch-fit pipeline on one trace.

    Raises FitError when no resonance is present, the refinement does not
    converge, or it converges to fr outside the span or to a linewidth
    fr/Ql wider than the span. A converged fit whose derived Qi is
    non-positive is returned with qi = inf and a ``nonphysical_qi`` flag
    rather than silently clamped.
    """
    f, z = trace.freq_hz, trace.s21
    n = len(trace)
    if n < 16:
        raise FitError("notch fit needs at least 16 points")

    # the fit runs on the trace divided by the power of two nearest its
    # median magnitude: the division is exact, so the result does not depend
    # on the trace's overall scale, and the circle fit's squared magnitudes
    # stay within double range
    mag = np.abs(z)
    med = median(mag)
    if not (med > 0.0 and mag.max() < 2.0**1000 * med):
        raise FitError("no resonance found (zero baseline or range beyond 2**1000)")
    scale = 2.0 ** round(math.log2(med))
    z = z / scale
    trace = S21Trace(f, z)

    # dip-depth precheck against the wing noise floor
    mag = np.abs(z)
    med = median(mag)
    k = max(3, n // 10)
    wing_mag = np.concatenate([mag[:k], mag[-k:]])
    noise_rel = float(np.std(np.diff(wing_mag))) / math.sqrt(2.0) / med
    depth = 1.0 - float(mag.min()) / med
    if depth < max(5.0 * noise_rel, 1e-9):
        raise FitError("no resonance found (no dip above the noise floor)")

    delay = estimate_delay(trace)
    z1 = z * np.exp(2j * np.pi * f * delay.tau_s)
    try:
        circ = circle_fit(z1)
    except FitError as exc:
        raise FitError(f"no resonance found ({exc})") from exc
    if circ.radius < 5.0 * circ.rms_residual:
        raise FitError("no resonance found (circle radius within residual scatter)")

    # seed at the deepest dip: when a trace carries several resonances the
    # single-notch model is fitted to the deepest one
    idx = int(np.argmin(np.abs(z1)))
    fr0, ql0, theta0 = _seed_resonance(f, z1 - circ.center, idx)
    if not ql0 > 0.0:
        raise FitError("no resonance found (no phase slope at the dip)")
    off_res = circ.center - circ.radius * np.exp(1j * theta0)
    amp0 = abs(off_res)
    if amp0 == 0.0:
        raise FitError("no resonance found (vanishing off-resonant baseline)")
    phase00 = float(np.angle(off_res))
    qc0 = ql0 * amp0 / (2.0 * circ.radius)
    phi0 = _wrap_angle(float(np.angle((off_res - circ.center) / off_res)))

    f_center = 0.5 * (f[0] + f[-1])
    phase_c0 = phase00 - 2.0 * math.pi * f_center * delay.tau_s
    p0 = np.array([fr0, ql0, qc0, phi0, amp0, phase_c0, delay.tau_s])
    tau_scale = max(abs(delay.tau_s), 1.0 / (2.0 * math.pi * (f[-1] - f[0])))
    x_scale = np.array([fr0, ql0, qc0, 1.0, amp0, 1.0, tau_scale])
    x, cost, jtj = _refine(f, z, p0, x_scale, f_center)

    fr, ql, qc, phi, amp, ph_c, tau = x
    ph0 = ph_c + 2.0 * math.pi * f_center * tau
    if amp < 0:
        amp, ph0 = -amp, ph0 + math.pi
    if qc < 0:
        qc, phi = -qc, phi + math.pi
    phi = _wrap_angle(phi)
    ph0 = _wrap_angle(float(ph0))
    if not (ql > 0 and f[0] <= fr <= f[-1] and fr / ql <= f[-1] - f[0]):
        raise FitError("no resonance within the frequency span")
    if not abs(phi) < math.pi / 2:
        raise FitError(
            f"notch refinement converged to |phi| = {abs(phi):.3f} >= pi/2"
        )
    params = NotchParams(
        fr_hz=float(fr),
        ql=float(ql),
        qc_mag=float(qc),
        phi_rad=float(phi),
        amp=float(amp) * scale,
        phase0_rad=float(ph0),
        tau_s=float(tau),
    )

    flags: tuple[str, ...] = ()
    qi = params.qi
    if not params.is_physical:
        flags = ("nonphysical_qi",)
        qi = math.inf

    m = 2 * n
    dof = max(m - len(x), 1)
    ssr = 2.0 * cost
    s2 = ssr / dof
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    cov = s2 * cov * np.outer(x_scale, x_scale)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    stderr = dict(zip(PARAM_NAMES, (float(e) for e in perr)))
    stderr["amp"] *= scale
    # phase0 = phase_c + 2 pi f_center tau: propagate the pair's covariance
    lever = 2.0 * math.pi * f_center
    var_ph0 = cov[5, 5] + lever * lever * cov[6, 6] + 2.0 * lever * cov[5, 6]
    stderr["phase0_rad"] = float(math.sqrt(max(var_ph0, 0.0)))
    if params.is_physical:
        # delta method for Qi over the (ql, qc, phi) block
        grad_inv = np.array(
            [
                -1.0 / params.ql**2,
                math.cos(params.phi_rad) / params.qc_mag**2,
                math.sin(params.phi_rad) / params.qc_mag,
            ]
        )
        g = -(qi**2) * grad_inv
        sub = cov[np.ix_([1, 2, 3], [1, 2, 3])]
        stderr["qi"] = float(np.sqrt(max(g @ sub @ g, 0.0)))
    else:
        stderr["qi"] = math.inf

    return NotchFitResult(
        params=params,
        qi=qi,
        stderr=stderr,
        rms_residual=math.sqrt(ssr / m) * scale,
        n_points=n,
        flags=flags,
    )

