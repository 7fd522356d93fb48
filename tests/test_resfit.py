import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpwloss import resfit
from cpwloss.errors import FitError
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.io import ingest_s21
from conftest import default_grid


def draw_params(rng) -> resfit.NotchParams:
    """One random physical parameter set (log-uniform Q factors)."""
    while True:
        ql = 10 ** rng.uniform(3, 6)
        qc = 10 ** rng.uniform(3, 6)
        phi = rng.uniform(-1.0, 1.0)
        if 1.0 / ql - math.cos(phi) / qc <= 0:
            continue
        return resfit.NotchParams(
            fr_hz=rng.uniform(4e9, 8e9),
            ql=ql,
            qc_mag=qc,
            phi_rad=phi,
            amp=10 ** rng.uniform(-1, 1),
            phase0_rad=rng.uniform(-math.pi, math.pi),
            tau_s=rng.uniform(0.0, 100e-9),
        )


def jacobian_reference(f, w, p):
    """The explicit Jacobian of the residual of ``resfit._refine``,
    transposed: row k is d(residual)/d(p_k) as interleaved (re, im) pairs."""
    fr, ql, qc, phi, amp, ph_c, tau = p
    env = amp * np.exp(1j * (ph_c - w * tau))
    detune = 1.0 + 2j * ql * (f / fr - 1.0)
    notch = env * ((ql / qc) * np.exp(1j * phi)) / detune
    m = env - notch
    q = notch / detune
    rows = [
        (-2j * ql / (fr * fr)) * f * q, -q / ql, notch / qc, -1j * notch,
        m / amp, 1j * m, -1j * w * m,
    ]
    return np.array(rows).view(float)


def assert_recovered(p: resfit.NotchParams, r: resfit.NotchFitResult, rel=1e-3):
    q = r.params
    assert q.fr_hz == pytest.approx(p.fr_hz, rel=rel)
    assert q.ql == pytest.approx(p.ql, rel=rel)
    assert q.qc_mag == pytest.approx(p.qc_mag, rel=rel)
    assert q.amp == pytest.approx(p.amp, rel=rel)
    assert q.phi_rad == pytest.approx(p.phi_rad, rel=rel, abs=rel)
    assert q.phase0_rad == pytest.approx(p.phase0_rad, rel=rel, abs=rel)
    assert q.tau_s == pytest.approx(p.tau_s, rel=rel, abs=1e-12)
    assert r.qi == pytest.approx(p.qi, rel=rel)


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
)
@example([-0.0])
def test_median_is_bitwise_np_median(values):
    # one odd-sized and one even-sized input per draw; np.median gives 0.0
    # for a -0.0 middle, and a middle pair near the float limit overflows
    # to inf in both
    with np.errstate(over="ignore"):
        for a in (np.array(values), np.array(values + values[:1])):
            assert resfit.median(a).hex() == float(np.median(a)).hex()


class TestModel:
    def test_on_resonance_closed_form(self):
        p = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.3)
        val = resfit.model_s21(p, 5e9)
        expect = 1.0 - (p.ql / p.qc_mag) * np.exp(1j * p.phi_rad)
        assert val == pytest.approx(expect, rel=1e-15)

    def test_off_resonance_baseline(self):
        p = resfit.NotchParams(
            fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.3,
            amp=0.7, phase0_rad=0.4, tau_s=10e-9,
        )
        f = 5e9 * (1 + 1000.0 / p.ql)  # 1000 linewidths out
        val = resfit.model_s21(p, f)
        baseline = p.amp * np.exp(1j * (p.phase0_rad - 2 * np.pi * f * p.tau_s))
        assert abs(val - baseline) < 1e-3 * abs(baseline)

    def test_circle_diameter_in_calibrated_plane(self):
        p = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1.5e5, phi_rad=0.2,
                               amp=0.9, phase0_rad=0.3, tau_s=5e-9)
        f = default_grid(p)
        z = resfit.model_s21(p, f)
        calibrated = z / (p.amp * np.exp(1j * (p.phase0_rad - 2 * np.pi * f * p.tau_s)))
        fit = resfit.circle_fit(calibrated)
        assert 2 * fit.radius == pytest.approx(p.ql / p.qc_mag, rel=1e-6)

    def test_qi_physicality(self):
        good = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.0)
        assert good.is_physical and good.qi > good.ql
        bad = resfit.NotchParams(fr_hz=5e9, ql=2e5, qc_mag=1e5, phi_rad=0.0)
        assert not bad.is_physical

    def test_param_validation(self):
        with pytest.raises(ValueError):
            resfit.NotchParams(fr_hz=-1, ql=1e4, qc_mag=1e5, phi_rad=0.0)
        with pytest.raises(ValueError):
            resfit.NotchParams(fr_hz=5e9, ql=1e4, qc_mag=1e5, phi_rad=2.0)


class TestSynth:
    def test_noiseless_equals_model(self):
        p = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.1)
        f = default_grid(p, n=101)
        tr = resfit.synth_trace(p, f, 0.0, seed=7)
        assert np.array_equal(tr.s21, resfit.model_s21(p, f))

    def test_seed_determinism(self):
        p = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.1)
        f = default_grid(p, n=101)
        a = resfit.synth_trace(p, f, 1e-3, seed=42)
        b = resfit.synth_trace(p, f, 1e-3, seed=42)
        assert np.array_equal(a.s21, b.s21)
        c = resfit.synth_trace(p, f, 1e-3, seed=43)
        assert not np.array_equal(a.s21, c.s21)

    def test_noise_statistics(self):
        p = resfit.NotchParams(fr_hz=5e9, ql=5e4, qc_mag=1e5, phi_rad=0.0)
        f = np.linspace(4.9e9, 5.1e9, 10_000)
        sigma = 2e-3
        tr = resfit.synth_trace(p, f, sigma, seed=3)
        resid = tr.s21 - resfit.model_s21(p, f)
        assert np.std(resid.real) == pytest.approx(sigma, rel=0.05)
        assert np.std(resid.imag) == pytest.approx(sigma, rel=0.05)


class TestDelay:
    def wide_trace(self, tau_s, noise=0.0, seed=0):
        p = resfit.NotchParams(
            fr_hz=5.95e9, ql=7e4, qc_mag=1e5, phi_rad=0.3, tau_s=tau_s
        )
        f = default_grid(p, span_linewidths=100.0, n=4001)
        return resfit.synth_trace(p, f, noise, seed=seed)

    def test_round_trip_40ns(self):
        d = resfit.estimate_delay(self.wide_trace(40e-9))
        assert d.tau_s == pytest.approx(40e-9, abs=0.5e-9)

    def test_zero_delay(self):
        d = resfit.estimate_delay(self.wide_trace(0.0))
        assert d.tau_s == pytest.approx(0.0, abs=0.5e-9)

    def test_pure_noise_flagged_by_stderr(self):
        rng = np.random.default_rng(5)
        f = np.linspace(5.9e9, 6.0e9, 512)
        z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        d = resfit.estimate_delay(resfit.S21Trace(f, z))
        assert d.stderr_s > abs(d.tau_s) * 0.1  # estimate not trustworthy

    def test_too_short_rejected(self):
        f = np.linspace(5.9e9, 6.0e9, 8)
        with pytest.raises(FitError):
            resfit.estimate_delay(resfit.S21Trace(f, np.ones(8, complex)))


class TestCircleFit:
    def test_three_exact_points(self):
        pts = np.exp(2j * np.pi * np.array([0.0, 1 / 3, 2 / 3]))
        fit = resfit.circle_fit(pts)
        assert abs(fit.center) < 1e-12
        assert fit.radius == pytest.approx(1.0, abs=1e-12)

    def test_noisy_circle_radius(self):
        rng = np.random.default_rng(11)
        th = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        pts = (2.0 + 1j) + 0.5 * np.exp(1j * th)
        pts = pts + 1e-3 * (rng.standard_normal(360) + 1j * rng.standard_normal(360))
        fit = resfit.circle_fit(pts)
        assert fit.radius == pytest.approx(0.5, abs=1e-3)
        assert fit.center == pytest.approx(2.0 + 1j, abs=1e-3)

    def test_identical_points_rejected(self):
        with pytest.raises(FitError):
            resfit.circle_fit(np.full(10, 1.0 + 1.0j))

    def test_collinear_rejected(self):
        with pytest.raises(FitError):
            resfit.circle_fit(np.linspace(0, 1, 20) + 0.5j)


def least_squares(residual, jacobian, x0, max_evals=1000):
    """``resfit.levenberg_marquardt`` on unit scales, with the normal
    equations of an explicit Jacobian."""

    def normal_equations(x, r):
        jac = jacobian(x)
        return jac.T @ jac, jac.T @ r

    def with_state(x):
        r = residual(x)
        return r, r

    x0 = np.asarray(x0, dtype=float)
    return resfit.levenberg_marquardt(
        with_state, normal_equations, x0, np.ones(x0.size), max_evals
    )


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLevenbergMarquardt:
    def test_rosenbrock(self):
        x, cost, jtj = least_squares(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0])
        assert np.abs(x - 1.0).max() <= 1e-8
        assert cost <= 1e-16
        np.testing.assert_array_equal(
            jtj, rosenbrock_jacobian(x).T @ rosenbrock_jacobian(x)
        )

    def test_exponential_decay(self):
        t = np.linspace(0.0, 5.0, 50)
        y = 2.5 * np.exp(-0.7 * t)

        def jacobian(p):
            e = np.exp(-p[1] * t)
            return np.column_stack([e, -p[0] * t * e])

        def residual(p):
            return p[0] * np.exp(-p[1] * t) - y

        x, _, _ = least_squares(residual, jacobian, [1.0, 0.2])
        assert x[0] == pytest.approx(2.5, rel=1e-10)
        assert x[1] == pytest.approx(0.7, rel=1e-10)
        # with a residual left at the minimum, against Gauss-Newton steps
        # by np.linalg.lstsq polished to their fixed point
        y = y + 1e-2 * np.cos(7.0 * t)
        x, cost, _ = least_squares(residual, jacobian, [1.0, 0.2])
        ref = x.copy()
        for _ in range(20):
            ref -= np.linalg.lstsq(jacobian(ref), residual(ref), rcond=None)[0]
        np.testing.assert_allclose(x, ref, rtol=1e-8)
        assert cost <= 0.5 * np.sum(residual(ref) ** 2) * (1.0 + 1e-12)

    def test_failure_reasons(self):
        def infinite(x):
            return x * np.inf

        def not_a_number(x):
            return np.full((2, 2), np.nan)

        def linear(x):  # in x[0] alone: the Jacobian's second column is zero
            return np.array([x[0] - 1.0, 2.0 * x[0] - 3.0])

        def zero_column(x):
            return np.array([[1.0, 0.0], [2.0, 0.0]])

        cases = (
            ("non-finite residual at the start", infinite, rosenbrock_jacobian),
            ("non-finite Jacobian", rosenbrock, not_a_number),
            ("singular normal equations", linear, zero_column),
        )
        for reason, residual, jacobian in cases:
            with pytest.raises(FitError, match=f"^{reason}$"):
                least_squares(residual, jacobian, [-1.2, 1.0])

    @pytest.mark.parametrize("max_evals", [1, 5])
    def test_budget_counts_every_residual_evaluation(self, max_evals):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        with pytest.raises(FitError, match=f"^{max_evals} evaluations exhausted$"):
            least_squares(counted, rosenbrock_jacobian, [-1.2, 1.0], max_evals)
        assert len(calls) == max_evals


class TestFitNotch:
    def test_reference_operating_point_noiseless(self, operating_point):
        f = default_grid(operating_point)
        tr = resfit.synth_trace(operating_point, f, 0.0, seed=0)
        res = resfit.fit_notch(tr)
        assert_recovered(operating_point, res)
        assert res.qi == pytest.approx(2.571e5, rel=1e-3)
        # noiseless: the refinement converges to the injected point itself
        for name in ("fr_hz", "ql", "qc_mag"):
            expect = getattr(operating_point, name)
            assert getattr(res.params, name) == pytest.approx(expect, rel=1e-9)
        assert res.qi == pytest.approx(operating_point.qi, rel=1e-9)

    def test_exhausted_budget_is_fit_error(self, operating_point, monkeypatch):
        monkeypatch.setattr(resfit, "MAX_ITER", 0)
        tr = resfit.synth_trace(operating_point, default_grid(operating_point), 1e-3)
        with pytest.raises(FitError, match="notch refinement did not converge: "):
            resfit.fit_notch(tr)

    def test_refine_rejects_degenerate_starts(self, operating_point):
        # a vanishing amplitude leaves d(model)/d(amp) = 0/0; an infinite |Qc|
        # zeroes the resonator columns of the normal equations
        p = operating_point
        f = default_grid(p, n=201)
        z = resfit.model_s21(p, f)
        start = np.array([p.fr_hz, p.ql, p.qc_mag, p.phi_rad, p.amp, p.phase0_rad, 0.0])
        cases = (("non-finite Jacobian", 4, 0.0), ("singular normal equations", 2, np.inf))
        for reason, k, value in cases:
            p0 = start.copy()
            p0[k] = value
            with pytest.raises(FitError, match=reason):
                resfit._refine(f, z, p0, np.ones(7), f.mean())

    def test_refine_rejects_a_start_of_infinite_cost(self, operating_point):
        # |r|^2 overflows at every point, so no trial step can gain; the
        # noise-floor stop must not return the start as converged
        p = operating_point
        f = default_grid(p, n=201)
        z = resfit.model_s21(p, f)
        z[100] = 1e200
        start = np.array([p.fr_hz, p.ql, p.qc_mag, p.phi_rad, p.amp, p.phase0_rad, 0.0])
        with pytest.raises(FitError, match="non-finite residual"):
            resfit._refine(f, z, start, np.ones(7), f.mean())

    def test_gram_normal_equations_match_the_jacobian(self):
        rng = np.random.default_rng(11)
        # the last trace spans more than two Gram chunks
        sizes = (1001, 1001, 1001, 201, 2 * resfit._GRAM_CHUNK + 17)
        for n in sizes:
            p = draw_params(rng)
            f = default_grid(p, n=n)
            z = resfit.synth_trace(p, f, 1e-3, seed=n).s21
            f_center = 0.5 * (f[0] + f[-1])
            w = 2.0 * np.pi * (f - f_center)
            ph_c = p.phase0_rad - 2.0 * np.pi * f_center * p.tau_s
            truth = np.array([p.fr_hz, p.ql, p.qc_mag, p.phi_rad, p.amp, ph_c, p.tau_s])
            # off the minimum, so that Jtr is not noise: fr by a tenth of a
            # linewidth, the others by about 1%
            x = truth * rng.uniform(0.99, 1.01, 7) + [0.1 * p.fr_hz / p.ql, 0, 0, 0.01, 0, 0.01, 0]
            x_scale = np.array([p.fr_hz, p.ql, p.qc_mag, 1.0, p.amp, 1.0, 1e-9])
            r, parts = resfit._notch_residual(f, w, z, x)
            jtj, jtr = resfit._normal_equations(f, w, x, parts, x_scale)
            jac = jacobian_reference(f, w, x)
            ref_jtj = (jac @ jac.T) * np.outer(x_scale, x_scale)
            ref_jtr = (jac @ r) * x_scale
            assert np.linalg.norm(jtj - ref_jtj) <= 1e-12 * np.linalg.norm(ref_jtj)
            assert np.linalg.norm(jtr - ref_jtr) <= 1e-12 * np.linalg.norm(ref_jtr)

    def test_refinement_evaluations_on_the_calibrated_sweep(self, tmp_path, monkeypatch):
        # the LM stops before a trial step whose predicted gain is below _TOL
        # of the cost; near the minimum such steps are rounding noise, and
        # without the stop they are rejected one after another (mean 6.7)
        costs, returned = [], []
        half_sq, refine = resfit._half_sq, resfit._refine

        def counted(r):
            costs[-1].append(half_sq(r))
            return costs[-1][-1]

        def recorded(*args):
            costs.append([])
            out = refine(*args)
            returned.append(out[1])
            return out

        monkeypatch.setattr(resfit, "_half_sq", counted)
        monkeypatch.setattr(resfit, "_refine", recorded)
        paths = synth_sweep(config_from_dict(calibrate_sweep_config()), tmp_path)
        for path in paths:
            resfit.fit_notch(ingest_s21(path))
        assert len(returned) == len(paths) == 30
        assert np.mean([len(c) for c in costs]) <= 4.5
        # no fit returns a point worse than one it evaluated
        assert returned == [min(c) for c in costs]

    def test_round_trip_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            p = draw_params(rng)
            tr = resfit.synth_trace(p, default_grid(p), 0.0, seed=1)
            assert_recovered(p, resfit.fit_notch(tr))

    def test_noisy_qi_tolerance(self, operating_point):
        f = default_grid(operating_point)
        errs = []
        for seed in range(25):
            tr = resfit.synth_trace(operating_point, f, 1e-3, seed=seed)
            res = resfit.fit_notch(tr)
            errs.append(abs(res.qi / operating_point.qi - 1.0))
        assert np.percentile(errs, 95) < 0.05

    def test_qi_never_below_ql(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = draw_params(rng)
            tr = resfit.synth_trace(p, default_grid(p), 0.0, seed=2)
            res = resfit.fit_notch(tr)
            assert res.qi >= res.params.ql * (1 - 1e-9)

    @given(scale=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=10, deadline=None)
    def test_amplitude_scale_invariance(self, operating_point, scale):
        f = default_grid(operating_point, n=801)
        tr = resfit.synth_trace(operating_point, f, 0.0, seed=0)
        base = resfit.fit_notch(tr)
        scaled = resfit.fit_notch(resfit.S21Trace(f, tr.s21 * scale))
        assert scaled.params.fr_hz == pytest.approx(base.params.fr_hz, rel=1e-9)
        assert scaled.params.ql == pytest.approx(base.params.ql, rel=1e-9)
        assert scaled.params.qc_mag == pytest.approx(base.params.qc_mag, rel=1e-9)
        assert scaled.params.phi_rad == pytest.approx(base.params.phi_rad, abs=1e-9)
        assert scaled.qi == pytest.approx(base.qi, rel=1e-9)
        assert scaled.params.amp == pytest.approx(base.params.amp * scale, rel=1e-9)

    def test_frequency_shift_invariance(self, operating_point):
        from dataclasses import replace

        f = default_grid(operating_point, n=801)
        tr = resfit.synth_trace(operating_point, f, 0.0, seed=0)
        base = resfit.fit_notch(tr)
        df = 2.5e8
        shifted_p = replace(operating_point, fr_hz=operating_point.fr_hz + df, tau_s=0.0)
        p0 = replace(operating_point, tau_s=0.0)
        tr0 = resfit.synth_trace(p0, f, 0.0, seed=0)
        tr_shift = resfit.synth_trace(shifted_p, f + df, 0.0, seed=0)
        r0 = resfit.fit_notch(tr0)
        r1 = resfit.fit_notch(tr_shift)
        assert r1.params.fr_hz - r0.params.fr_hz == pytest.approx(df, rel=1e-9)
        assert r1.params.ql == pytest.approx(r0.params.ql, rel=1e-6)
        assert r1.qi == pytest.approx(r0.qi, rel=1e-6)

    def test_no_dip_raises(self):
        f = np.linspace(5.9e9, 6.0e9, 512)
        flat = 0.8 * np.exp(1j * (0.3 - 2 * np.pi * f * 20e-9))
        with pytest.raises(FitError, match="no resonance"):
            resfit.fit_notch(resfit.S21Trace(f, flat))
        rng = np.random.default_rng(1)
        noisy = flat + 1e-3 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
        with pytest.raises(FitError, match="no resonance"):
            resfit.fit_notch(resfit.S21Trace(f, noisy))

    def test_two_dips_fits_the_deeper(self):
        deep = resfit.NotchParams(fr_hz=5.95e9, ql=6e4, qc_mag=1e5, phi_rad=0.0)
        shallow = resfit.NotchParams(fr_hz=5.9525e9, ql=6e4, qc_mag=4e5, phi_rad=0.0)
        f = np.linspace(5.949e9, 5.954e9, 4001)
        z = resfit.model_s21(deep, f) * resfit.model_s21(shallow, f)
        res = resfit.fit_notch(resfit.S21Trace(f, z))
        assert abs(res.params.fr_hz - deep.fr_hz) < abs(res.params.fr_hz - shallow.fr_hz)
        assert res.params.fr_hz == pytest.approx(deep.fr_hz, rel=1e-5)

    def test_off_grid_resonance(self):
        p = resfit.NotchParams(fr_hz=5.95e9 + 13.7, ql=8e4, qc_mag=1.2e5, phi_rad=0.0)
        half = 5 * 5.95e9 / p.ql
        f = np.linspace(5.95e9 - half, 5.95e9 + half, 801)  # fr between grid points
        res = resfit.fit_notch(resfit.S21Trace(f, resfit.model_s21(p, f)))
        assert abs(res.params.fr_hz - p.fr_hz) < (f[1] - f[0])

    def test_monotonic_phase_rejected(self):
        f = np.linspace(5.9e9, 6.0e9, 256)
        z = np.exp(1j * np.linspace(0.0, 2.0, 256)) + 2.0
        with pytest.raises(FitError):
            resfit.fit_notch(resfit.S21Trace(f, z))

    def test_stderr_tracks_noise(self, operating_point):
        f = default_grid(operating_point)
        quiet = resfit.fit_notch(resfit.synth_trace(operating_point, f, 1e-4, seed=0))
        loud = resfit.fit_notch(resfit.synth_trace(operating_point, f, 1e-2, seed=0))
        assert loud.stderr["qi"] > 10 * quiet.stderr["qi"]
        assert quiet.rms_residual == pytest.approx(1e-4, rel=0.1)


    @pytest.mark.parametrize("j", [-900, -300, -7, 1, 300, 900])
    def test_power_of_two_scale_is_exact(self, operating_point, j):
        f = default_grid(operating_point, n=801)
        tr = resfit.synth_trace(operating_point, f, 1e-3, seed=4)
        base = resfit.fit_notch(tr)
        scaled = resfit.fit_notch(resfit.S21Trace(f, tr.s21 * 2.0**j))
        assert scaled.qi == base.qi
        assert scaled.params.fr_hz == base.params.fr_hz
        assert scaled.params.amp == base.params.amp * 2.0**j
        assert scaled.stderr["amp"] == base.stderr["amp"] * 2.0**j
        assert scaled.rms_residual == base.rms_residual * 2.0**j

    def test_zero_baseline_and_unbounded_range_rejected(self):
        f = np.linspace(5.9e9, 6.0e9, 64)
        zero = np.zeros(64, complex)
        zero[::4] = 1.0
        spread = np.full(64, 1e-300 + 0j)
        spread[10] = 1e10  # beyond 2**1024 once divided by the median's scale
        for z in (zero, spread):
            with pytest.raises(FitError, match="no resonance"):
                resfit.fit_notch(resfit.S21Trace(f, z))


FIT_FUZZ_KINDS = ("flat", "noise", "edge_dip", "short", "extreme_tau")


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(FIT_FUZZ_KINDS),
    decade=st.sampled_from([-12.0, 0.0, 12.0]) | st.floats(-300.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fuzz_fit_returns_result_or_fit_error(kind, decade, seed):
    """Degenerate and edge traces end in a fit or a FitError, never in
    another exception or a warning."""
    rng = np.random.default_rng(seed)
    p = resfit.NotchParams(
        fr_hz=5.95e9,
        ql=10 ** rng.uniform(3, 6),
        qc_mag=10 ** rng.uniform(3, 6),
        phi_rad=rng.uniform(-1.5, 1.5),
        phase0_rad=rng.uniform(-math.pi, math.pi),
        tau_s=rng.uniform(0.0, 100e-9),
    )
    n = 16 if kind == "short" else int(rng.integers(16, 802))
    f = default_grid(p, span_linewidths=rng.uniform(2.0, 40.0), n=n)
    if kind == "edge_dip":
        edge = f[0] if rng.random() < 0.5 else f[-1]
        p = dataclasses.replace(p, fr_hz=edge + rng.uniform(-2, 2) * p.fr_hz / p.ql)
    elif kind == "extreme_tau":
        tau = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -3)
        p = dataclasses.replace(p, tau_s=tau)
    if kind == "flat":
        z = np.exp(1j * (p.phase0_rad - 2 * np.pi * f * p.tau_s))
    elif kind == "noise":
        z = np.zeros(n, complex)
    else:
        z = resfit.model_s21(p, f)
    noise = 1.0 if kind == "noise" else rng.choice([0.0, 10 ** rng.uniform(-6, -1)])
    z = z + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    trace = resfit.S21Trace(f, z * 10**decade)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = resfit.fit_notch(trace)
        except FitError:
            return
    assert isinstance(result, resfit.NotchFitResult)
