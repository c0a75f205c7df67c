"""Steady-state toolkit: classification, kinks, periodic orbits, reflections.

Closed-form orbits (psg's own AGM for K and sn) are verified against two
independent oracles from scipy.special: the complete elliptic integral for
the period and the Jacobi elliptic sn for pointwise profile values.
"""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from psg import (
    Field,
    FirstIntegralError,
    ModelKind,
    ModelSpec,
    NonFiniteError,
    Reflection,
    ReflectionError,
    Regime,
    RegimeError,
    SchemeKind,
    SteadyStateCase,
    TorusGrid,
    build_periodic_orbit,
    classify,
    energy,
    first_derivative,
    first_integral,
    kink_derivative,
    kink_eval,
    laplacian,
    reflect_extend,
    residual,
    run_steps,
)


def orbit_oracle(C, kappa, x):
    """u(x) from the pendulum closed form via Jacobi sn, left turning point at 0."""
    m = (1.0 + C) / 2.0
    K = scipy.special.ellipk(m)
    sn, _cn, _dn, _ph = scipy.special.ellipj(x / kappa - K, m)
    return 2.0 * np.arcsin(np.sqrt(m) * sn)


class TestClassify:
    def test_case_split(self):
        assert classify(1.5) is Regime.NO_BOUNDED
        assert classify(-1.0) is Regime.ZERO
        assert classify(0.0) is Regime.PERIODIC
        assert classify(0.999) is Regime.PERIODIC
        assert classify(1.0) is Regime.KINK

    def test_separatrix_snapping(self):
        assert classify(1.0 + 1e-13) is Regime.KINK
        assert classify(1.0 - 1e-13) is Regime.KINK
        assert classify(-1.0 - 1e-13) is Regime.ZERO

    def test_impossible_constant_rejected(self):
        with pytest.raises(FirstIntegralError):
            classify(-1.0 - 1e-6)

    def test_nan_rejected(self):
        # every comparison with NaN is false, so unchecked it fell through to NO_BOUNDED
        with pytest.raises(ValueError, match="^C must be a number, got nan$"):
            classify(float("nan"))


class TestFirstIntegral:
    def test_reference_points(self):
        assert first_integral(0.0, 0.0, 1.0) == -1.0
        assert first_integral(np.pi, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_constant_along_kink(self):
        kappa = 0.5
        x = np.linspace(-3.0, 3.0, 401)
        u = kink_eval(kappa, 1, 0.0, x)
        du = kink_derivative(kappa, 1, 0.0, x)
        C = first_integral(u, du, kappa)
        assert np.max(np.abs(C - 1.0)) <= 1e-10

    @pytest.mark.parametrize("kappa", [np.nan, -1.0])
    def test_bad_kappa_rejected(self, kappa):
        # unchecked, nan gave C = nan and a negative kappa passed as its absolute value
        with pytest.raises(ValueError, match="^kappa must be finite and > 0"):
            first_integral(0.0, 1.0, kappa)


class TestKink:
    def test_center_and_limits(self):
        assert kink_eval(1.0, 1, 0.0, 0.0) == 0.0
        assert kink_eval(1.0, 1, 0.0, 50.0) == pytest.approx(np.pi, abs=1e-12)
        assert kink_eval(1.0, -1, 0.0, 50.0) == pytest.approx(-np.pi, abs=1e-12)

    def test_monotone_increasing(self):
        x = np.linspace(-5.0, 5.0, 301)
        u = kink_eval(0.5, 1, 0.3, x)
        assert np.all(np.diff(u) > 0)

    def test_shift_constant(self):
        # c shifts the profile: u(x; c) = u(x + kappa*c; 0).
        x = np.linspace(-2.0, 2.0, 101)
        assert np.allclose(kink_eval(0.5, 1, 1.0, x), kink_eval(0.5, 1, 0.0, x + 0.5), atol=1e-14)

    def test_derivative_matches_finite_differences(self):
        x = np.linspace(-2.0, 2.0, 41)
        h = 1e-6
        fd = (kink_eval(0.5, 1, 0.1, x + h) - kink_eval(0.5, 1, 0.1, x - h)) / (2 * h)
        assert np.max(np.abs(fd - kink_derivative(0.5, 1, 0.1, x))) <= 1e-8

    def test_residual_finite_differences(self):
        # 4th-order window residual at h = 1e-3; the floor is roundoff in the
        # stencil (~eps * |u| / h^2 ~ 3e-9), not truncation.
        kappa = 0.5
        x = np.arange(-2.0, 2.0 + 1e-3 / 2, 1e-3)
        u = kink_eval(kappa, 1, 0.0, x)
        assert residual(u, kappa, spacing=1e-3) <= 1e-8

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_residual_rejects_complex_samples(self, periodic, as_list):
        # a float64 cast kept only the real parts: the periodic residual of pi was 2.97e-14
        u = np.full(8, np.pi) + 5j
        with pytest.raises(ValueError, match="^u must be real, got dtype complex128$"):
            residual(list(u) if as_list else u, 1.0, spacing=0.1, periodic=periodic)

    def test_residual_analytic_derivative(self):
        # Closed-form second derivative: the residual cancels identically.
        for kappa in (0.25, 0.5, 1.0):
            x = np.linspace(-8.0 * kappa, 8.0 * kappa, 2001)
            z = x / kappa
            d2u = -2.0 / kappa**2 * np.tanh(z) / np.cosh(z)
            u = kink_eval(kappa, 1, 0.0, x)
            assert np.max(np.abs(kappa**2 * d2u + np.sin(u))) <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kink_eval(0.0, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            kink_eval(1.0, 2, 0.0, 1.0)

    def test_overflowing_argument_takes_exact_limits(self):
        # x/kappa overflows to +-inf: cosh warned of the overflow (an error under pytest); tanh(+-inf) = +-1
        # and 1/cosh(+-inf) = 0 are the exact limits
        assert kink_derivative(1e-200, 1, 0.0, np.pi) == 0.0
        x = np.array([-1e10, 0.0, 1e10])  # 1e10/1e-300 overflows
        assert np.array_equal(kink_eval(1e-300, 1, 0.0, x), [-np.pi, 0.0, np.pi])
        assert np.array_equal(kink_derivative(1e-300, -1, 0.0, x), [0.0, -2.0 / 1e-300, 0.0])

    @pytest.mark.parametrize("kappa", [1e-310, 5e-324])
    def test_subnormal_kappa_rejected(self, kappa):
        # x/kappa overflowed in the divide for |x| ~ pi, and a subnormal kappa has too few digits
        message = rf"^kappa must be .* kappa >= 2\.2250738585072014e-308, got {kappa!r}$"
        for build in (lambda: kink_eval(kappa, 1, 0.0, np.pi), lambda: build_periodic_orbit(0.5, kappa)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_derivative_rejects_non_finite_shift(self):
        x = np.linspace(-1.0, 1.0, 5)
        for c in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^c must be finite"):
                kink_derivative(0.5, 1, c, x)


class TestPeriodicOrbit:
    @pytest.mark.parametrize("C", [-0.5, 0.0, 0.5, 1.0 - 1e-9])
    def test_period_against_elliptic_oracle(self, C):
        kappa = 0.5
        orbit = build_periodic_orbit(C, kappa)
        m = (1.0 + C) / 2.0
        assert orbit.period == pytest.approx(4.0 * kappa * scipy.special.ellipk(m), rel=1e-12)
        assert orbit.residual_max() <= 1e-6

    @pytest.mark.parametrize("C", [-0.5, 0.0, 0.5])
    def test_profile_against_jacobi_oracle(self, C):
        kappa = 0.5
        orbit = build_periodic_orbit(C, kappa)
        expected = orbit_oracle(C, kappa, orbit.half_x)
        assert np.max(np.abs(orbit.half_u - expected)) <= 1e-10

    def test_amplitude_and_shape(self):
        orbit = build_periodic_orbit(0.0, 0.5)
        assert orbit.case.amplitude == pytest.approx(np.pi / 2, abs=1e-15)
        assert orbit.half_u[0] == -orbit.case.amplitude
        assert orbit.half_u[-1] == orbit.case.amplitude
        assert np.all(np.diff(orbit.half_u) > 0)
        assert np.max(np.abs(orbit.half_u)) < np.pi

    def test_residual_and_drift(self):
        orbit = build_periodic_orbit(0.0, 0.5)
        assert orbit.residual_max() <= 1e-6
        assert orbit.first_integral_drift() <= 1e-8

    def test_small_kappa_full_orbit(self):
        # Narrow orbits are exact too: the full profile mirrors the half orbit about
        # its turning point, with no finite-difference slope check to trip.
        orbit = build_periodic_orbit(0.5, 0.05)
        x, u = orbit.full_profile()
        assert len(x) == 2 * len(orbit.half_x) - 1
        assert orbit.residual_max() <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        C=st.one_of(
            st.floats(-1.0 + 1e-9, 1.0 - 1e-9),
            st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e),
            st.floats(-9.0, -1.0).map(lambda e: -1.0 + 10.0**e),
        ),
        kappa=st.floats(0.05, 2.0),
    )
    def test_classification_guarantee_property(self, C, kappa):
        # Every periodic orbit, from the bottom of the well to the separatrix, is the
        # exact solution with first integral C.
        orbit = build_periodic_orbit(C, kappa)
        m = (1.0 + C) / 2.0
        assert orbit.period == pytest.approx(4.0 * kappa * scipy.special.ellipk(m), rel=1e-12)
        assert orbit.residual_max() <= 1e-6
        assert orbit.first_integral_drift() <= 1e-8
        assert np.all(np.diff(orbit.half_u) > 0)
        x, u = orbit.full_profile()
        assert np.array_equal(u, u[::-1]) and np.array_equal(x, -x[::-1])

    def test_classification_constant_along_orbit(self):
        # classify(first_integral(.)) returns the same regime at every sample.
        kappa = 0.5
        orbit = build_periodic_orbit(0.3, kappa)
        x, u = orbit.periodic_samples()
        from psg.steady_states import _periodic_derivative

        du = _periodic_derivative(u, x[1] - x[0], order=1)
        constants = first_integral(u, du, kappa)
        regimes = {classify(C) for C in constants}
        assert regimes == {Regime.PERIODIC}
        kink_x = np.linspace(-2.0, 2.0, 101)
        kink_constants = first_integral(
            kink_eval(kappa, 1, 0.0, kink_x), kink_derivative(kappa, 1, 0.0, kink_x), kappa
        )
        assert {classify(C) for C in kink_constants} == {Regime.KINK}

    def test_small_amplitude_period_limit(self):
        # Near the bottom of the well the orbit is harmonic with period 2*pi*kappa.
        orbit = build_periodic_orbit(-0.9999, 1.0)
        assert abs(orbit.period - 2 * np.pi) <= 1e-2

    def test_period_increases_and_diverges_toward_separatrix(self):
        kappa = 1.0
        periods = [build_periodic_orbit(C, kappa).period for C in (-0.9, -0.5, 0.0, 0.5, 0.9)]
        assert np.all(np.diff(periods) > 0)
        near_separatrix = build_periodic_orbit(1.0 - 1e-6, kappa).period
        assert near_separatrix > 4 * periods[0]

    def test_wrong_regime_rejected(self):
        with pytest.raises(RegimeError):
            build_periodic_orbit(1.2, 0.5)
        with pytest.raises(RegimeError):
            build_periodic_orbit(1.0, 0.5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="^samples must be >= 5, got 4$"):
            build_periodic_orbit(0.0, 0.5, samples=4)

    def test_smallest_normal_kappa(self):
        # the x samples are normal floats: the residual is as at kappa = 0.5 (1e-320 gave 0.67)
        orbit = build_periodic_orbit(0.5, float(np.finfo(float).tiny))
        assert orbit.residual_max() <= 1e-10

    def test_full_profile_even_about_origin(self):
        orbit = build_periodic_orbit(0.3, 0.5)
        x, u = orbit.full_profile()
        assert len(x) == 2 * len(orbit.half_x) - 1
        assert x[0] == pytest.approx(-orbit.period / 2)
        assert np.allclose(u, u[::-1], atol=0)  # exactly symmetric by construction

    def test_junction_smoothness(self):
        # Second divided differences stay bounded across the reflection point.
        orbit = build_periodic_orbit(0.0, 0.5, samples=513)
        x, u = orbit.full_profile()
        h = x[1] - x[0]
        second = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        mid = len(orbit.half_x) - 1  # index of the junction in the interior array
        interior_scale = np.max(np.abs(second))
        assert abs(second[mid - 1]) <= 1.5 * interior_scale


class TestSteadyStateCase:
    def test_consistency_enforced(self):
        # the amplitude is derived from the regime and C, so it cannot disagree with them
        assert SteadyStateCase(Regime.ZERO, -1.0, 0.5).amplitude == 0.0
        assert SteadyStateCase(Regime.PERIODIC, 0.0, 0.5).amplitude == np.pi / 2
        assert SteadyStateCase(Regime.KINK, 1.0, 0.5).amplitude == np.pi
        assert SteadyStateCase(Regime.CONSTANT_PI, 1.0, 0.5).amplitude == np.pi
        with pytest.raises(RegimeError):
            SteadyStateCase(Regime.PERIODIC, 1.0, 0.5)
        with pytest.raises(RegimeError):
            SteadyStateCase(Regime.NO_BOUNDED, 1.5, 0.5)
        with pytest.raises(TypeError):
            SteadyStateCase(Regime.PERIODIC, 0.0, 0.5, amplitude=1.0)
        with pytest.raises(RegimeError, match="^constant \\+-pi requires C = 1, got C = 0.5$"):
            SteadyStateCase(Regime.CONSTANT_PI, 0.5, 0.5)


class TestReflectExtend:
    def test_even_recovers_full_orbit(self):
        kappa = 0.5
        orbit = build_periodic_orbit(0.0, kappa)
        x, u = reflect_extend(orbit.half_x, orbit.half_u, Reflection.EVEN)
        # Oracle continued by its own symmetry about the left turning point.
        expected = orbit_oracle(0.0, kappa, np.abs(x))
        assert np.max(np.abs(u - expected)) <= 1e-10

    @pytest.mark.parametrize("kappa", [1.0, 0.01, 1e-6])
    def test_even_accepts_narrow_orbits(self, kappa):
        # The check is on the one-sample change h*u'(x0): the slope grows as 1/h and reached
        # 6.4e-8 at kappa = 0.01 and 6.4e-4 at kappa = 1e-6 on these exact orbits.
        orbit = build_periodic_orbit(0.0, kappa)
        x, u = reflect_extend(orbit.half_x, orbit.half_u, Reflection.EVEN)
        full_x, full_u = orbit.full_profile()
        assert np.array_equal(x, full_x) and np.array_equal(u, full_u)

    def test_odd_recovers_full_kink(self):
        kappa = 0.5
        x_half = np.linspace(0.0, 4.0, 201)
        u_half = kink_eval(kappa, 1, 0.0, x_half)
        x, u = reflect_extend(x_half, u_half, Reflection.ODD)
        assert np.max(np.abs(u - kink_eval(kappa, 1, 0.0, x))) <= 1e-14

    def test_even_precondition(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ReflectionError):
            reflect_extend(x, 0.1 * x, Reflection.EVEN)

    def test_odd_precondition(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ReflectionError):
            reflect_extend(x, 0.1 + 0.0 * x, Reflection.ODD)

    def test_shapes_checked(self):
        x = np.linspace(0.0, 1.0, 11)
        for xs, us in ((x, x[:-1]), (x[:4], x[:4])):  # 2D input: test_package.py's array contract
            with pytest.raises(ValueError, match="^x and u must be equal-length 1D arrays with >= 5 samples$"):
                reflect_extend(xs, us, Reflection.ODD)

    def test_unknown_mode_rejected(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="^unknown reflection mode 'odd'$"):
            reflect_extend(x, 0.0 * x, "odd")  # the enum's value, not the enum

    @pytest.mark.parametrize("mode", list(Reflection), ids=lambda m: m.value)
    def test_nan_samples_rejected(self, mode):
        # abs(nan) > tol is False: an all-NaN branch passed the endpoint check and came back mirrored
        with pytest.raises(ReflectionError):
            reflect_extend(np.linspace(0.0, 1.0, 6), np.full(6, np.nan), mode)

    @pytest.mark.parametrize("mode", list(Reflection), ids=lambda m: m.value)
    def test_non_finite_samples_rejected(self, mode):
        # past the five samples the endpoint checks read, an inf came back mirrored (as -inf for ODD)
        x, u = np.linspace(0.0, 1.0, 6), np.zeros(6)
        for xs, us in ((x, np.r_[u[:5], np.inf]), (np.r_[x[:5], np.inf], u), (x, np.r_[u[:5], np.nan])):
            with pytest.raises(NonFiniteError, match="^non-finite field values$"):
                reflect_extend(xs, us, mode)


class TestResidual:
    def test_trivial_profiles(self):
        grid = TorusGrid(1, 64)
        assert residual(Field.zeros(grid), 0.5) == 0.0
        assert residual(Field.constant(grid, np.pi), 0.5) <= 1e-15

    def test_requires_spacing_for_arrays(self):
        with pytest.raises(ValueError):
            residual(np.zeros(32), 0.5)

    def test_spacing_must_be_finite_and_positive(self):
        # unchecked, a zero spacing gave inf, nan gave nan and a negative spacing passed
        for spacing in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="^spacing must be finite and > 0"):
                residual(np.zeros(32), 0.5, spacing=spacing)

    def test_field_rejects_a_second_spacing(self):
        # a Field carries its own spacing: the one passed with it was silently ignored
        with pytest.raises(ValueError, match="^a Field carries its own spacing"):
            residual(Field.from_function(TorusGrid(1, 32), np.sin), 1.0, spacing=123.0)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_non_finite_samples_rejected(self, periodic):
        # the window path returned nan for NaN samples, where the periodic path raised
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError, match="^non-finite field values$"):
                residual(np.r_[np.zeros(7), bad], 0.5, spacing=0.1, periodic=periodic)

    def test_window_needs_five_samples(self):
        with pytest.raises(ValueError):
            residual(np.zeros(4), 0.5, spacing=0.1)

    def test_periodic_samples_need_an_even_count(self):
        # The spectral u'' runs on a TorusGrid, whose point count is even and >= 4.
        assert residual(np.zeros(4), 0.5, spacing=0.1, periodic=True) == 0.0
        for count in (31, 3, 2):
            with pytest.raises(ValueError, match=f"^periodic samples must be an even count >= 4, got {count}$"):
                residual(np.zeros(count), 0.5, spacing=0.1, periodic=True)

    def test_symmetry_family_preserves_residual(self):
        # u(. + x0) + 2*pi*m solves the same equation; the window residual
        # of correspondingly shifted samples is identical.
        kappa = 0.5
        x = np.linspace(-2.0, 2.0, 801)
        base = kink_eval(kappa, 1, 0.0, x)
        shifted = kink_eval(kappa, 1, 0.0, x + 0.3) + 2 * np.pi
        r_base = residual(base, kappa, spacing=x[1] - x[0])
        r_shift = residual(shifted, kappa, spacing=x[1] - x[0])
        # both sit at the finite-difference roundoff floor; compare at that scale
        assert abs(r_base - r_shift) <= 1e-10

    def test_long_run_settles_to_steady_state(self):
        # The parabolic flow from single-basin data converges to u = pi;
        # the dynamics themselves provide the steady profile.
        grid = TorusGrid(1, 128)
        (x,) = grid.coords()
        u0 = Field(grid, 2.0 + 0.5 * np.sin(3 * x) + 0.3 * np.cos(x))
        model = ModelSpec(ModelKind.SINE_GORDON, 0.5)
        *_, (final, _) = run_steps(u0, model, SchemeKind.IMEX1, 0.5, 400)  # the last field: no step overwrites it
        assert residual(final, model.kappa) <= 1e-6


class TestSteppersKeepSteadyStates:
    """Steady states of the PDE on the torus are fixed points of both schemes, to their residual; the
    periodic orbits are unstable ones, which a perturbed run leaves with falling energy."""

    @staticmethod
    def torus_orbit(n, C):
        """The periodic orbit of first integral C with period 2*pi, its samples on TorusGrid(1, n) and its model.

        kappa = 2*pi/(4*K(m)) makes the period 2*pi, so n//2 + 1 half-period samples give
        one period on the torus nodes; kappa/h is 5.5-38 for n in {64, 256}.
        """
        K = build_periodic_orbit(C, 1.0).period / 4
        kappa = 2 * np.pi / (4 * K)
        orbit = build_periodic_orbit(C, kappa, samples=n // 2 + 1)
        grid = TorusGrid(1, n)
        x, u = orbit.periodic_samples()
        assert np.max(np.abs(x - grid.nodes)) <= 1e-13
        return orbit, Field(grid, u), ModelSpec(ModelKind.SINE_GORDON, kappa)

    @pytest.mark.parametrize("C", [-0.9, -0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [64, 256])
    def test_linearization_eigenpairs(self, n, C):
        # The linearization kappa^2*phi'' + cos(u*)*phi = lambda*phi about the orbit has the Lame band edges in
        # closed form: cos(u*/2) grows at (1-C)/2 > 0, so every periodic orbit is unstable; u*' is the neutral
        # translation; sin(u*/2) decays at (1+C)/2. Measured: relative max residual at most 7.5e-10 (u*' at
        # n=64, C=0.9), 2.3e-10 elsewhere.
        _, steady, model = self.torus_orbit(n, C)
        u = steady.values
        for phi, eigenvalue in ((np.cos(u / 2), (1 - C) / 2), (first_derivative(steady).values, 0.0),
                                (np.sin(u / 2), -(1 + C) / 2)):
            lap = laplacian(Field(steady.grid, phi)).values
            res = model.kappa**2 * lap + np.cos(u) * phi - eigenvalue * phi
            assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(phi))

    @pytest.mark.parametrize("C", [-0.99, -0.9, -0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [64, 256])
    def test_growth_rates(self, n, C):
        # u* + 1e-8 leaves along cos(u*/2), whose eigenvalue is lambda = (1-C)/2; the rate is the slope
        # of log||u - u*||_inf over t in [5, 10] at tau = 0.01. Measured, the same at both n: bdf2 within
        # 6.5e-5 of lambda, imex1 within 3.0e-4 of ln(1 + tau*lambda)/tau. C = -0.99 grows at 0.995, next
        # to the zero state's rate 1 (cos 0), the orbits' limit as C -> -1.
        _, steady, model = self.torus_orbit(n, C)
        tau, rate = 0.01, (1 - C) / 2
        u0 = Field(steady.grid, steady.values + 1e-8)
        for scheme, expected in ((SchemeKind.BDF2, rate), (SchemeKind.IMEX1, np.log1p(tau * rate) / tau)):
            t, log_gap = [], []
            for u, record in run_steps(u0, model, scheme, tau, 1000):
                if record.step_index >= 500:
                    t.append(record.t)
                    log_gap.append(np.log(np.max(np.abs(u.values - steady.values))))
            assert abs(np.polyfit(t, log_gap, 1)[0] - expected) <= 1e-3, scheme

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("C", [-0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [64, 256])
    def test_periodic_orbit_is_a_fixed_point(self, n, C, scheme):
        # Two steps: bdf2's second is its own, after the imex1 kick-start. Measured: each
        # moves the orbit by at most 1.8e-14, against residuals of at least 1e-13.
        orbit, steady, model = self.torus_orbit(n, C)
        for tau in (0.1, 1.0, 2.0):
            for stepped, _ in run_steps(steady, model, scheme, tau, 2):
                assert np.max(np.abs(stepped.values - steady.values)) <= orbit.residual_max()

    @pytest.mark.parametrize("scheme,name", [(SchemeKind.IMEX1, "energy"), (SchemeKind.BDF2, "modified_energy")])
    @pytest.mark.parametrize("C", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("n", [64, 256])
    def test_perturbed_orbit_leaves_with_falling_energy(self, n, C, scheme, name):
        # The orbits are critical points of E but not minima: shifted by 1e-3, the flow
        # leaves them, and the energy each scheme dissipates falls strictly on the way out.
        # Measured: every step lowers it by at least 5.9e-8 until ||u - orbit||_inf first
        # exceeds 0.5 (steps 83-244); it falls until steps 273-469; after 600 steps the run
        # sits on u = pi, at -2*pi, 10.97-12.45 below the orbit's energy. C = 0.9 is left
        # out (it moves 0.027 in 600 steps), and so are cos x and sin x shifts, which do not
        # leave the orbit.
        _, steady, model = self.torus_orbit(n, C)
        u0 = Field(steady.grid, steady.values + 1e-3)
        before, left = energy(model, u0), False
        for u, record in run_steps(u0, model, scheme, 0.1, 600):
            after = getattr(record, name)
            if not left:
                assert before - after >= 5e-8, record.step_index
                left = np.max(np.abs(u.values - steady.values)) > 0.5
            before = after
        assert left
        assert after <= energy(model, steady) - 10.9

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("value", [0.0, np.pi, -np.pi])
    @pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 32)], ids=["1d", "2d"])
    def test_constants_do_not_move(self, grid, value, scheme):
        # sin(0) = 0 exactly, and sin(+-pi) = +-1.2e-16 rounds away in u + tau*f(u) for tau <= 1.
        # At tau = 2, beyond bdf2's tau <= 1/2 guarantee, +-pi moves by 1 ulp under imex1 and
        # by 328 ulps under bdf2 over 10 steps; this is not pinned.
        model = ModelSpec(ModelKind.SINE_GORDON, 0.5)
        for tau in (0.1, 1.0):
            for stepped, _ in run_steps(Field.constant(grid, value), model, scheme, tau, 10):
                assert np.all(stepped.values == value)
