"""Spectral infrastructure: grids, the transform pair, multiplier operators, quadrature."""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from psg import (
    Field,
    ModelKind,
    ModelSpec,
    NonFiniteError,
    TorusGrid,
    energy,
    SchemeKind,
    build_periodic_orbit,
    first_derivative,
    helmholtz_solve,
    integrate,
    laplacian,
    modified_energy,
    potential_values,
    residual,
    run,
)
import psg.grid
import psg.models
import psg.schemes
import psg.steady_states
from psg.grid import _apply_multiplier, _helmholtz_multiplier
from psg.models import _energy
from conftest import random_smooth_field

# Independent quadrature oracle for integral of cos(pi*sin(x)) over [-pi, pi];
# agrees with the Bessel identity 2*pi*J0(pi).
COS_PI_SIN_INTEGRAL = -1.9116099803976925


# every real dtype _real takes: bool, signed and unsigned integers, floats, and a big-endian float64
REAL_DTYPES = [np.dtype(t) for t in ("?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8", ">f8")]


class TestTorusGrid:
    def test_spacing_times_n_is_2pi(self):
        for n in (4, 8, 256):
            grid = TorusGrid(1, n)
            assert grid.spacing * n == pytest.approx(2 * np.pi, abs=1e-15)

    def test_nodes_start_at_minus_pi(self):
        grid = TorusGrid(1, 8)
        assert grid.nodes[0] == -np.pi
        assert grid.nodes[-1] == pytest.approx(np.pi - grid.spacing)

    @pytest.mark.parametrize("n", [4, 8, 14, 30, 98, 256])  # truncating fftfreq(n) * n read 4 for 5 at n = 14
    def test_wavenumber_table_complete(self, n):
        k = TorusGrid(1, n).wavenumbers
        assert k.dtype == np.int64 and np.array_equal(k, np.fft.ifftshift(np.arange(-n // 2, n // 2)))

    @pytest.mark.parametrize("n", [4, 6, 176, 256])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rfft_tables_bitwise(self, dim, n):
        # |k|^2, the weighted |k|^2 and i*k from one per-axis table, bitwise the exact-integer formulas (which
        # rfftfreq(n) * n is not: at n = 176 it is off integers by an ulp in 8 places), zero real parts' signs included
        k = np.rint(np.fft.fftfreq(n) * n)
        kr = np.arange(n // 2 + 1.0)
        k2 = np.square(kr) if dim == 1 else np.add(np.square(k)[:, None], np.square(kr))
        k_deriv, kr_deriv = k.copy(), kr.copy()
        k_deriv[n // 2] = kr_deriv[-1] = 0.0
        deriv = (1j * kr_deriv,) if dim == 1 else (1j * k_deriv[:, None], 1j * kr_deriv[None, :])
        wk2 = k2 * np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]
        grid = TorusGrid(dim, n)
        tables = (grid._squared_wavenumbers(), grid._rfft_wk2, *grid._rfft_deriv)
        for table, expected in zip(tables, (k2, wk2, *deriv), strict=True):
            assert table.shape == expected.shape and table.tobytes() == expected.tobytes()
        assert np.signbit(grid._rfft_deriv[0].real).any() == (dim == 2)  # -0.0 for each k < 0 on axis 0

    @pytest.mark.parametrize("dim,n", [(3, 8), (0, 8), (1, 3), (1, 7), (1, 2), (2, 5)])
    def test_invalid_grid_rejected(self, dim, n):
        with pytest.raises(ValueError):
            TorusGrid(dim, n)

    def test_non_integer_sizes_rejected(self):
        # a float size passed the checks, then shape or Field.zeros raised TypeError
        for dim, n in ((1, 8.0), (1.0, 8)):
            with pytest.raises(ValueError, match="must be an integer"):
                TorusGrid(dim, n)
        grid = TorusGrid(np.int64(2), np.int32(8))  # numpy integers pass
        assert Field.zeros(grid).values.shape == (8, 8)

    def test_value_equality(self):
        assert TorusGrid(2, 64) == TorusGrid(2, 64)
        assert TorusGrid(1, 64) != TorusGrid(1, 128)


class TestField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(TorusGrid(1, 8), np.zeros(9))
        with pytest.raises(ValueError):
            Field(TorusGrid(2, 8), np.zeros(8))

    def test_complex_values_rejected(self):
        # a float64 cast kept only the real parts (1.0 here), with numpy's ComplexWarning
        with pytest.raises(ValueError, match="complex128"):
            Field(TorusGrid(1, 8), np.ones(8) * (1 + 1j))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(st.sampled_from(REAL_DTYPES), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
           st.booleans())
    @example(np.zeros((2, 3)), False)
    def test_real_is_the_float64_cast(self, array, as_list):
        # grid._real, every public array argument's check, passes real input on as the plain cast would
        values = array.tolist() if as_list else array
        result = psg.grid._real(values, "values")
        expected = np.asarray(values, dtype=np.float64)
        assert result.dtype == np.float64 and result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        if isinstance(values, np.ndarray) and values.dtype == np.float64:
            assert result is values  # a native float64 array is not copied

    def test_non_finite_rejected(self):
        values = np.zeros(8)
        values[3] = np.nan
        with pytest.raises(NonFiniteError):
            Field(TorusGrid(1, 8), values)
        values[3] = np.inf
        with pytest.raises(NonFiniteError):
            Field(TorusGrid(1, 8), values)


class TestTransforms:
    # helmholtz_solve with a=1, b=0 applies the multiplier 1: the solver's own rfftn/inverse pair.
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_roundtrip_1d(self, n, rng):
        f = random_smooth_field(TorusGrid(1, n), rng)
        back = helmholtz_solve(f, kappa=1.0, a=1.0, b=0.0)
        assert np.max(np.abs(back.values - f.values)) <= 1e-13 * f.linf()

    @pytest.mark.parametrize("n", [8, 32, 128, 512])
    def test_roundtrip_2d(self, n, rng):
        f = random_smooth_field(TorusGrid(2, n), rng)
        back = helmholtz_solve(f, kappa=1.0, a=1.0, b=0.0)
        assert np.max(np.abs(back.values - f.values)) <= 1e-13 * f.linf()

    def test_every_transform_runs_in_apply_multiplier(self, monkeypatch, rng):
        # The solver, its diagnostics and the steady-state checks use only the rfft path, and
        # only inside _apply_multiplier's stages: rfft along rows, fft and ifft along columns,
        # irfft along rows. No other transform may run.
        depth = [0]

        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return apply_multiplier(*args, **kwargs)
            finally:
                depth[0] -= 1

        def staged(transform):
            def wrapper(*args, **kwargs):
                assert depth[0] > 0, "a transform outside _apply_multiplier ran"
                return transform(*args, **kwargs)
            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("a transform other than _apply_multiplier's stages ran")

        apply_multiplier = psg.grid._apply_multiplier
        for module in (psg.grid, psg.models, psg.schemes, psg.steady_states):
            monkeypatch.setattr(module, "_apply_multiplier", inside)
        for name in ("rfft", "fft", "ifft", "irfft"):
            monkeypatch.setattr(np.fft, name, staged(getattr(np.fft, name)))
        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, forbidden)

        grid = TorusGrid(2, 16)
        u0 = random_smooth_field(grid, rng)
        model = ModelSpec(ModelKind.SINE_GORDON, 0.3)
        for scheme in SchemeKind:
            assert len(run(u0, model, scheme, 0.1, 3)) == 3
        u1 = helmholtz_solve(u0, kappa=0.3, a=1.0, b=0.1)
        energy(model, u0)
        modified_energy(model, u1, u0, 0.1)
        laplacian(u0)
        first_derivative(u0, axis=1)
        residual(Field.from_function(TorusGrid(1, 32), np.sin), 1.0)
        orbit = build_periodic_orbit(0.0, 0.5)
        assert orbit.residual_max() <= 1e-10 and orbit.first_integral_drift() <= 1e-10


class TestLaplacian:
    def test_sin_eigenfunction(self):
        grid = TorusGrid(1, 64)
        f = Field.from_function(grid, np.sin)
        assert np.max(np.abs(laplacian(f).values + f.values)) <= 1e-12

    def test_constant_in_kernel(self):
        f = Field.constant(TorusGrid(1, 32), 5.0)
        assert np.max(np.abs(laplacian(f).values)) <= 1e-13

    def test_2d_product_mode(self):
        grid = TorusGrid(2, 64)
        f = Field.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
        assert np.max(np.abs(laplacian(f).values + 2.0 * f.values)) <= 1e-12

    @pytest.mark.parametrize("n", [14, 98])
    def test_2d_eigenvalue_at_every_wavenumber(self, n):
        # the first axis's wavenumbers were fftfreq(n) * n truncated: 4 in place of 5 at n = 14
        grid = TorusGrid(2, n)
        for k in range(n // 2 + 1):
            f = Field.from_function(grid, lambda x, y: np.cos(k * x) + np.cos(k * y))
            assert np.max(np.abs(laplacian(f).values + k**2 * f.values)) <= 1e-12 * n**2

    @pytest.mark.parametrize("k", [1, 3, 7, 15, 16])
    def test_general_eigenvalue(self, k):
        # k = n/2 exercises the Nyquist convention: multiplier -(n/2)^2.
        grid = TorusGrid(1, 32)
        f = Field.from_function(grid, lambda x: np.cos(k * x))
        assert np.max(np.abs(laplacian(f).values + k**2 * f.values)) <= 1e-12 * k**2

    def test_linearity(self, rng):
        grid = TorusGrid(1, 64)
        f = random_smooth_field(grid, rng)
        g = random_smooth_field(grid, rng)
        lhs = laplacian(Field(grid, 2.5 * f.values - 1.75 * g.values))
        rhs = 2.5 * laplacian(f).values - 1.75 * laplacian(g).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_integral_of_laplacian_vanishes(self, rng):
        for dim, n in [(1, 128), (2, 64)]:
            f = random_smooth_field(TorusGrid(dim, n), rng)
            assert abs(integrate(laplacian(f))) <= 1e-12


class TestFirstDerivative:
    def test_sin_to_cos(self):
        grid = TorusGrid(1, 64)
        df = first_derivative(Field.from_function(grid, np.sin))
        expected = np.cos(grid.nodes)
        assert np.max(np.abs(df.values - expected)) <= 1e-12

    def test_2d_axis_selection(self):
        grid = TorusGrid(2, 32)
        f = Field.from_function(grid, lambda x, y: np.sin(x))
        assert np.max(np.abs(first_derivative(f, 1).values)) <= 1e-13
        x, _ = grid.coords()
        assert np.max(np.abs(first_derivative(f, 0).values - np.cos(x))) <= 1e-12

    def test_axis_out_of_range(self):
        f = Field.constant(TorusGrid(1, 8), 1.0)
        with pytest.raises(ValueError):
            first_derivative(f, 1)


class TestHelmholtz:
    def test_overflowing_multiplier_keeps_the_mean(self, rng):
        # b*kappa^2 overflows: the multiplier was NaN at k = 0 (inf * 0), with a RuntimeWarning;
        # every other mode is damped to 0, so the solve returns the mean
        rhs = random_smooth_field(TorusGrid(1, 16), rng)
        solved = helmholtz_solve(rhs, 1e150, 1.0, 1e10)
        assert np.max(np.abs(solved.values - rhs.values.mean())) <= 1e-14 * rhs.linf()

    def test_multiplier_bitwise_where_nothing_overflows(self):
        for grid, kappa, a, b in ((TorusGrid(1, 32), 0.1, 1.0, 2.1), (TorusGrid(2, 16), 0.2, 1.5, 0.01),
                                  (TorusGrid(2, 16), 1e150, 1.0, 1e-301), (TorusGrid(1, 8), 0.5, 2.0, 0.0)):
            expected = 1.0 / (a + b * kappa**2 * grid._squared_wavenumbers())
            assert np.array_equal(_helmholtz_multiplier(grid, kappa, a, b), expected)

    def test_multiplier_in_a_given_buffer_bitwise(self):
        # a run refills one buffer: overflowing modes (damped to 0) and the mean mode included
        buf = np.full(TorusGrid(2, 16)._rfft_shape, np.nan)
        for kappa, a, b in ((0.2, 1.5, 0.01), (1e150, 1.0, 1e10), (1e150, 1.5, 1e-301), (0.5, 2.0, 0.0)):
            expected = _helmholtz_multiplier(TorusGrid(2, 16), kappa, a, b)
            assert _helmholtz_multiplier(TorusGrid(2, 16), kappa, a, b, out=buf) is buf
            assert buf.tobytes() == expected.tobytes()

    def test_constants_fixed_for_unit_a(self):
        f = Field.constant(TorusGrid(1, 32), 1.0)
        g = helmholtz_solve(f, kappa=0.7, a=1.0, b=0.3)
        assert np.max(np.abs(g.values - 1.0)) <= 1e-14

    def test_single_mode_divisor(self):
        grid = TorusGrid(1, 32)
        f = Field.from_function(grid, np.sin)
        g = helmholtz_solve(f, kappa=1.0, a=1.0, b=1.0)
        assert np.max(np.abs(g.values - f.values / 2.0)) <= 1e-13

    def test_forward_operator_roundtrip(self, rng):
        grid = TorusGrid(1, 128)
        rhs = random_smooth_field(grid, rng)
        kappa, a, b = 0.2, 1.5, 0.01
        g = helmholtz_solve(rhs, kappa, a, b)
        recovered = a * g.values - b * kappa**2 * laplacian(g).values
        assert np.max(np.abs(recovered - rhs.values)) <= 1e-12 * rhs.linf()

    def test_forward_operator_roundtrip_2d(self, rng):
        grid = TorusGrid(2, 64)
        rhs = random_smooth_field(grid, rng)
        kappa, a, b = 0.5, 1.0, 0.25
        g = helmholtz_solve(rhs, kappa, a, b)
        recovered = a * g.values - b * kappa**2 * laplacian(g).values
        assert np.max(np.abs(recovered - rhs.values)) <= 1e-12 * rhs.linf()

    def test_invalid_parameters_rejected(self):
        f = Field.constant(TorusGrid(1, 8), 1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(f, kappa=1.0, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(f, kappa=1.0, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(f, kappa=1.0, a=1.0, b=-0.1)
        with pytest.raises(ValueError):
            helmholtz_solve(f, kappa=0.0, a=1.0, b=1.0)
        for bad in (np.nan, np.inf):  # not a NonFiniteError from the solved values, nor (a=inf) zeros
            with pytest.raises(ValueError, match="^kappa must be finite"):
                helmholtz_solve(f, kappa=bad, a=1.0, b=1.0)
            with pytest.raises(ValueError, match="^a must be finite"):
                helmholtz_solve(f, kappa=1.0, a=bad, b=1.0)
            with pytest.raises(ValueError, match="^b must be finite"):
                helmholtz_solve(f, kappa=1.0, a=1.0, b=bad)

    def test_linearity(self, rng):
        grid = TorusGrid(1, 64)
        f = random_smooth_field(grid, rng)
        g = random_smooth_field(grid, rng)
        combined = helmholtz_solve(Field(grid, 3.0 * f.values + g.values), 0.4, 1.0, 0.5)
        separate = 3.0 * helmholtz_solve(f, 0.4, 1.0, 0.5).values + helmholtz_solve(g, 0.4, 1.0, 0.5).values
        assert np.max(np.abs(combined.values - separate)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_apply_multiplier_is_irfftn_bitwise(self, dim, rng):
        # The in-place inverse runs irfftn's own stages, with or without given buffers.
        grid = TorusGrid(dim, 64)
        v = rng.uniform(-np.pi, np.pi, grid.shape)  # rough: every mode, Nyquist included
        axes = tuple(range(dim))
        for mult in (_helmholtz_multiplier(grid, 0.3, 1.5, 0.1), -grid._squared_wavenumbers(), grid._rfft_deriv[-1]):
            expected = np.fft.irfftn(np.fft.rfftn(v, axes=axes) * mult, s=grid.shape, axes=axes).tobytes()
            assert _apply_multiplier(grid, v, mult)[0].tobytes() == expected
            spec, out = np.empty(grid._rfft_shape, dtype=np.complex128), np.empty(grid.shape)
            assert _apply_multiplier(grid, v, mult, spec, out)[0].tobytes() == expected

    def test_apply_multiplier_allocates_no_half_spectrum(self):
        # A step's solve at 2D n=256: the inverse runs in spec, where irfftn's column
        # stage allocated a second half spectrum (~1 field). What is left is numpy's
        # buffer for casting the real multiplier to complex (8192 values, 1/4 field
        # here; the whole spectrum at n <= 64) and the finiteness check's mask (1/8).
        grid = TorusGrid(2, 256)
        v = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(2 * y)).values
        spec, out = np.empty(grid._rfft_shape, dtype=np.complex128), np.empty(grid.shape)
        mult = _helmholtz_multiplier(grid, 0.2, 1.0, 0.1)
        _apply_multiplier(grid, v, mult, spec, out)  # numpy's plan caches fill on the first call
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _apply_multiplier(grid, v, mult, spec, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.5 * 8 * grid.size

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        half_n=st.integers(4, 32),
        kappa=st.floats(0.05, 1.0),
        # b*kappa^2/a <= 4 covers both schemes (a = 1 or 3/2, b = tau <= 2);
        # rounding in the forward operator grows with b*kappa^2*|k|^2/a.
        a=st.floats(0.5, 2.0),
        b=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverse_and_parseval_energy_property(self, dim, half_n, kappa, a, b, seed):
        """The solve inverts a - b*kappa^2*Lap, and its half spectrum gives energy() by Parseval."""
        grid = TorusGrid(dim, 2 * half_n)
        rng = np.random.default_rng(seed)
        u = Field(grid, rng.uniform(-np.pi, np.pi, grid.shape))  # rough: every mode, Nyquist included

        forward = Field(grid, a * u.values - b * kappa**2 * laplacian(u).values)
        assert np.max(np.abs(helmholtz_solve(forward, kappa, a, b).values - u.values)) <= 1e-12 * u.linf()
        mult = _helmholtz_multiplier(grid, kappa, a, b)
        solved, gradient = _apply_multiplier(grid, u.values, mult, gradient=True)
        solved = Field(grid, solved)  # the public operators and energy take Fields
        recovered = a * solved.values - b * kappa**2 * laplacian(solved).values
        assert np.max(np.abs(recovered - u.values)) <= 1e-12 * u.linf()

        for kind in ModelKind:
            model = ModelSpec(kind, kappa)
            reference = energy(model, solved)
            potential = integrate(Field(grid, potential_values(kind, solved.values)))
            # relative to the sum of the terms' magnitudes, as sine-Gordon's may cancel
            scale = integrate(Field(grid, np.abs(potential_values(kind, solved.values)))) + abs(reference - potential)
            assert abs(_energy(model, grid, solved.values, gradient) - reference) <= 1e-12 * scale


class TestIntegrate:
    def test_constant_measures(self):
        assert integrate(Field.constant(TorusGrid(1, 16), 1.0)) == pytest.approx(2 * np.pi, rel=1e-15)
        assert integrate(Field.constant(TorusGrid(2, 16), 1.0)) == pytest.approx(4 * np.pi**2, rel=1e-15)

    def test_odd_mode_vanishes(self):
        grid = TorusGrid(1, 64)
        assert abs(integrate(Field.from_function(grid, np.sin))) <= 1e-14

    def test_cos_pi_sin_against_quadrature_oracle(self):
        grid = TorusGrid(1, 256)
        value = integrate(Field.from_function(grid, lambda x: np.cos(np.pi * np.sin(x))))
        oracle, err = scipy.integrate.quad(lambda t: np.cos(np.pi * np.sin(t)), -np.pi, np.pi, limit=200)
        assert err < 1e-10
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(COS_PI_SIN_INTEGRAL, abs=1e-12)
        assert value == pytest.approx(2 * np.pi * scipy.special.j0(np.pi), abs=1e-12)
