"""Spectral infrastructure: grids, transforms, multiplier operators, quadrature."""

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from psg import (
    Field,
    NonFiniteError,
    TorusGrid,
    first_derivative,
    forward_transform,
    helmholtz_solve,
    integrate,
    inverse_transform,
    laplacian,
)
from conftest import random_smooth_field

# Independent quadrature oracle for integral of cos(pi*sin(x)) over [-pi, pi];
# agrees with the Bessel identity 2*pi*J0(pi).
COS_PI_SIN_INTEGRAL = -1.9116099803976925


class TestTorusGrid:
    def test_spacing_times_n_is_2pi(self):
        for n in (4, 8, 256):
            grid = TorusGrid(1, n)
            assert grid.spacing * n == pytest.approx(2 * np.pi, abs=1e-15)

    def test_nodes_start_at_minus_pi(self):
        grid = TorusGrid(1, 8)
        assert grid.nodes[0] == -np.pi
        assert grid.nodes[-1] == pytest.approx(np.pi - grid.spacing)

    @pytest.mark.parametrize("n", [4, 8, 30, 256])
    def test_wavenumber_table_complete(self, n):
        k = np.sort(TorusGrid(1, n).wavenumbers)
        assert np.array_equal(k, np.arange(-n // 2, n // 2))

    @pytest.mark.parametrize("dim,n", [(3, 8), (0, 8), (1, 3), (1, 7), (1, 2), (2, 5)])
    def test_invalid_grid_rejected(self, dim, n):
        with pytest.raises(ValueError):
            TorusGrid(dim, n)

    def test_value_equality(self):
        assert TorusGrid(2, 64) == TorusGrid(2, 64)
        assert TorusGrid(1, 64) != TorusGrid(1, 128)


class TestField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(TorusGrid(1, 8), np.zeros(9))
        with pytest.raises(ValueError):
            Field(TorusGrid(2, 8), np.zeros(8))

    def test_non_finite_rejected(self):
        values = np.zeros(8)
        values[3] = np.nan
        with pytest.raises(NonFiniteError):
            Field(TorusGrid(1, 8), values)
        values[3] = np.inf
        with pytest.raises(NonFiniteError):
            Field(TorusGrid(1, 8), values)


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        grid = TorusGrid(1, 8)
        coeffs = forward_transform(Field.constant(grid, 1.0))
        assert coeffs.coefficient(0) == pytest.approx(1.0, abs=1e-15)
        for k in range(-4, 4):
            if k != 0:
                assert abs(coeffs.coefficient(k)) < 1e-15

    def test_sin_mode_coefficients(self):
        grid = TorusGrid(1, 16)
        coeffs = forward_transform(Field.from_function(grid, np.sin))
        assert coeffs.coefficient(1) == pytest.approx(-0.5j, abs=1e-15)
        assert coeffs.coefficient(-1) == pytest.approx(0.5j, abs=1e-15)
        others = [coeffs.coefficient(k) for k in range(-8, 8) if abs(k) != 1]
        assert max(abs(c) for c in others) < 1e-15

    def test_cos_mode_node_aware_phase(self):
        # An odd-k cosine exposes the node convention: coefficients are taken
        # with respect to e^{ikx} on nodes starting at -pi, so c(+-3) = +1/2.
        grid = TorusGrid(1, 16)
        coeffs = forward_transform(Field.from_function(grid, lambda x: np.cos(3 * x)))
        assert coeffs.coefficient(3) == pytest.approx(0.5, abs=1e-15)
        assert coeffs.coefficient(-3) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_roundtrip_1d(self, n, rng):
        f = random_smooth_field(TorusGrid(1, n), rng)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-13 * f.linf()

    @pytest.mark.parametrize("n", [8, 32, 128, 512])
    def test_roundtrip_2d(self, n, rng):
        f = random_smooth_field(TorusGrid(2, n), rng)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-13 * f.linf()

    def test_hermitian_symmetry(self, rng):
        f = random_smooth_field(TorusGrid(2, 16), rng)
        coeffs = forward_transform(f)
        for kx, ky in [(1, 2), (3, -5), (0, 7), (-4, 0), (5, 5)]:
            assert coeffs.coefficient(kx, ky) == pytest.approx(
                np.conj(coeffs.coefficient(-kx, -ky)), abs=1e-14
            )

    def test_coefficient_lookup_validation(self):
        coeffs = forward_transform(Field.constant(TorusGrid(1, 8), 1.0))
        with pytest.raises(ValueError):
            coeffs.coefficient(1, 2)
        with pytest.raises(ValueError):
            coeffs.coefficient(4)  # wavenumbers run -4..3


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

    def test_linearity(self, rng):
        grid = TorusGrid(1, 64)
        f = random_smooth_field(grid, rng)
        g = random_smooth_field(grid, rng)
        combined = helmholtz_solve(Field(grid, 3.0 * f.values + g.values), 0.4, 1.0, 0.5)
        separate = 3.0 * helmholtz_solve(f, 0.4, 1.0, 0.5).values + helmholtz_solve(g, 0.4, 1.0, 0.5).values
        assert np.max(np.abs(combined.values - separate)) <= 1e-12


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
