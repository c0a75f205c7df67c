"""Model definitions: nonlinearities, potentials, energies, rescaling."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from psg import (
    Field,
    GeneralModelParams,
    ModelKind,
    ModelSpec,
    NonFiniteError,
    TorusGrid,
    energy,
    first_derivative,
    helmholtz_solve,
    integrate,
    modified_energy,
    nonlinearity,
    potential_values,
    rescale_general_to_standard,
)
from psg.models import _increment_energy, _potential_sum
from conftest import random_smooth_field

# kappa^2*pi^3/2 + 2*pi*J0(pi) for kappa = 0.1, frozen from an adaptive
# quadrature of the potential term plus the closed-form gradient term.
ENERGY_PI_SIN_KAPPA01 = -1.756578596996193

SG = ModelKind.SINE_GORDON
AC = ModelKind.ALLEN_CAHN


def _derivative_form_gradient_energy(kappa: float, u: Field) -> float:
    """kappa^2/2 * integral |grad u|^2 from per-axis spectral first derivatives.

    first_derivative zeroes the Nyquist mode; its share is added back from
    each axis's (-1)^j-weighted sums of u, which are its Nyquist coefficients.
    """
    grid = u.grid
    n, dim = grid.n_per_axis, grid.dim
    grad = sum(0.5 * kappa**2 * integrate(Field(grid, first_derivative(u, axis).values ** 2))
               for axis in range(dim))
    sign = (-1.0) ** np.arange(n)
    nyquist = sum(float(np.sum(np.tensordot(sign, u.values, axes=(0, axis)) ** 2)) for axis in range(dim))
    return grad + kappa**2 / 8.0 * (2.0 * np.pi) ** dim * n ** (1 - dim) * nyquist


class TestSpecs:
    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            ModelSpec(SG, 0.0)
        with pytest.raises(ValueError):
            ModelSpec(AC, -1.0)

    def test_general_params_positive(self):
        with pytest.raises(ValueError):
            GeneralModelParams(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GeneralModelParams(1.0, 1.0, -2.0)

    @pytest.mark.parametrize("name", ["kappa", "beta", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_general_params_finite(self, name, bad):
        # unchecked, nan would give standard_kappa = nan and beta = inf would give 0.0
        values = {"kappa": 1.0, "beta": 1.0, "gamma": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            GeneralModelParams(**values)

    def test_kappa_square_must_be_finite(self):
        # rescaling squares kappa, and Python's float ** raises OverflowError above ~1.34e154
        for spec in (lambda: GeneralModelParams(1e200, 1.0, 1.0), lambda: ModelSpec(SG, 1e200)):
            with pytest.raises(ValueError, match="^kappa must be finite and > 0 .*kappa\\^2"):
                spec()


class TestNonlinearity:
    def test_sine_gordon_zeros(self):
        grid = TorusGrid(1, 16)
        assert np.max(np.abs(nonlinearity(SG, Field.zeros(grid)).values)) == 0.0
        at_pi = nonlinearity(SG, Field.constant(grid, np.pi))
        assert np.max(np.abs(at_pi.values)) <= 1e-15

    def test_allen_cahn_root(self):
        grid = TorusGrid(1, 16)
        assert np.max(np.abs(nonlinearity(AC, Field.constant(grid, 1.0)).values)) == 0.0

    def test_sine_gordon_bounded_by_one(self, rng):
        grid = TorusGrid(1, 64)
        u = random_smooth_field(grid, rng, target_linf=50.0)
        assert nonlinearity(SG, u).linf() <= 1.0


class TestPotentials:
    def test_reference_values(self):
        sg = potential_values(SG, [0.0, np.pi, -np.pi])
        assert sg[0] == 1.0
        assert sg[1] == pytest.approx(-1.0, abs=1e-15)
        assert sg[2] == pytest.approx(-1.0, abs=1e-15)
        ac = potential_values(AC, [1.0, -1.0, 0.0])
        assert ac[0] == 0.0 and ac[1] == 0.0 and ac[2] == 0.25

    @pytest.mark.parametrize("samples", [np.array([np.pi + 7j]), [np.pi + 7j]], ids=["array", "list"])
    def test_complex_samples_rejected(self, samples):
        # a float64 cast kept only the real parts: cos(pi) = -1 here, with numpy's ComplexWarning
        for kind in (SG, AC):
            with pytest.raises(ValueError, match="^u_samples must be real, got dtype complex128$"):
                potential_values(kind, samples)

    def test_potential_is_minus_primitive_of_nonlinearity(self):
        # -dF/du equals the reaction term for both models (finite differences).
        u = np.linspace(-3.0, 3.0, 301)
        h = 1e-6
        for kind in (SG, AC):
            dF = (potential_values(kind, u + h) - potential_values(kind, u - h)) / (2 * h)
            grid = TorusGrid(1, 4)
            f = [float(nonlinearity(kind, Field.constant(grid, v)).values[0]) for v in u]
            assert np.max(np.abs(-dF - f)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2])),
                    min_size=1, max_size=300))
    def test_sine_gordon_sum_matches_cos(self, samples):
        # The recorder sums cos u through tan(u/2); each value is within 1.5 ulp(1) of np.cos.
        u = np.array(samples)
        assert abs(_potential_sum(SG, u) - float(np.cos(u).sum())) <= 4 * np.finfo(float).eps * u.size

    def test_sine_gordon_sum_exact_at_extremes(self):
        assert _potential_sum(SG, np.array([0.0])) == 1.0
        assert _potential_sum(SG, np.array([np.pi])) == -1.0
        assert _potential_sum(SG, np.array([-np.pi])) == -1.0
        assert _potential_sum(SG, np.full(1000, np.pi)) == -1000.0

    def test_allen_cahn_sum_bitwise_and_in_out(self, rng):
        u = rng.uniform(-3.0, 3.0, (16, 16))
        out = np.empty_like(u)
        assert _potential_sum(AC, u, out) == float(potential_values(AC, u).sum())
        assert np.array_equal(out, potential_values(AC, u))

    def test_overflowing_sums_raise(self):
        # finite u whose squares overflow (as run meets them in a blow-up, warnings silenced)
        grid = TorusGrid(1, 8)
        big, small = Field.constant(grid, 1e200), Field.constant(grid, -1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="potential"):
                _potential_sum(AC, big.values)
            with pytest.raises(NonFiniteError, match="increment"):
                _increment_energy(grid, big.values, small.values, 0.1)


class TestEnergy:
    def test_overflowing_energy_raises(self):
        # kappa^2 is finite, kappa^2/2 times the gradient term is not: energy() returned inf
        u = Field.from_function(TorusGrid(1, 16), lambda x: np.pi * np.sin(x))
        with pytest.raises(NonFiniteError, match="^energy is not finite$"):
            energy(ModelSpec(SG, 1.3e154), u)

    def test_constant_fields_exact(self):
        model = ModelSpec(SG, 0.1)
        grid1 = TorusGrid(1, 32)
        assert energy(model, Field.constant(grid1, np.pi)) == pytest.approx(-2 * np.pi, abs=1e-12)
        assert energy(model, Field.constant(grid1, 0.0)) == pytest.approx(2 * np.pi, abs=1e-12)
        # 2D: measure (2*pi)^2 times the potential, zero gradient term.
        grid2 = TorusGrid(2, 16)
        for a in (0.0, 0.8, 2.5):
            for kind in (SG, AC):
                expected = 4 * np.pi**2 * potential_values(kind, [a])[0]
                got = energy(ModelSpec(kind, 0.3), Field.constant(grid2, a))
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_pi_sin_oracle(self):
        grid = TorusGrid(1, 256)
        model = ModelSpec(SG, 0.1)
        u = Field.from_function(grid, lambda x: np.pi * np.sin(x))
        value = energy(model, u)
        potential, err = scipy.integrate.quad(
            lambda t: np.cos(np.pi * np.sin(t)), -np.pi, np.pi, limit=200
        )
        assert err < 1e-10
        oracle = 0.1**2 * np.pi**3 / 2 + potential
        assert value == pytest.approx(oracle, rel=1e-10)
        assert value == pytest.approx(ENERGY_PI_SIN_KAPPA01, rel=1e-12)

    def test_gradient_term_of_sin(self):
        kappa = 0.4
        grid = TorusGrid(1, 64)
        model = ModelSpec(SG, kappa)
        u = Field.from_function(grid, np.sin)
        gradient_term = energy(model, u) - integrate(
            Field(grid, potential_values(SG, u.values))
        )
        assert gradient_term == pytest.approx(kappa**2 * np.pi / 2, abs=1e-12)

    def test_gradient_term_matches_laplacian_form(self, rng):
        # energy() takes its gradient term in the Laplacian form
        # -kappa^2/2 * integral(u * Lap u); it equals the first-derivative form
        # plus the Nyquist mode first derivatives zero, also on rough data.
        for dim, n in [(1, 128), (2, 32)]:
            grid = TorusGrid(dim, n)
            model = ModelSpec(SG, 0.7)
            for u in (random_smooth_field(grid, rng), Field(grid, rng.standard_normal(grid.shape))):
                laplacian_form = energy(model, u) - integrate(Field(grid, potential_values(SG, u.values)))
                derivative_form = _derivative_form_gradient_energy(model.kappa, u)
                assert laplacian_form == pytest.approx(derivative_form, rel=1e-12, abs=1e-12)

    def test_shift_by_two_pi_invariant(self, rng):
        grid = TorusGrid(1, 64)
        model = ModelSpec(SG, 0.5)
        u = random_smooth_field(grid, rng)
        shifted = Field(grid, u.values + 2 * np.pi)
        assert energy(model, shifted) == pytest.approx(energy(model, u), abs=1e-12)

    def test_even_under_negation(self, rng):
        grid = TorusGrid(1, 64)
        u = random_smooth_field(grid, rng)
        for kind in (SG, AC):
            model = ModelSpec(kind, 0.5)
            assert energy(model, Field(grid, -u.values)) == pytest.approx(energy(model, u), abs=1e-12)


class TestModifiedEnergy:
    def test_zero_increment(self, rng):
        grid = TorusGrid(1, 32)
        model = ModelSpec(SG, 0.2)
        u = random_smooth_field(grid, rng)
        assert modified_energy(model, u, u, 0.25) == pytest.approx(energy(model, u), abs=1e-14)

    def test_constant_increment_value(self):
        grid = TorusGrid(1, 64)
        model = ModelSpec(SG, 0.2)
        u_curr = Field.constant(grid, np.pi)
        u_prev = Field.constant(grid, 0.0)
        expected = -2 * np.pi + 0.5 * np.pi**2 * 2 * np.pi
        assert modified_energy(model, u_curr, u_prev, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_increment_bitwise_and_in_out(self, rng):
        grid = TorusGrid(2, 16)
        u_curr, u_prev = random_smooth_field(grid, rng), random_smooth_field(grid, rng)
        out = np.empty(grid.shape)
        expected = integrate(Field(grid, (u_curr.values - u_prev.values) ** 2)) / (4.0 * 0.3)
        assert _increment_energy(grid, u_curr.values, u_prev.values, 0.3, out) == expected
        assert np.array_equal(out, (u_curr.values - u_prev.values) ** 2)

    def test_mismatched_grids_rejected(self):
        model = ModelSpec(SG, 0.2)
        with pytest.raises(ValueError):
            modified_energy(model, Field.zeros(TorusGrid(1, 32)), Field.zeros(TorusGrid(1, 64)), 0.5)
        with pytest.raises(ValueError):
            modified_energy(model, Field.zeros(TorusGrid(1, 32)), Field.zeros(TorusGrid(1, 32)), 0.0)

    def test_overflowing_increment_raises(self):
        # finite fields a step of 1 apart over tau = 1e-320: the increment term overflows to inf
        grid = TorusGrid(1, 16)
        with pytest.raises(NonFiniteError, match="^modified energy is not finite$"):
            modified_energy(ModelSpec(SG, 0.2), Field.constant(grid, 1.0), Field.zeros(grid), 1e-320)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        # a <= 0 test let these through: nan gave a nan energy, inf dropped the increment term
        u = Field.zeros(TorusGrid(1, 32))
        with pytest.raises(ValueError, match="^tau must be finite and > 0"):
            modified_energy(ModelSpec(SG, 0.2), u, u, tau)


class TestRescaling:
    def test_identity(self):
        form = rescale_general_to_standard(GeneralModelParams(kappa=0.5, beta=1.0, gamma=1.0))
        assert form == (0.5, 1.0, 1.0)

    def test_derived_case(self):
        form = rescale_general_to_standard(GeneralModelParams(kappa=1.0, beta=2.0, gamma=2.0))
        assert form.standard_kappa == pytest.approx(0.5, abs=1e-15)
        assert form.time_scale == 4.0
        assert form.amplitude_scale == 2.0

    @pytest.mark.parametrize("params,standard_kappa", [
        ((1.0, 1e200, 1e200), None),  # gamma*beta overflows: kappa 0.0 and time scale inf
        ((1.0, 1e-200, 1e-200), None),  # gamma*beta underflows: ZeroDivisionError
        ((1e150, 1e-160, 1e-160), None),  # kappa/sqrt(gamma*beta) overflows
        ((1e-200, 1.0, 1.0), 1e-200),  # kappa^2 underflows to 0.0
    ], ids=["gamma-beta-overflow", "gamma-beta-underflow", "kappa-overflow", "kappa-square-underflow"])
    def test_extreme_inputs(self, params, standard_kappa):
        if standard_kappa is None:
            with pytest.raises(ValueError, match="must be finite and > 0"):
                rescale_general_to_standard(GeneralModelParams(*params))
        else:
            assert rescale_general_to_standard(GeneralModelParams(*params)).standard_kappa == standard_kappa

    def test_twin_run_equivalence(self):
        # Stepping the generalized equation directly matches stepping the
        # standard form and mapping back: the change of variables commutes
        # with the implicit-explicit discretization exactly.
        params = GeneralModelParams(kappa=0.8, beta=2.0, gamma=1.5)
        form = rescale_general_to_standard(params)
        grid = TorusGrid(1, 64)
        (x,) = grid.coords()
        v = Field(grid, 0.7 * np.sin(x) + 0.2 * np.cos(2 * x))
        u = Field(grid, form.amplitude_scale * v.values)

        h_general = 0.05
        h_standard = form.time_scale * h_general
        for _ in range(40):
            rhs_general = v.values + h_general * params.gamma * np.sin(params.beta * v.values)
            v = helmholtz_solve(Field(grid, rhs_general), params.kappa, a=1.0, b=h_general)
            rhs_standard = u.values + h_standard * np.sin(u.values)
            u = helmholtz_solve(Field(grid, rhs_standard), form.standard_kappa, a=1.0, b=h_standard)
        mapped_back = u.values / form.amplitude_scale
        assert np.max(np.abs(mapped_back - v.values)) <= 1e-12
