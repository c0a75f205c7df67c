"""Time steppers: exact reductions, symmetries, dissipation and boundedness."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import psg.grid
import psg.models
import psg.schemes

from psg import (
    Field,
    ModelKind,
    ModelSpec,
    NonFiniteError,
    SchemeKind,
    TorusGrid,
    energy,
    helmholtz_solve,
    laplacian,
    modified_energy,
    monitor_reports,
    nonlinearity,
    run,
    run_steps,
)
from psg.grid import _apply_multiplier, _helmholtz_multiplier
from conftest import random_smooth_field

SG = ModelSpec(ModelKind.SINE_GORDON, 0.5)
AC = ModelSpec(ModelKind.ALLEN_CAHN, 0.5)


def iterates(u0, model, scheme, tau, n_steps):
    """Copies of u's values after steps 1..n_steps (run_steps reuses its buffers)."""
    return [u.values.copy() for u, _ in run_steps(u0, model, scheme, tau, n_steps)]


def peak_fields_after_warmup(grid, step):
    """Peak memory step allocates over 10 calls after 3 warm-up calls, in field sizes (tracemalloc)."""
    tracemalloc.start()
    try:
        for _ in range(3):
            step()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * grid.size)


def trig_poly_field(grid, coeffs, amplitude):
    """amplitude * p / max(|p|, 1) for the trigonometric polynomial p with the given (cos, sin) pairs; p(x)p(y) in 2D."""
    def poly(x):
        return sum(a * np.cos(m * x) + b * np.sin(m * x) for m, (a, b) in enumerate(zip(coeffs[::2], coeffs[1::2])))
    values = np.prod([poly(x) for x in grid.coords()], axis=0)
    return Field(grid, amplitude * values / max(np.max(np.abs(values)), 1.0))


def rough_values(grid, kind, level, spread, seed, top, sign):
    """Rough data in [-top, top]: the constant level, a random pattern of +-sign, or noise about level clipped to top."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return np.full(grid.shape, level)
    if kind == "signs":
        return sign * rng.choice([-1.0, 1.0], grid.shape)
    return np.clip(level + spread * rng.uniform(-1.0, 1.0, grid.shape), -top, top)


SMALL_GRIDS = [TorusGrid(1, n) for n in (4, 8, 16, 32)] + [TorusGrid(2, n) for n in (4, 8, 16)]


def constant_run(value, model, scheme, tau, n_steps, n=64):
    return iterates(Field.constant(TorusGrid(1, n), value), model, scheme, tau, n_steps)


class TestConstantReductions:
    def test_imex_zero_fixed_point(self):
        (u1,) = constant_run(0.0, SG, SchemeKind.IMEX1, 0.7, 1)
        assert np.max(np.abs(u1)) == 0.0

    @pytest.mark.parametrize("a,tau", [(1.2, 0.7), (-2.0, 0.25), (3.0, 1.0)])
    def test_imex_scalar_recurrence(self, a, tau):
        value = a
        for u in constant_run(a, SG, SchemeKind.IMEX1, tau, 10):
            value = value + tau * math.sin(value)
            assert np.max(np.abs(u - value)) <= 1e-14 * max(1.0, abs(value))

    def test_imex_scalar_recurrence_allen_cahn(self):
        tau, a = 0.2, 0.6
        (u1,) = constant_run(a, AC, SchemeKind.IMEX1, tau, 1)
        expected = a + tau * (a - a**3)
        assert np.max(np.abs(u1 - expected)) <= 1e-14

    def test_imex_scalar_recurrence_2d(self):
        tau, a = 0.5, 1.1
        (u1,) = iterates(Field.constant(TorusGrid(2, 16), a), SG, SchemeKind.IMEX1, tau, 1)
        expected = a + tau * math.sin(a)
        assert np.max(np.abs(u1 - expected)) <= 1e-14

    def test_bdf2_pi_is_steady(self):
        for u in constant_run(np.pi, SG, SchemeKind.BDF2, 0.5, 5):
            assert np.all(u == np.pi)

    @staticmethod
    def bdf2_scalar(a, tau, f, n_steps):
        """The scalar BDF2 recurrence from a constant a, kick-started by one imex1 step."""
        prev, curr = a, a + tau * f(a)
        values = [curr]
        for _ in range(n_steps - 1):
            prev, curr = curr, (2 * curr - prev / 2 + tau * (2 * f(curr) - f(prev))) / 1.5
            values.append(curr)
        return values

    @pytest.mark.parametrize("a,tau", [(1.0, 0.4), (-0.7, 0.1)])
    def test_bdf2_scalar_recurrence(self, a, tau):
        expected = self.bdf2_scalar(a, tau, math.sin, 10)
        for u, value in zip(constant_run(a, SG, SchemeKind.BDF2, tau, 10), expected, strict=True):
            assert np.max(np.abs(u - value)) <= 1e-14

    def test_bdf2_scalar_recurrence_allen_cahn(self):
        a, tau = 0.4, 0.25
        expected = self.bdf2_scalar(a, tau, lambda v: v - v**3, 10)
        for u, value in zip(constant_run(a, AC, SchemeKind.BDF2, tau, 10), expected, strict=True):
            assert np.max(np.abs(u - value)) <= 1e-14


class TestKickstart:
    def test_zero_stays_zero(self):
        ((u, record),) = run_steps(Field.zeros(TorusGrid(1, 32)), SG, SchemeKind.BDF2, 0.3, 1)  # no later step
        assert record.step_index == 1
        assert np.max(np.abs(u.values)) == 0.0

    def test_constant_half_pi(self):
        (u1,) = constant_run(np.pi / 2, SG, SchemeKind.BDF2, 0.5, 1, n=32)
        assert np.max(np.abs(u1 - (np.pi / 2 + 0.5))) <= 1e-14

    def test_matches_imex_step_bitwise(self):
        grid = TorusGrid(1, 128)
        u0 = Field.from_function(grid, lambda x: np.pi * np.sin(x))
        model = ModelSpec(ModelKind.SINE_GORDON, 0.1)
        ((kicked, _),) = run_steps(u0, model, SchemeKind.BDF2, 0.25, 1)  # one step each: no later
        ((stepped, _),) = run_steps(u0, model, SchemeKind.IMEX1, 0.25, 1)  # step overwrites them
        assert np.array_equal(kicked.values, stepped.values)

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="^tau must be finite and > 0"):
            run(Field.zeros(TorusGrid(1, 32)), SG, SchemeKind.BDF2, 0.0, 3)


class TestPreconditions:
    @pytest.mark.parametrize("entry", ["_advance", "run"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, entry, tau):
        # unchecked, the error named the Helmholtz multiplier's b instead of tau
        u = Field.zeros(TorusGrid(1, 32))
        calls = {
            "_advance": lambda: next(psg.schemes._advance(u.grid, u.values, SG, SchemeKind.IMEX1, tau, 3)),
            "run": lambda: run(u, SG, SchemeKind.IMEX1, tau, 3),
        }
        with pytest.raises(ValueError, match="^tau must be finite and > 0"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["run_steps", "run"])
    def test_run_length_capped(self, entry, monkeypatch):
        # the 10^9-step bound every ExperimentConfig enforces holds for library runs too, before any step
        monkeypatch.setattr(psg.schemes, "_apply_multiplier", lambda *args: pytest.fail("a step was taken"))
        u = Field.zeros(TorusGrid(1, 32))
        calls = {
            "run_steps": lambda: next(run_steps(u, SG, SchemeKind.IMEX1, 0.1, 10**9 + 1)),
            "run": lambda: run(u, SG, SchemeKind.IMEX1, 0.1, 10**9 + 1),
        }
        with pytest.raises(ValueError, match="^n_steps must be <= 1000000000, got 1000000001$"):
            calls[entry]()


class TestSymmetries:
    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_odd_symmetry(self, scheme, rng):
        grid = TorusGrid(1, 128)
        u0 = random_smooth_field(grid, rng)
        plus = run(u0, SG, scheme, 0.2, 20)
        minus = run(Field(grid, -u0.values), SG, scheme, 0.2, 20)
        assert abs(plus[-1].u_max + minus[-1].u_min) <= 1e-13
        assert abs(plus[-1].energy - minus[-1].energy) <= 1e-12

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_translation_equivariance(self, scheme, rng):
        grid = TorusGrid(1, 128)
        u0 = random_smooth_field(grid, rng)
        shift = 7

        def final(u_start):
            return iterates(u_start, SG, scheme, 0.2, 10)[-1]

        shifted_then_stepped = final(Field(grid, np.roll(u0.values, shift)))
        stepped_then_shifted = np.roll(final(u0), shift)
        assert np.max(np.abs(shifted_then_stepped - stepped_then_shifted)) <= 1e-12


class TestGuarantees:
    def test_discrete_max_principle(self, rng):
        # Boundedness by pi for tau <= 1; n = 256 resolves the implicit
        # operator's kernel (coarser grids distort it measurably).
        grid = TorusGrid(1, 256)
        for kappa in (0.1, 0.5, 1.0):
            model = ModelSpec(ModelKind.SINE_GORDON, kappa)
            for tau in (0.25, 0.5, 1.0):
                u0 = random_smooth_field(grid, rng, target_linf=np.pi)
                records = run(u0, model, SchemeKind.IMEX1, tau, 60)
                report = monitor_reports(records)[0].maxp
                assert not report.violated, f"kappa={kappa} tau={tau}: {report}"

    def test_imex_energy_dissipation_up_to_tau_two(self, rng):
        grid = TorusGrid(1, 256)
        for tau in (0.5, 2.0):
            for _ in range(5):
                u0 = random_smooth_field(grid, rng, target_linf=rng.uniform(0.5, 1.0) * np.pi)
                records = run(u0, SG, SchemeKind.IMEX1, tau, 50)
                assert not monitor_reports(records)[0].energy.violated
                # the u0 -> u1 comparison is not in the series; check it directly
                assert records[0].energy <= energy(SG, u0) + 1e-10 * (1 + abs(energy(SG, u0)))

    def test_bdf2_modified_energy_dissipation(self, rng):
        grid = TorusGrid(1, 256)
        for tau in (0.1, 0.5):
            for _ in range(5):
                u0 = random_smooth_field(grid, rng, target_linf=rng.uniform(0.5, 1.0) * np.pi)
                records = run(u0, SG, SchemeKind.BDF2, tau, 50)
                assert not monitor_reports(records)[0].modified_energy.violated

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(0.1, 1.0),
        tau=st.floats(1e-9, 0.5),  # below ~1e-21 a step's rounding, squared over 4*tau, outgrows the slack
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        amplitude=st.floats(0.0, np.pi),
    )
    def test_bdf2_modified_energy_decay_property(self, kappa, tau, coeffs, amplitude):
        """bdf2 dissipates E + ||u_n - u_{n-1}||^2/(4 tau) for tau <= 1/2 and any |u0| <= pi."""
        u0 = trig_poly_field(TorusGrid(1, 32), coeffs, amplitude)
        records = run(u0, ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.BDF2, tau, 50)
        assert not monitor_reports(records)[0].modified_energy.violated

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        n=st.integers(4, 32).map(lambda half: 2 * half),
        kappa=st.floats(0.02, 2.0),
        tau=st.one_of(st.just(2.0), st.floats(1e-6, 2.0)),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        amplitude=st.floats(0.0, 12.0),
        noise=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_imex1_energy_decay_property(self, dim, n, kappa, tau, coeffs, amplitude, noise, seed):
        """imex1 dissipates E for tau <= 2 from any data, rough and far above pi included."""
        grid = TorusGrid(dim, n)
        smooth = trig_poly_field(grid, coeffs, amplitude).values
        u0 = Field(grid, smooth + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
        model = ModelSpec(ModelKind.SINE_GORDON, kappa)
        records = run(u0, model, SchemeKind.IMEX1, tau, 60)
        assert not monitor_reports(records)[0].energy.violated
        # the u0 -> u1 comparison is not in the series; check it directly
        assert records[0].energy <= energy(model, u0) + 1e-10 * (1 + abs(energy(model, u0)))

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from([TorusGrid(1, n) for n in (4, 8, 16, 32)] + [TorusGrid(2, n) for n in (4, 8, 16)]),
        tau=st.floats(0.0, 2.0, exclude_min=True),
        kappa=st.floats(0.05, 1.0),
        center=st.one_of(st.sampled_from([0.0, np.pi, -np.pi]), st.floats(-6.0, 6.0)),
        spread=st.floats(0.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_imex1_energy_inequality_property(self, grid, tau, kappa, center, spread, seed):
        """One imex1 step: E(u1) - E(u0) <= -(1/tau - 1/2)||d||^2 - (kappa^2/2)||grad d||^2, d = u1 - u0.

        The scheme's inner product with d, a Taylor expansion of F = cos with |F''| <= 1 and
        2<grad u1, grad d> = ||grad u1||^2 - ||grad u0||^2 + ||grad d||^2 give it for any tau > 0.
        The left side is formed without cancellation: the integral of cos u1 - cos u0 as
        -2 sin((u1+u0)/2) sin(d/2), and ||grad u1||^2 - ||grad u0||^2 as -<u1 + u0, Lap d>. Both
        sides are taken times tau, so 1/tau never overflows. The slack is absolute, 4 eps times
        what one rounding of u1's entries can move each term by: (1 + max|u0| + max|u1|) times
        integral(|d| + tau*(|d| + kappa^2 |Lap d|)). Once d is roundoff (tau below about eps) the
        sides differ by that much; over 32000 random steps the difference was at most 1.0 eps of it.
        """
        u0 = np.clip(center + spread * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape), -6.0, 6.0)
        model = ModelSpec(ModelKind.SINE_GORDON, kappa)
        u1 = next(run_steps(Field(grid, u0), model, SchemeKind.IMEX1, tau, 1))[0].values
        d = u1 - u0
        lap_d = laplacian(Field(grid, d)).values
        h = grid.spacing**grid.dim
        change = tau * h * np.sum(-2.0 * np.sin(0.5 * (u1 + u0)) * np.sin(0.5 * d) - 0.5 * kappa**2 * (u1 + u0) * lap_d)
        bound = -h * np.sum((1.0 - 0.5 * tau) * d * d - 0.5 * tau * kappa**2 * d * lap_d)
        scale = (1.0 + np.max(np.abs(u0)) + np.max(np.abs(u1))) * h * np.sum(
            np.abs(d) + tau * (np.abs(d) + kappa**2 * np.abs(lap_d)))
        assert change <= bound + 4.0 * np.finfo(float).eps * scale

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from(SMALL_GRIDS),
        tau=st.one_of(st.just(0.5), st.floats(0.0, 0.5, exclude_min=True)),
        kappa=st.floats(0.05, 1.0),
        kind=st.sampled_from(["uniform", "signs", "noise"]),
        level=st.floats(-6.0, 6.0),
        spread=st.floats(0.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bdf2_modified_energy_inequality_property(self, grid, tau, kappa, kind, level, spread, seed):
        """Each bdf2 step from step 2 on: E~(c) - E~(b) <= 0, E~(u_n) = E(u_n) + ||u_n - u_{n-1}||^2/(4 tau).

        With (a, b, c) = (u_{n-1}, u_n, u_{n+1}) the change is formed without cancellation, as three parts:
        the potential's -2 sin((c+b)/2) sin((c-b)/2), the gradient's -(kappa^2/2)<c + b, Lap(c - b)>, and
        the increment's <c - a, c - 2b + a>/(4 tau). It is taken times tau, so 1/tau never overflows, against
        4 eps times the iterate scale (1 + max|a| + max|b| + max|c|) times
        integral(|c - a| + |c - 2b + a| + tau*(|c - b| + kappa^2 |Lap(c - b)|)). Over 9000 random draws down
        to tau = 1e-12 (five steps each), no change was positive.
        """
        u0 = rough_values(grid, kind, level, spread, seed, top=6.0, sign=np.pi)
        us = [u0] + iterates(Field(grid, u0), ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.BDF2, tau, 6)
        h = grid.spacing**grid.dim
        for a, b, c in zip(us, us[1:], us[2:]):
            lap = laplacian(Field(grid, c - b)).values
            change = tau * h * np.sum(-2.0 * np.sin(0.5 * (c + b)) * np.sin(0.5 * (c - b))
                                      - 0.5 * kappa**2 * (c + b) * lap) + 0.25 * h * np.sum((c - a) * (c - 2.0 * b + a))
            scale = (1.0 + np.max(np.abs(a)) + np.max(np.abs(b)) + np.max(np.abs(c))) * h * np.sum(
                np.abs(c - a) + np.abs(c - 2.0 * b + a) + tau * (np.abs(c - b) + kappa**2 * np.abs(lap)))
            assert change <= 4.0 * np.finfo(float).eps * scale

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from(SMALL_GRIDS),
        tau=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        kappa=st.floats(0.05, 1.0),
        kind=st.sampled_from(["uniform", "signs", "noise"]),
        level=st.floats(-1.0, 1.0),
        spread=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_allen_cahn_imex1_energy_inequality_property(self, grid, tau, kappa, kind, level, spread, seed):
        """One Allen-Cahn imex1 step within [-1, 1]: E(u1) - E(u0) <= -(1/tau - 1)||d||^2 - (kappa^2/2)||grad d||^2.

        The sine-Gordon inequality's derivation needs only sup F'' on the segment from u0 to u1, and for
        F = (u^2 - 1)^2/4 that is 3u^2 - 1 <= 2 where |u0|, |u1| <= 1. The potential's change is formed without
        cancellation, as d (u1 + u0)(u1^2 + u0^2 - 2)/4, and both sides are taken times tau, with the sine-Gordon
        test's slack. Over 6400 kept random steps the left side exceeded the right by at most 0.22 eps of its scale.
        """
        u0 = rough_values(grid, kind, level, spread, seed, top=1.0, sign=1.0)
        u1 = iterates(Field(grid, u0), ModelSpec(ModelKind.ALLEN_CAHN, kappa), SchemeKind.IMEX1, tau, 1)[0]
        assume(np.max(np.abs(u1)) <= 1.0)
        d = u1 - u0
        lap_d = laplacian(Field(grid, d)).values
        h = grid.spacing**grid.dim
        change = tau * h * np.sum(0.25 * d * (u1 + u0) * (u1 * u1 + u0 * u0 - 2.0) - 0.5 * kappa**2 * (u1 + u0) * lap_d)
        bound = -h * np.sum((1.0 - tau) * d * d - 0.5 * tau * kappa**2 * d * lap_d)
        scale = (1.0 + np.max(np.abs(u0)) + np.max(np.abs(u1))) * h * np.sum(
            np.abs(d) + tau * (np.abs(d) + kappa**2 * np.abs(lap_d)))
        assert change <= bound + 4.0 * np.finfo(float).eps * scale

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        n=st.sampled_from([32, 64]),
        kappa_frac=st.floats(0.0, 1.0),
        tau=st.floats(1e-6, 1.0),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        amplitude=st.floats(0.0, np.pi),
    )
    def test_imex1_max_principle_property(self, dim, n, kappa_frac, tau, coeffs, amplitude):
        """imex1 keeps ||u||_inf <= pi for tau <= 1 from smooth data with |u0| <= pi and kappa >= 5h.

        kappa >= 5h is not the condition: at small tau it leaves the solve's kernel R negative lobes, and
        sign-pattern data then exceed pi (test_one_step_sup_norm_pinned). The condition is R >= 0
        (test_imex1_max_principle_where_kernel_nonnegative); smooth data like these stay within pi without it.
        """
        grid = TorusGrid(dim, n)
        kappa = 5 * grid.spacing + kappa_frac * (1.0 - 5 * grid.spacing)
        u0 = trig_poly_field(grid, coeffs, amplitude)
        records = run(u0, ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.IMEX1, tau, 40)
        assert not monitor_reports(records)[0].maxp.violated

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.one_of(st.integers(2, 32).map(lambda half: TorusGrid(1, 2 * half)),
                       st.integers(2, 16).map(lambda half: TorusGrid(2, 2 * half))),
        tau=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        stiffness=st.floats(0.0, 3.0),  # log10 of tau*kappa^2/h^2
        data=st.sampled_from(["uniform", "signs", "clipped"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_imex1_max_principle_where_kernel_nonnegative(self, grid, tau, stiffness, data, seed):
        # One step keeps |u| <= pi*||R||_1, which is pi where the kernel R is nonnegative; so do the steps after
        # it. Rough data |u0| <= pi: uniform values, +-pi sign patterns (which attain the bound when R has
        # negative lobes) and clipped noise. Measured on 202 such draws: the worst ||u||_inf - pi was 1.3e-15,
        # the solve's rounding, which maxp's 1e-12 slack admits.
        kappa = grid.spacing * np.sqrt(10.0**stiffness / tau)
        kernel = np.fft.irfftn(_helmholtz_multiplier(grid, kappa, 1.0, tau), s=grid.shape, axes=range(grid.dim))
        assume(kernel.min() >= 0.0)
        rng = np.random.default_rng(seed)
        values = {"uniform": lambda: rng.uniform(-np.pi, np.pi, grid.shape),
                  "signs": lambda: np.pi * rng.choice([-1.0, 1.0], grid.shape),
                  "clipped": lambda: np.clip(3.0 * rng.standard_normal(grid.shape), -np.pi, np.pi)}[data]()
        records = run(Field(grid, values), ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.IMEX1, tau, 50)
        assert not monitor_reports(records)[0].maxp.violated

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n,tau,kappa_h", [(64, 1.0, 1.0), (64, 0.25, 4.0), (64, 1.0, 3.0), (32, 0.5, 2.0)])
    def test_one_step_sup_norm_bound_is_attained(self, dim, n, tau, kappa_h):
        # x + tau*sin x maps [-pi, pi] onto itself for tau <= 1, so one imex1 step from
        # |u0| <= pi gives |u1| <= pi*||R||_1, R = irfft(multiplier) being the solve's kernel,
        # and u0 = pi*sign(R reflected) attains the bound at node 0 (sin u0 = 0 there). The
        # bound is pi exactly when R >= 0: at n=64, tau=1 from kappa/h = 3 on, not at kappa/h = 1.
        grid = TorusGrid(dim, n)
        kappa = kappa_h * grid.spacing
        kernel = np.fft.irfftn(_helmholtz_multiplier(grid, kappa, 1.0, tau), s=grid.shape, axes=range(dim))
        reflected = kernel[np.ix_(*[-np.arange(n) % n] * dim)]
        u0 = Field(grid, np.pi * np.sign(reflected))
        u1 = next(run_steps(u0, ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.IMEX1, tau, 1))[0]
        bound = np.pi * np.abs(kernel).sum()
        assert abs(u1.linf() - bound) <= 8 * np.spacing(np.pi)
        assert abs(u1.values.flat[0]) == u1.linf()
        assert (kernel.min() >= 0) == (u1.linf() <= np.pi + 1e-12)

    def test_one_step_sup_norm_pinned(self):
        # Two 1D cases above, pinned: kappa/h = 1 at tau = 1 exceeds pi by 1.20e-2, and kappa/h = 4
        # at tau = 0.25 (past the old "kappa/h >= 2.5" rule) by 8.88e-4; the maxp monitor flags step 1.
        grid = TorusGrid(1, 64)
        for tau, kappa_h, linf, excess in ((1.0, 1.0, 3.153558574520634, 1.1966e-2),
                                           (0.25, 4.0, 3.142480926799757, 8.883e-4)):
            kappa = kappa_h * grid.spacing
            kernel = np.fft.irfft(_helmholtz_multiplier(grid, kappa, 1.0, tau), n=64)
            u0 = Field(grid, np.pi * np.sign(kernel[-np.arange(64) % 64]))
            records = run(u0, ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.IMEX1, tau, 20)
            assert records[0].linf == linf
            assert records[0].linf - np.pi == pytest.approx(excess, rel=1e-4)
            assert monitor_reports(records)[0].maxp.first_violation_step == 1

    def test_imex1_tau_bound_is_sharp(self):
        # At the energy minimum u = pi the mean mode v of u = pi + v maps to (1 - tau)*v, so the
        # energy rises exactly when tau > 2: clean over 200 steps at tau = 2, rising at 2.01.
        u0 = Field.constant(TorusGrid(1, 16), np.pi + 0.01)
        model = ModelSpec(ModelKind.SINE_GORDON, 0.1)
        for tau, first in ((2.0, None), (2.01, 2)):
            records = run(u0, model, SchemeKind.IMEX1, tau, 200)
            assert monitor_reports(records)[0].energy.first_violation_step == first
            assert (records[0].energy <= energy(model, u0)) == (first is None)  # u0 -> u1 too

    def test_sg_max_principle_tau_bound_is_sharp(self):
        # g(u) = u + tau*sin u is nondecreasing exactly when tau <= 1. From the constant at g's critical
        # point arccos(-1/tau), one imex1 step gives g's maximum arccos(-1/tau) + sqrt(tau^2 - 1): pi exactly
        # at tau = 1, where maxp stays silent, and past pi at tau = 1.01, where maxp fires at step 1.
        grid, model = TorusGrid(1, 16), ModelSpec(ModelKind.SINE_GORDON, 0.1)
        records = run(Field.constant(grid, math.acos(-1.0)), model, SchemeKind.IMEX1, 1.0, 3)
        assert records[0].linf == np.pi
        assert not monitor_reports(records)[0].maxp.violated
        tau = 1.01
        records = run(Field.constant(grid, math.acos(-1.0 / tau)), model, SchemeKind.IMEX1, tau, 3)
        assert monitor_reports(records)[0].maxp.first_violation_step == 1
        closed_form = math.acos(-1.0 / tau) + math.sqrt(tau**2 - 1.0) - np.pi
        assert abs(records[0].linf - np.pi - closed_form) <= 1e-12
        assert records[0].linf - np.pi == pytest.approx(9.385952211609e-4, rel=1e-12)

    def test_ac_max_principle_tau_bound_is_sharp(self):
        # Allen-Cahn's L = sup(-f') on [-1, 1] is 2, so the bound 1 holds for tau <= 1/2: g(u) = u + tau*(u - u^3)
        # peaks at c = sqrt((1 + tau)/(3*tau)), inside [-1, 1] exactly when tau >= 1/2. One imex1 step from that
        # constant gives g(c): 1 exactly at tau = 1/2, and past 1 at tau = 0.51.
        grid, model = TorusGrid(1, 16), ModelSpec(ModelKind.ALLEN_CAHN, 0.1)
        for tau, excess in ((0.5, 0.0), (0.51, 6.550257511306e-5)):
            c = math.sqrt((1.0 + tau) / (3.0 * tau))
            records = run(Field.constant(grid, c), model, SchemeKind.IMEX1, tau, 3)
            assert abs(records[0].linf - 1.0 - (c + tau * (c - c**3) - 1.0)) <= 1e-12
            assert records[0].linf - 1.0 == pytest.approx(excess, rel=1e-12, abs=0.0)  # exactly 1 at tau = 1/2

    def test_bdf2_tau_threshold_pinned(self):
        # After the imex1 kick-start, the mean mode v of u = pi + v raises bdf2's modified energy at step 2
        # exactly when tau > 1.28402, the root of D2 = D1 with D_n = v_n^2/2 + (v_n - v_{n-1})^2/(4*tau): clean
        # over 200 steps at tau = 1.284, first flagged at step 2 (excess 6.7e-7) at 1.285.
        u0 = Field.constant(TorusGrid(1, 16), np.pi + 0.01)
        model = ModelSpec(ModelKind.SINE_GORDON, 0.1)
        clean = monitor_reports(run(u0, model, SchemeKind.BDF2, 1.284, 200))[0].modified_energy
        assert not clean.violated
        rising = monitor_reports(run(u0, model, SchemeKind.BDF2, 1.285, 200))[0].modified_energy
        assert rising.first_violation_step == 2
        assert rising.worst_excess == pytest.approx(6.7e-7, rel=0.01)

    def test_bdf2_tau_threshold_pinned_allen_cahn(self):
        # The same threshold for Allen-Cahn's mean mode, whose linearization f'(1) = -2 is sine-Gordon's at pi
        # (f'(pi) = cos(pi) = -1) scaled by 2: clean over 200 steps at tau = 0.641, first flagged at step 2
        # (excess 1.34e-8) at 0.642; bisection puts it at 0.64152 (from 1.01: 0.63716, from 0.99: 0.64711),
        # against sine-Gordon's 1.28402 / 2 = 0.64201.
        u0 = Field.constant(TorusGrid(1, 16), 1.001)
        model = ModelSpec(ModelKind.ALLEN_CAHN, 0.1)
        clean = monitor_reports(run(u0, model, SchemeKind.BDF2, 0.641, 200))[0].modified_energy
        assert not clean.violated
        rising = monitor_reports(run(u0, model, SchemeKind.BDF2, 0.642, 200))[0].modified_energy
        assert rising.first_violation_step == 2
        assert rising.worst_excess == pytest.approx(1.34e-8, rel=0.01)

    def test_max_principle_fails_on_unresolved_kinks(self):
        # The discrete resolvent 1/(1 + tau*kappa^2*|k|^2) is not positivity-preserving: at
        # kappa/h = 0.32 the reaction steepens u0 = sin 3x into kinks the grid cannot resolve,
        # and the iterates overshoot pi.
        u0 = Field.from_function(TorusGrid(1, 32), lambda x: np.sin(3 * x))
        records = run(u0, ModelSpec(ModelKind.SINE_GORDON, 0.0625), SchemeKind.IMEX1, 1.0, 10)
        report = monitor_reports(records)[0].maxp
        assert report.first_violation_step == 4
        assert report.worst_excess > 1e-2


class TestRun:
    def test_step_count_and_time(self):
        grid = TorusGrid(1, 64)
        u0 = Field.from_function(grid, lambda x: 0.5 * np.sin(x))
        records = run(u0, SG, SchemeKind.IMEX1, 0.1, 42)
        assert len(records) == 42
        assert records[0].step_index == 1
        assert records[-1].step_index == 42
        assert records[-1].t == pytest.approx(4.2, rel=1e-14)

    def test_preconditions(self):
        u0 = Field.zeros(TorusGrid(1, 64))
        with pytest.raises(ValueError):
            run(u0, SG, SchemeKind.IMEX1, 0.1, 0)
        with pytest.raises(ValueError):
            run(u0, SG, SchemeKind.IMEX1, -0.1, 5)

    def test_deterministic(self, rng):
        grid = TorusGrid(1, 64)
        u0 = random_smooth_field(grid, rng)
        assert run(u0, SG, SchemeKind.BDF2, 0.2, 10) == run(u0, SG, SchemeKind.BDF2, 0.2, 10)

    def test_records_match_recomputation(self, rng):
        # The recorder takes E from the Parseval sum the solve took of its spectrum: solving
        # each step's right-hand side afresh (built as in test_carried_nonlinearity_bitwise)
        # gives the same sum bitwise. energy() transforms u itself, so it agrees to roundoff.
        grid = TorusGrid(1, 64)
        u0 = random_smooth_field(grid, rng)
        tau = 0.25

        def f(values):
            return nonlinearity(SG.kind, Field(grid, values)).values

        records = run(u0, SG, SchemeKind.BDF2, tau, 15)
        steps = psg.schemes._advance(u0.grid, u0.values, SG, SchemeKind.BDF2, tau, 15)
        prev, curr = None, u0.values
        for record, (u, row) in zip(records, steps, strict=True):  # u is valid only inside the loop
            if prev is None:  # the imex1 kick-start
                rhs, a = curr + tau * f(curr), 1.0
            else:
                rhs, a = 2.0 * curr - 0.5 * prev + tau * (2.0 * f(curr) - f(prev)), 1.5
            solved, gradient = _apply_multiplier(grid, rhs, _helmholtz_multiplier(grid, SG.kappa, a, tau),
                                                 gradient=True)
            assert row is None  # an unrecorded stream
            assert np.array_equal(solved, u)
            assert record.energy == psg.models._energy(SG, grid, u, gradient)
            u = Field(grid, u)  # the public energies take Fields
            assert record.energy == pytest.approx(energy(SG, u), rel=1e-12)
            assert record.modified_energy == pytest.approx(modified_energy(SG, u, Field(grid, curr), tau), rel=1e-12)
            assert record.linf == u.linf()
            prev, curr = curr, u.values.copy()
        assert len(records) == 15

    def test_stepper_yields_arrays_and_run_steps_wraps_them(self, monkeypatch):
        # Inside, a solve returns the array it solved into and the step loop yields that ring slot;
        # run_steps wraps the very slot in a Field, with no copy and no second whole-array check.
        grid = TorusGrid(1, 16)
        u0 = Field.from_function(grid, np.sin)
        spec, out = np.empty(grid._rfft_shape, dtype=np.complex128), np.empty(grid.shape)
        assert _apply_multiplier(grid, u0.values, -grid._squared_wavenumbers(), spec, out)[0] is out
        steps = psg.schemes._advance(grid, u0.values, SG, SchemeKind.BDF2, 0.1, 3)
        ring = [next(steps)[0] for _ in range(3)]
        assert all(type(u) is np.ndarray for u in ring)
        assert ring[0] is ring[2] and ring[1] is not ring[0]
        inits, post_init = [], Field.__post_init__

        def counted(field):
            inits.append(field)
            post_init(field)
        monkeypatch.setattr(Field, "__post_init__", counted)
        fields = [u for u, _ in run_steps(u0, SG, SchemeKind.BDF2, 0.1, 3)]
        assert inits == []  # after u0, no Field runs __post_init__
        assert fields[0].values is fields[2].values and fields[1].values is not fields[0].values
        assert all(type(u.values) is np.ndarray and u.grid is grid for u in fields)

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_consumer_keeps_its_numpy_error_settings(self, scheme):
        # Each step runs with overflow warnings silenced, but only the step: the code
        # consuming the stream runs between steps under its own np.errstate.
        u0 = Field.from_function(TorusGrid(1, 32), lambda x: np.sin(x))
        with np.errstate(all="raise"):
            expected = np.geterr()
            seen = [np.geterr() for _ in run_steps(u0, SG, scheme, 0.1, 4)]
        assert seen == [expected] * 4

    @pytest.mark.parametrize("scheme,record", [
        pytest.param(scheme, record, id=f"{scheme}{'' if record else '-unrecorded'}")
        for scheme in SchemeKind for record in (True, False)
    ])
    def test_one_transform_pair_and_nonlinearity_per_step(self, scheme, record, monkeypatch):
        # A step is its Helmholtz solve's transform pair (in 2D the forward transform is
        # rfftn's stages, rfft then fft, and the inverse irfftn's, ifft then irfft) and one
        # evaluation of f: the energy reuses the solve's spectrum, and BDF2 carries f(u_prev)
        # over from the step before (the kick-start's f(u0)). Unrecorded, a step forms the
        # next one's right-hand side in its last row stage, but the last step forms none.
        counts = {"rfft": 0, "fft": 0, "ifft": 0, "irfft": 0, "rfftn": 0, "irfftn": 0, "_reaction": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("rfft", "fft", "ifft", "irfft", "rfftn", "irfftn"):
            counted(np.fft, name)
        counted(psg.schemes, "_reaction")
        u0 = Field.from_function(TorusGrid(2, 16), lambda x, y: np.sin(x) * np.cos(y))
        rows = [row for _, row in psg.schemes._advance(u0.grid, u0.values, SG, scheme, 0.1, 7, record=record)]
        assert len(rows) == 7 and all((row is not None) == record for row in rows)
        assert counts == {"rfft": 7, "fft": 7, "ifft": 7, "irfft": 7, "rfftn": 0, "irfftn": 0, "_reaction": 7}

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("model,n", [pytest.param(SG, 64, id="sg"), pytest.param(AC, 64, id="ac"),
                                         pytest.param(SG, 256, id="sg-256"), pytest.param(AC, 256, id="ac-256")])
    def test_steps_allocate_no_fields(self, model, n, scheme, monkeypatch):
        # After warm-up a step writes only into the buffers _advance owns: the
        # transforms' own scratch and the finiteness checks stay below 1.5 fields,
        # also at n=256, where each solve runs half its rows and columns on the helper.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u0 = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
        steps = psg.schemes._advance(u0.grid, u0.values, model, scheme, 0.1, 13)
        assert peak_fields_after_warmup(grid, lambda: next(steps)) <= 1.5

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("model,n,fields", [
        pytest.param(SG, 64, 1.5, id="sg"), pytest.param(AC, 64, 1.5, id="ac"),
        pytest.param(SG, 256, 0.75, id="sg-256"), pytest.param(AC, 256, 0.75, id="ac-256"),
    ])
    def test_recorded_steps_allocate_one_field(self, model, n, fields, scheme, monkeypatch):
        # A step of the stream run and the CLI consume: the solve's Parseval sum goes in
        # its output slot, and the record forms its sums in the half spectrum, free until
        # the next step's row stage, so a recorded step allocates no field. What remains is
        # the solve's scratch: at n=64 the multiplier's complex cast through the step's
        # 1024-value buffers (0.58-0.60 fields, 1.11 with numpy's default 8192); at n=256
        # (split) a step peaks at 0.10-0.19 fields, against 1.00 with a transient field for the record.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u0 = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
        steps = run_steps(u0, model, scheme, 0.1, 13)
        assert peak_fields_after_warmup(grid, lambda: next(steps)) <= fields

    @pytest.mark.parametrize("n,split", [(64, False), (256, True)], ids=["64", "256-split"])
    def test_recorded_solve_allocates_no_field(self, n, split, monkeypatch):
        # A recorded solve squares the spectrum's imaginary parts into its output's tail,
        # past the Parseval terms, a few rows at a time; a fresh array for them took 0.52
        # fields at n=64 and 0.25 per column half at n=256 (0.59 and 0.29 fields at the
        # peak). The multiplier is complex here: the real one's cast through 1024-value
        # buffers alone takes 1/2 field at n=64. What remains is the finiteness check's
        # mask (1/8 field) and the transforms' own scratch: 0.20 and 0.10 fields.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y)).values
        spec, out = np.empty(grid._rfft_shape, dtype=np.complex128), np.empty(grid.shape)
        mult = _helmholtz_multiplier(grid, 0.5, 1.0, 0.1).astype(np.complex128)

        with psg.grid._helper(grid, split) as helper:
            def solve():
                with np.errstate():
                    psg.grid._step_state()
                    _apply_multiplier(grid, u, mult, spec, out, True, helper)
            assert (helper is not None) == split
            assert peak_fields_after_warmup(grid, solve) <= 0.25

    @pytest.mark.parametrize("scheme,n,parts", [  # 256 splits each solve's rows in two
        pytest.param(scheme, n, parts, id=f"{scheme}{'' if n == 16 else '-256'}")
        for scheme in SchemeKind for n, parts in ((16, 1), (256, 2))
    ])
    def test_one_finiteness_check_per_step(self, scheme, n, parts, monkeypatch):
        # Only the solved field is checked, once per step and row part, by the solve's last
        # row stage (the yielded Field skips its own whole-array check): a non-finite f(u)
        # reaches the solved field in the same step.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        u0 = Field.from_function(TorusGrid(2, n), lambda x, y: np.sin(x) * np.cos(y))
        checks = []
        original = psg.grid._check_finite

        def counted(values):
            checks.append(values.shape)
            original(values)
        monkeypatch.setattr(psg.grid, "_check_finite", counted)
        steps = psg.schemes._advance(u0.grid, u0.values, SG, scheme, 0.1, 10)
        for _ in range(10):
            next(steps)
        assert checks == [(n // parts, n)] * (10 * parts)

    @pytest.mark.parametrize("scheme,fields,n", [
        pytest.param(SchemeKind.IMEX1, 4.0, 64, id="SchemeKind.IMEX1-4.0"),
        pytest.param(SchemeKind.BDF2, 5.0, 64, id="SchemeKind.BDF2-5.0"),
        pytest.param(SchemeKind.IMEX1, 4.0, 256, id="SchemeKind.IMEX1-4.0-256"),
        pytest.param(SchemeKind.BDF2, 5.0, 256, id="SchemeKind.BDF2-5.0-256"),
    ])
    def test_run_holds_only_its_buffers(self, scheme, fields, n, monkeypatch):
        # A run holds its 2-slot ring, a half spectrum (~1 field) and one multiplier
        # (~1/2 field), which bdf2 refills with a = 3/2 after its kick-start (3.5 fields).
        # Both sum the right-hand side in the output slot, and imex1 forms f(u) there too;
        # bdf2 adds the one slot that carries f(u) to the next step (4.5 fields). The grid
        # keeps no |k|^2 table: the multiplier forms |k|^2 in its own buffer. At n=256 the
        # run also holds its helper thread, which adds no field.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u0 = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
        np.fft  # numpy imports its fft module on first use, which the run should not count
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            steps = psg.schemes._advance(u0.grid, u0.values, SG, scheme, 0.1, 3)
            yielded = [next(steps)[0] for _ in range(3)]
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # no table cached on the grid holds more than 2n values, so the grid keeps no half-spectrum table
        cached = {name: sum(map(np.size, v)) if isinstance(v, tuple) else np.size(v) for name, v in vars(grid).items()}
        assert max(cached.values()) <= 2 * n, cached
        # the steps alternate between the two ring slots; u0 stays outside them
        assert yielded[0] is yielded[2] and yielded[1] is not yielded[0]
        assert all(values is not u0.values for values in yielded)
        assert held <= fields * 8 * grid.size

    @pytest.mark.parametrize("n", [64, 256])  # 256 splits each solve across two threads
    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_run_never_writes_its_input(self, scheme, n, monkeypatch, rng):
        # Sweep members share u0, which no step or record writes. A record forms its sums in
        # the half spectrum, and its modified energy reads u_prev, which must still hold it.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u0 = random_smooth_field(grid, rng, target_linf=3.0)
        before = u0.values.tobytes()
        prev = u0.values.copy()
        for u, record in psg.schemes._advance(u0.grid, u0.values, SG, scheme, 0.1, 5, record=True):
            u = Field(grid, u)  # modified_energy takes Fields
            assert (record.u_min, record.u_max) == (u.min(), u.max())
            assert record.modified_energy == pytest.approx(modified_energy(SG, u, Field(grid, prev), 0.1), rel=1e-12)
            prev = u.values.copy()
        assert u0.values.tobytes() == before

    @pytest.mark.parametrize("model,n,linf", [
        pytest.param(SG, 32, 1.5, id="sg"), pytest.param(AC, 32, 1.5, id="ac"),
        pytest.param(SG, 176, 1.5, id="sg-176"), pytest.param(AC, 176, 1.5, id="ac-176"),
        pytest.param(AC, 32, 3e-308, id="ac-subnormal"),
    ])
    def test_carried_nonlinearity_bitwise(self, model, n, linf, rng, monkeypatch):
        """BDF2 with the carried f(u_prev) steps bitwise like a stepping that evaluates both f's.

        At n=176 each solve splits, and each thread carries f in its own rows. Below 2.2e-308
        f(u) = u is subnormal, where halving an odd value rounds but halving 2f(u) is exact."""
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        grid = TorusGrid(2, n)
        u0 = random_smooth_field(grid, rng, target_linf=linf)
        tau, kappa = 0.1, model.kappa

        def f(values):
            return nonlinearity(model.kind, Field(grid, values)).values

        prev = u0.values
        curr = helmholtz_solve(Field(grid, prev + tau * f(prev)), kappa, a=1.0, b=tau).values
        reference = [curr]
        for _ in range(11):
            rhs = 2.0 * curr - 0.5 * prev + tau * (2.0 * f(curr) - f(prev))
            prev, curr = curr, helmholtz_solve(Field(grid, rhs), kappa, a=1.5, b=tau).values
            reference.append(curr)
        if linf < np.finfo(float).tiny:
            subnormal = reference[-1][np.abs(reference[-1]) < np.finfo(float).tiny]
            assert np.any(subnormal.view(np.int64) % 2 == 1)  # odd subnormals, whose halves round

        for u, expected in zip(iterates(u0, model, SchemeKind.BDF2, tau, 12), reference, strict=True):
            assert np.array_equal(u, expected)

    def test_record_rejects_overflowing_modified_energy(self):
        # finite energies, but a step of 1 over tau = 1e-320 overflows the increment term
        grid = TorusGrid(1, 16)
        with pytest.raises(NonFiniteError, match="^modified energy is not finite$"):
            psg.schemes._record(SG, grid, 1e-320, 1, np.ones(grid.shape), np.zeros(grid.shape), 0.0,
                                np.empty(grid.shape))

    def test_non_finite_abort_names_step(self):
        grid = TorusGrid(1, 64)
        u0 = Field.constant(grid, 2.0)
        with pytest.raises(NonFiniteError, match=r"step \d+"):
            run(u0, AC, SchemeKind.IMEX1, 1e3, 50)
        # sin(u) stays bounded, so a huge sine-Gordon iterate overflows only the recorded gradient energy
        huge = Field.from_function(grid, lambda x: 1e200 * np.sin(x))
        with pytest.raises(NonFiniteError, match=r"step 1$"):
            run(huge, SG, SchemeKind.IMEX1, 0.1, 3)


class TestSplitSteps:
    """From 176^2 points on and given two cores, each 2D solve runs half its rows and columns on a helper thread."""

    @staticmethod
    def stream(u0, model, scheme, record, cores, monkeypatch, n_steps=5):
        """Copies of each (u, record) _advance yields, as on a host with the given cores."""
        monkeypatch.setattr(psg.grid, "_cores", lambda: cores)
        baseline = threading.active_count()
        yielded = []
        for u, row in psg.schemes._advance(u0.grid, u0.values, model, scheme, 0.05, n_steps, record=record):
            assert threading.active_count() == baseline + (cores > 1)  # the run's one helper, if it splits
            yielded.append((u.tobytes(), repr(row)))
        return yielded

    @pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("model", [SG, AC], ids=["sg", "ac"])
    # 176: the smallest grid that splits; 270: halves of 135 rows, and of 68 half-spectrum columns
    @pytest.mark.parametrize("n", [176, 256, 270])
    def test_split_steps_bitwise(self, n, model, scheme, record, monkeypatch, rng):
        u0 = random_smooth_field(TorusGrid(2, n), rng, target_linf=3.0)
        split = self.stream(u0, model, scheme, record, 2, monkeypatch)
        unsplit = self.stream(u0, model, scheme, record, 1, monkeypatch)
        assert split == unsplit
        if record:  # recording changes no iterate: a recorder that wrote a live buffer would move the next step
            for cores, stream in ((2, split), (1, unsplit)):
                plain = self.stream(u0, model, scheme, False, cores, monkeypatch)
                assert [values for values, _ in stream] == [values for values, _ in plain]

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_fused_steps_bitwise_under_fast_switching(self, scheme, monkeypatch, rng):
        # Each thread's last row stage writes the next step's right-hand side over rows of this
        # step's u: a stage that read another thread's rows would show up as a changed iterate once
        # the interpreter switches threads every microsecond.
        u0 = random_smooth_field(TorusGrid(2, 256), rng, target_linf=3.0)
        unsplit = self.stream(u0, SG, scheme, False, 1, monkeypatch, n_steps=12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = self.stream(u0, SG, scheme, False, 2, monkeypatch, n_steps=12)
        finally:
            sys.setswitchinterval(interval)
        assert split == unsplit

    def test_step_state_is_its_own(self, monkeypatch):
        # Both threads of a step run under the step's numpy state, not the caller's: under
        # np.errstate(all="raise") the cube of 1e-200 amplitudes raised on underflow, split and unsplit.
        u0 = Field.from_function(TorusGrid(2, 256), lambda x, y: 1e-200 * np.sin(x) * np.sin(y))
        bufsize = np.getbufsize()
        for cores in (2, 1):
            expected = self.stream(u0, AC, SchemeKind.BDF2, False, cores, monkeypatch, n_steps=3)
            with np.errstate(all="raise"):
                assert self.stream(u0, AC, SchemeKind.BDF2, False, cores, monkeypatch, n_steps=3) == expected
                assert np.geterr()["under"] == "raise" and np.getbufsize() == bufsize  # the caller's state again

    def test_cores_without_affinity(self, monkeypatch):
        # where the platform has no affinity mask, the machine's count (or 1 when unknown)
        monkeypatch.delattr(psg.grid.os, "sched_getaffinity", raising=False)
        for count, cores in ((3, 3), (None, 1)):
            monkeypatch.setattr(psg.grid.os, "cpu_count", lambda: count)
            assert psg.grid._cores() == cores

    def test_small_and_1d_grids_do_not_split(self, monkeypatch):
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        assert psg.grid._splits(TorusGrid(2, 256)) and psg.grid._splits(TorusGrid(2, 176))
        assert not psg.grid._splits(TorusGrid(2, 174))  # 30276 points, below 176^2
        assert not psg.grid._splits(TorusGrid(1, 2**16))
        monkeypatch.setattr(psg.grid, "_cores", lambda: 1)
        assert not psg.grid._splits(TorusGrid(2, 512))

    # Unrecorded, u^3 overflows at step 5 in both threads' rows; recorded, the potential energy's
    # sum of (u^2 - 1)^2/4 overflows a step earlier, where |u| reaches about 2e143.
    @pytest.mark.parametrize("record,failure", [(False, "non-finite field values at step 5"),
                                                (True, "potential energy is not finite at step 4")],
                             ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_blowup_names_step_without_warnings(self, scheme, record, failure, monkeypatch):
        # The helper runs its halves under _step_state too: an overflow in
        # either thread is silent, and the finiteness checks name the step.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        u0 = Field.from_function(TorusGrid(2, 256), lambda x, y: 2.0 + 0.5 * np.sin(x) * np.cos(y))
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match=rf"^{failure}$"):
                for _ in psg.schemes._advance(u0.grid, u0.values, AC, scheme, 1e3, 50, record=record):
                    pass
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_blowup_in_helper_rows_names_step(self, scheme, monkeypatch):
        # Rows n/2.. turn non-finite first, and only on the helper: its inverse stage raises
        # there, and the calling thread raises that error, naming the step, once both halves
        # are done. The column stage mixes all rows, so only a solve's last stage can leave
        # one half non-finite; the helper's irfft does so at its third call.
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        u0 = Field.from_function(TorusGrid(2, 256), lambda x, y: np.sin(x) * np.cos(y))
        original, helper_calls = np.fft.irfft, []

        def irfft(*args, out, **kwargs):
            original(*args, out=out, **kwargs)
            if threading.current_thread() is not threading.main_thread():
                helper_calls.append(out.shape)
                if len(helper_calls) == 3:
                    out[...] = np.inf
            return out
        monkeypatch.setattr(np.fft, "irfft", irfft)
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match=r"^non-finite field values at step 3$"):
                for _ in psg.schemes._advance(u0.grid, u0.values, SG, scheme, 0.1, 10):
                    pass
        assert helper_calls == [(128, 256)] * 3
        assert threading.active_count() == baseline

    def test_helper_ends_with_its_run(self, monkeypatch):
        monkeypatch.setattr(psg.grid, "_cores", lambda: 2)
        u0 = Field.from_function(TorusGrid(2, 256), lambda x, y: np.sin(x) * np.cos(y))
        baseline = threading.active_count()
        # run_steps wraps _advance's stream in a generator of its own, whose close must end the helper too
        for stream in (lambda *args: psg.schemes._advance(u0.grid, u0.values, *args),
                       lambda *args: run_steps(u0, *args)):
            steps = stream(SG, SchemeKind.BDF2, 0.1, 10)
            next(steps)
            assert threading.active_count() == baseline + 1
            steps.close()  # closed early
            assert threading.active_count() == baseline
            for _ in stream(SG, SchemeKind.IMEX1, 0.1, 3):  # exhausted
                pass
            assert threading.active_count() == baseline
