"""Time steppers: exact reductions, symmetries, dissipation and boundedness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psg.models
import psg.schemes

from psg import (
    Field,
    ModelKind,
    ModelSpec,
    NonFiniteError,
    SchemeKind,
    SchemeState,
    StepRecord,
    TorusGrid,
    energy,
    energy_monitor,
    helmholtz_solve,
    max_principle_monitor,
    modified_energy,
    nonlinearity,
    run,
)
from conftest import random_smooth_field

SG = ModelSpec(ModelKind.SINE_GORDON, 0.5)
AC = ModelSpec(ModelKind.ALLEN_CAHN, 0.5)


def observed(u0, model, scheme, tau, n_steps):
    """The states run hands its observer after steps 1..n_steps (each holds its own copies)."""
    states = []
    run(u0, model, scheme, tau, n_steps, observers=[lambda s, r: states.append(s)])
    return states


def constant_run(value, model, scheme, tau, n_steps, n=64):
    u0 = Field.constant(TorusGrid(1, n), value)
    return [s.u_curr.values for s in observed(u0, model, scheme, tau, n_steps)]


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
        (state,) = observed(Field.constant(TorusGrid(2, 16), a), SG, SchemeKind.IMEX1, tau, 1)
        expected = a + tau * math.sin(a)
        assert np.max(np.abs(state.u_curr.values - expected)) <= 1e-14

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
        (state,) = observed(Field.zeros(TorusGrid(1, 32)), SG, SchemeKind.BDF2, 0.3, 1)
        assert state.step_index == 1
        assert np.max(np.abs(state.u_curr.values)) == 0.0

    def test_constant_half_pi(self):
        (u1,) = constant_run(np.pi / 2, SG, SchemeKind.BDF2, 0.5, 1, n=32)
        assert np.max(np.abs(u1 - (np.pi / 2 + 0.5))) <= 1e-14

    def test_matches_imex_step_bitwise(self):
        grid = TorusGrid(1, 128)
        u0 = Field.from_function(grid, lambda x: np.pi * np.sin(x))
        model = ModelSpec(ModelKind.SINE_GORDON, 0.1)
        (kicked,) = observed(u0, model, SchemeKind.BDF2, 0.25, 1)
        (stepped,) = observed(u0, model, SchemeKind.IMEX1, 0.25, 1)
        assert np.array_equal(kicked.u_curr.values, stepped.u_curr.values)
        assert kicked.u_prev is u0

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="^tau must be finite and > 0"):
            run(Field.zeros(TorusGrid(1, 32)), SG, SchemeKind.BDF2, 0.0, 3)


class TestPreconditions:
    def test_state_invariants(self):
        grid = TorusGrid(1, 32)
        u = Field.zeros(grid)
        with pytest.raises(ValueError):
            SchemeState(SchemeKind.IMEX1, SG, 0.5, 0, u, u)  # u_prev at step 0
        with pytest.raises(ValueError):
            SchemeState(SchemeKind.IMEX1, SG, 0.5, 1, u, None)  # missing u_prev
        with pytest.raises(ValueError):
            SchemeState(SchemeKind.BDF2, SG, 0.5, 1, u, Field.zeros(TorusGrid(1, 64)))

    @pytest.mark.parametrize("entry", ["SchemeState", "run"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, entry, tau):
        # unchecked, it surfaced as "non-finite field values at step 1" (or not at all for a bare state)
        u = Field.zeros(TorusGrid(1, 32))
        calls = {
            "SchemeState": lambda: SchemeState(SchemeKind.IMEX1, SG, tau, 0, u),
            "run": lambda: run(u, SG, SchemeKind.IMEX1, tau, 3),
        }
        with pytest.raises(ValueError, match="^tau must be finite and > 0"):
            calls[entry]()

    def test_record_linf_invariant(self):
        with pytest.raises(ValueError):
            StepRecord(1, 0.1, -1.0, None, -2.0, 1.0, 1.0)


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
            captured = []
            run(u_start, SG, scheme, 0.2, 10, observers=[lambda s, r: captured.append(s.u_curr)])
            return captured[-1].values

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
                report = max_principle_monitor(records)
                assert not report.violated, f"kappa={kappa} tau={tau}: {report}"

    def test_imex_energy_dissipation_up_to_tau_two(self, rng):
        grid = TorusGrid(1, 256)
        for tau in (0.5, 2.0):
            for _ in range(5):
                u0 = random_smooth_field(grid, rng, target_linf=rng.uniform(0.5, 1.0) * np.pi)
                records = run(u0, SG, SchemeKind.IMEX1, tau, 50)
                assert not energy_monitor(records).violated
                # the u0 -> u1 comparison is not in the series; check it directly
                assert records[0].energy <= energy(SG, u0) + 1e-10 * (1 + abs(energy(SG, u0)))

    def test_bdf2_modified_energy_dissipation(self, rng):
        grid = TorusGrid(1, 256)
        for tau in (0.1, 0.5):
            for _ in range(5):
                u0 = random_smooth_field(grid, rng, target_linf=rng.uniform(0.5, 1.0) * np.pi)
                records = run(u0, SG, SchemeKind.BDF2, tau, 50)
                assert not energy_monitor(records, modified=True).violated

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(0.1, 1.0),
        tau=st.floats(1e-9, 0.5),  # below ~1e-21 a step's rounding, squared over 4*tau, outgrows the slack
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        amplitude=st.floats(0.0, np.pi),
    )
    def test_bdf2_modified_energy_decay_property(self, kappa, tau, coeffs, amplitude):
        """bdf2 dissipates E + ||u_n - u_{n-1}||^2/(4 tau) for tau <= 1/2 and any |u0| <= pi."""
        grid = TorusGrid(1, 32)
        (x,) = grid.coords()
        poly = sum(a * np.cos(m * x) + b * np.sin(m * x)
                   for m, (a, b) in enumerate(zip(coeffs[::2], coeffs[1::2])))
        u0 = Field(grid, amplitude * poly / max(np.max(np.abs(poly)), 1.0))
        records = run(u0, ModelSpec(ModelKind.SINE_GORDON, kappa), SchemeKind.BDF2, tau, 50)
        assert not energy_monitor(records, modified=True).violated


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
        # The recorder takes E from the half spectrum the solve ended with;
        # energy() transforms u_curr afresh, so the two agree to roundoff.
        grid = TorusGrid(1, 64)
        u0 = random_smooth_field(grid, rng)
        captured = []
        records = run(u0, SG, SchemeKind.BDF2, 0.25, 15, observers=[lambda s, r: captured.append(s)])
        for record, s in zip(records, captured):
            assert record.energy == psg.models._energy(SG, s.u_curr, s.u_hat)
            assert record.energy == pytest.approx(energy(SG, s.u_curr), rel=1e-12)
            assert record.modified_energy == pytest.approx(modified_energy(SG, s.u_curr, s.u_prev, 0.25), rel=1e-12)
            assert record.linf == s.u_curr.linf()

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_one_transform_pair_and_nonlinearity_per_step(self, scheme, monkeypatch):
        # A recorded step is its Helmholtz solve's rfftn/irfftn pair and one
        # evaluation of f: the energy reuses the solve's spectrum, and BDF2
        # carries f(u_prev) over from the step before (the kick-start's f(u0)).
        counts = {"rfftn": 0, "irfftn": 0, "nonlinearity": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(np.fft, "rfftn")
        counted(np.fft, "irfftn")
        counted(psg.schemes, "nonlinearity")
        u0 = Field.from_function(TorusGrid(2, 16), lambda x, y: np.sin(x) * np.cos(y))
        records = run(u0, SG, scheme, 0.1, 7)
        assert len(records) == 7
        assert counts == {"rfftn": 7, "irfftn": 7, "nonlinearity": 7}

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    def test_observer_state_outlives_later_steps(self, scheme, rng):
        # run steps in reused buffers; the state an observer receives holds its own copies
        u0 = random_smooth_field(TorusGrid(2, 32), rng, target_linf=1.5)
        kept = []

        def keep_step_3(s, r):
            if s.step_index == 3:
                kept.append((s, s.u_curr.values.copy(), s.u_prev.values.copy(), s.u_hat.copy()))

        run(u0, SG, scheme, 0.1, 10, observers=[keep_step_3])
        (state, u_curr, u_prev, u_hat), = kept
        assert np.array_equal(state.u_curr.values, u_curr)
        assert np.array_equal(state.u_prev.values, u_prev)
        assert np.array_equal(state.u_hat, u_hat)

    @pytest.mark.parametrize("scheme", [SchemeKind.IMEX1, SchemeKind.BDF2])
    @pytest.mark.parametrize("model", [SG, AC], ids=["sg", "ac"])
    def test_steps_allocate_no_fields(self, model, scheme):
        # After warm-up a step writes only into the buffers _advance owns: the
        # transforms' own scratch and the finiteness checks stay below 1.5 fields.
        grid = TorusGrid(2, 64)
        u0 = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
        states = psg.schemes._advance(u0, model, scheme, 0.1)
        tracemalloc.start()
        try:
            for _ in range(3):
                next(states)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                next(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * 8 * grid.size

    def test_observer_errors_propagate(self):
        u0 = Field.zeros(TorusGrid(1, 64))

        def bad_observer(state, record):
            raise OSError("disk full")

        with pytest.raises(OSError):
            run(u0, SG, SchemeKind.IMEX1, 0.1, 3, observers=[bad_observer])

    @pytest.mark.parametrize("model", [SG, AC], ids=["sg", "ac"])
    def test_carried_nonlinearity_bitwise(self, model, rng):
        """BDF2 with the carried f(u_prev) steps bitwise like a stepping that evaluates both f's."""
        grid = TorusGrid(2, 32)
        u0 = random_smooth_field(grid, rng, target_linf=1.5)
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

        states = []
        run(u0, model, SchemeKind.BDF2, tau, 12, observers=[lambda s, r: states.append(s)])
        for state, expected in zip(states, reference, strict=True):
            assert np.array_equal(state.u_curr.values, expected)

    def test_non_finite_abort_names_step(self):
        grid = TorusGrid(1, 64)
        u0 = Field.constant(grid, 2.0)
        with pytest.raises(NonFiniteError, match=r"step \d+"):
            run(u0, AC, SchemeKind.IMEX1, 1e3, 50)
        # sin(u) stays bounded, so a huge sine-Gordon iterate overflows only the recorded gradient energy
        huge = Field.from_function(grid, lambda x: 1e200 * np.sin(x))
        with pytest.raises(NonFiniteError, match=r"step 1$"):
            run(huge, SG, SchemeKind.IMEX1, 0.1, 3)
