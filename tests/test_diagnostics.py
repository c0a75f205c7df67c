"""Monitors, stability sweeps, and convergence-order estimation."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psg.diagnostics
import psg.schemes
from psg import (
    ExperimentConfig,
    Field,
    ModelKind,
    MonitorReport,
    MonitorReports,
    NonFiniteError,
    SchemeKind,
    StepRecord,
    TorusGrid,
    convergence_order,
    fit_order,
    helmholtz_solve,
    initial_field,
    monitor_reports,
    run,
    stability_sweep,
)
from conftest import traced_peak


def record(step, energy_value, modified=0.0, linf=0.0):
    return StepRecord(step, 0.1 * step, energy_value, modified, -linf, linf)


def demo_config(**overrides):
    """The 1D reference experiment: kappa=0.1, u0 = pi*sin(x), N=256, T=42."""
    base = dict(
        model_kind=ModelKind.SINE_GORDON,
        scheme=SchemeKind.IMEX1,
        dim=1,
        kappa=0.1,
        tau=0.1,
        n_per_axis=256,
        t_final=42.0,
        init="pi_sin",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEnergyMonitor:
    def test_monotone_series_clean(self):
        records = [record(i, 5.0 - i) for i in range(1, 6)]
        report = monitor_reports(records)[0].energy
        assert report == MonitorReport(None, 0.0)

    def test_flags_first_increase(self):
        records = [record(1, 3.0), record(2, 2.0), record(3, 2.5), record(4, 1.0), record(5, 4.0)]
        report = monitor_reports(records)[0].energy
        assert report.violated
        assert report.first_violation_step == 3
        assert report.worst_excess == pytest.approx(3.0 - 1e-10 * 2.0, rel=1e-9)

    def test_relative_slack_absorbs_roundoff(self):
        base = 1e6
        records = [record(1, base), record(2, base + 1e-6)]
        assert not monitor_reports(records)[0].energy.violated  # slack = 1e-10 * (1 + 1e6) ~ 1e-4
        assert monitor_reports([record(1, base), record(2, base + 1e-3)])[0].energy.violated

    def test_modified_column(self):
        records = [record(1, 9.0, modified=3.0), record(2, 0.0, modified=2.0), record(3, 0.0, modified=2.5)]
        report = monitor_reports(records)[0].modified_energy
        assert report.first_violation_step == 3

    def test_missing_modified_rejected(self):
        for empty in ([], iter(())):  # an empty list, or an empty stream
            with pytest.raises(ValueError, match="^records must be nonempty$"):
                monitor_reports(empty)


class TestMaxPrincipleMonitor:
    def test_boundary_value_is_clean(self):
        records = [record(i, 0.0, linf=np.pi) for i in range(1, 4)]
        assert not monitor_reports(records)[0].maxp.violated

    def test_flags_excess(self):
        records = [record(0, 0.0, linf=np.pi + 0.5), record(1, 0.0, linf=1.0)]
        report = monitor_reports(records)[0].maxp
        assert report.violated and report.first_violation_step == 0
        assert report.worst_excess == pytest.approx(0.5, abs=1e-9)


def _three_passes(records):
    """The three monitors as separate passes over a list, as they were defined before the fold."""
    def report(excesses):
        bad = [(step, excess) for step, excess in excesses if excess > 0.0]
        return MonitorReport(bad[0][0] if bad else None, max((e for _, e in bad), default=0.0))

    def dissipation(values):
        return report((rec.step_index, nxt - prev - 1e-10 * (1.0 + abs(prev)))
                      for rec, prev, nxt in zip(records[1:], values, values[1:]))

    return MonitorReports(dissipation([r.energy for r in records]), dissipation([r.modified_energy for r in records]),
                          report((rec.step_index, rec.linf - (np.pi + 1e-12)) for rec in records))


# an energy's step: a rise of exactly the monitor's slack, none, or a random fall or rise
_MOVES = st.one_of(st.sampled_from(["slack", 0.0]), st.floats(-1.0, 1.0), st.floats(-1e-8, 1e-8))
_LINFS = st.one_of(st.sampled_from([np.pi, np.pi + 1e-12, np.nextafter(np.pi + 1e-12, 4.0)]), st.floats(0.0, 4.0))


def _walk(start, moves):
    values = [start]
    for move in moves:
        prev = values[-1]
        values.append(prev + 1e-10 * (1.0 + abs(prev)) if move == "slack" else prev + move)
    return values


class TestMonitorFold:
    @settings(max_examples=300, deadline=None)
    @given(starts=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
           steps=st.lists(st.tuples(_MOVES, _MOVES, _LINFS), min_size=1, max_size=40))
    def test_fold_equals_three_passes(self, starts, steps):
        energies = _walk(starts[0], [move for move, _, _ in steps[1:]])
        modified = _walk(starts[1], [move for _, move, _ in steps[1:]])
        records = [StepRecord(i + 1, 0.1 * (i + 1), e, m, -linf, linf)
                   for i, (e, m, (_, _, linf)) in enumerate(zip(energies, modified, steps))]
        expected = _three_passes(records)
        # a generator, which the three passes could not take (they index records[1:])
        reports, last = monitor_reports(rec for rec in records)
        assert reports == expected and last is records[-1]
        assert monitor_reports(records) == (expected, records[-1])  # and the list itself


class TestStabilitySweep:
    def test_reference_experiment_threshold(self):
        # tau = 0.1 and 2 dissipate; tau = 2.1 does not: the tau <= 2
        # restriction is sharp on this experiment.
        sweep = stability_sweep(demo_config(), [0.1, 2.0, 2.1])
        assert sweep.errors == (None, None, None)
        violated = [reports[0].violated for reports in sweep.reports]
        assert violated == [False, False, True]
        assert sweep.largest_clean_tau() == 2.0
        assert sweep.smallest_violating_tau() == 2.1
        assert all(np.isfinite(sweep.final_energies))

    def test_single_tau_matches_direct_run(self):
        config = demo_config(t_final=10.0, tau=0.5)
        sweep = stability_sweep(config, [0.5])
        records = run(initial_field(config), config.model, config.scheme, 0.5, config.step_count)
        assert sweep.reports[0] == monitor_reports(records)[0]
        assert sweep.final_energies[0] == records[-1].energy
        # tau = 0.5 satisfies both guarantees: clean across the board
        assert not sweep.reports[0][0].violated
        assert not sweep.reports[0][2].violated

    def test_monitors_are_pure(self):
        records = [record(1, 3.0, linf=1.0), record(2, 3.5, linf=4.0)]
        assert monitor_reports(records) == monitor_reports(records)

    def test_parallelism_does_not_change_results(self):
        # Members run concurrently, on the calling thread and one more per core; each equals its standalone run.
        taus = [0.5, 1.0, 2.0]
        config = demo_config(t_final=10.0)
        sweep = stability_sweep(config, taus)
        u0 = initial_field(config)
        for tau, reports, final_energy in zip(taus, sweep.reports, sweep.final_energies):
            records = run(u0, config.model, config.scheme, tau, round(10.0 / tau))
            assert reports == monitor_reports(records)[0]
            assert final_energy == records[-1].energy

    def test_error_isolated_per_tau(self):
        # 0.33 does not divide T = 42; that tau fails, the other succeeds.
        sweep = stability_sweep(demo_config(t_final=42.0, tau=2.0), [0.33, 2.0])
        assert sweep.errors[0] is not None and "commensur" in sweep.errors[0] or "multiple" in sweep.errors[0]
        assert sweep.errors[1] is None
        assert sweep.reports[0] is None
        assert np.isnan(sweep.final_energies[0])

    def test_config_tau_need_not_divide_tfinal(self):
        # The run length is checked per tau where it is used, not when the config is built.
        config = demo_config(n_per_axis=32, t_final=6.0, tau=0.7)
        with pytest.raises(ValueError, match="^t_final = 6.0 is not an integer multiple of tau = 0.7$"):
            config.step_count
        sweep = stability_sweep(config, [0.7, 0.5])
        assert sweep.errors[0] == "ValueError: t_final = 6.0 is not an integer multiple of tau = 0.7"
        assert sweep.errors[1] is None and sweep.reports[1] is not None
        assert config.steps_for(0.5) == 12

    def test_one_initial_field_for_all_members(self, monkeypatch):
        # Members share the sweep's one initial field (and its grid's tables): runs never write u0.
        calls = []

        def counted(config):
            calls.append(config)
            return initial_field(config)
        monkeypatch.setattr(psg.diagnostics, "initial_field", counted)
        sweep = stability_sweep(demo_config(t_final=10.0), [0.5, 1.0, 2.0])
        assert sweep.errors == (None, None, None)
        assert len(calls) == 1

    @pytest.mark.parametrize("cores,taus,split", [(2, [0.1, 0.2], False), (2, [0.1], True), (1, [0.1, 0.2], True)])
    def test_members_split_only_alone(self, cores, taus, split, monkeypatch):
        # Two or more worker threads fill the cores, so their members step unsplit; a lone
        # worker's member may split its steps (where the grid is large enough).
        seen = []

        def advance(*args, **kwargs):
            seen.append(kwargs["split"])
            return psg.schemes._advance(*args, **kwargs)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: cores)
        monkeypatch.setattr(psg.diagnostics, "_advance", advance)
        sweep = stability_sweep(demo_config(n_per_axis=16, t_final=None, n_steps=3), taus)
        assert sweep.errors == (None,) * len(taus)
        assert seen == [split] * len(taus)

    @pytest.mark.parametrize("cores", [2, 1])
    def test_members_run_on_the_calling_thread_and_one_per_further_core(self, cores, monkeypatch):
        # The first member of each thread waits until every thread holds one, so with two cores the
        # calling thread and one worker each take a member; the first tau's member then finishes
        # last, and each result still lands at its tau's index.
        taus = [0.1, 0.2, 0.3]
        ran = []  # (tau, thread ident) per member, in start order
        both = threading.Barrier(cores)

        def advance(grid, u0, model, scheme, tau, *args, **kwargs):
            ran.append((tau, threading.get_ident()))
            if len(ran) <= cores:
                both.wait(timeout=30)
            if tau == taus[0]:
                time.sleep(0.05)
            return psg.schemes._advance(grid, u0, model, scheme, tau, *args, **kwargs)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: cores)
        monkeypatch.setattr(psg.diagnostics, "_advance", advance)
        config = demo_config(n_per_axis=16, t_final=None, n_steps=3)
        baseline = threading.active_count()
        sweep = stability_sweep(config, taus)
        assert threading.active_count() == baseline
        assert sorted(tau for tau, _ in ran) == taus
        threads = {ident for _, ident in ran}
        assert len(threads) == cores and threading.get_ident() in threads
        u0 = initial_field(config)
        for tau, reports, final_energy in zip(taus, sweep.reports, sweep.final_energies):
            expected, last = monitor_reports(run(u0, config.model, config.scheme, tau, 3))
            assert (reports, final_energy) == (expected, last.energy)

    def test_each_tau_runs_once_under_fast_switching(self, monkeypatch):
        # More threads than cores take tau indices from one deque while the interpreter switches
        # threads every microsecond: a tau taken twice or lost, or a result stored at another
        # index, would change the counts or the result.
        taus = [0.05 * k for k in range(1, 13)]
        config = demo_config(n_per_axis=16, t_final=None, n_steps=2)
        started = []

        def advance(grid, u0, model, scheme, tau, *args, **kwargs):
            started.append(tau)
            return psg.schemes._advance(grid, u0, model, scheme, tau, *args, **kwargs)
        monkeypatch.setattr(psg.diagnostics, "_advance", advance)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: 1)
        expected = stability_sweep(config, taus)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: 4)
        started.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep = stability_sweep(config, taus)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(started) == taus
        assert sweep == expected

    def test_interrupt_starts_no_further_member(self, monkeypatch):
        # A KeyboardInterrupt in the calling thread's member lets the worker finish the member it
        # holds, starts none of the taus left, leaves no thread running and reaches the caller.
        taus = [0.1, 0.2, 0.3, 0.4]
        started, worker_started, interrupted = [], threading.Event(), threading.Event()
        caller = threading.get_ident()

        def advance(grid, u0, model, scheme, tau, *args, **kwargs):
            started.append(tau)
            if threading.get_ident() == caller:
                assert worker_started.wait(timeout=30)
                interrupted.set()
                raise KeyboardInterrupt
            worker_started.set()
            assert interrupted.wait(timeout=30)
            time.sleep(0.05)  # the calling thread gets to its cleanup first
            return psg.schemes._advance(grid, u0, model, scheme, tau, *args, **kwargs)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: 2)
        monkeypatch.setattr(psg.diagnostics, "_advance", advance)
        baseline = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            stability_sweep(demo_config(n_per_axis=16, t_final=None, n_steps=3), taus)
        assert threading.active_count() == baseline
        assert sorted(started) == taus[:2]

    @pytest.mark.parametrize("cores", [2, 1])
    def test_caller_errstate_does_not_reach_members(self, cores, monkeypatch):
        # Members step under their own numpy state, also on the calling thread: under
        # np.errstate(all="raise") the Allen-Cahn cube of 1e-200 amplitudes would raise on underflow.
        config = demo_config(model_kind=ModelKind.ALLEN_CAHN, n_per_axis=32, t_final=None, n_steps=5)
        u0 = Field.from_function(config.grid, lambda x: 1e-200 * np.sin(x))
        monkeypatch.setattr(psg.diagnostics, "initial_field", lambda config: u0)
        monkeypatch.setattr(psg.diagnostics, "_cores", lambda: cores)
        taus = [0.1, 0.5]
        expected = stability_sweep(config, taus)
        assert expected.errors == (None, None)
        with np.errstate(all="raise"):
            assert stability_sweep(config, taus) == expected
            assert np.geterr()["under"] == "raise"  # the caller's state again

    def test_bad_initial_field_raises_before_runs(self):
        with pytest.raises(ValueError, match="init preset 'pi_sin_sin' is 2D"):
            stability_sweep(demo_config(init="pi_sin_sin"), [0.5, 1.0])

    def test_memory_does_not_grow_with_steps(self):
        # Members fold over their records as they come. Holding them, 1800 more steps added 574 KB
        # here; the slack is for tracemalloc's jitter between runs (under 1 KB measured).
        def peak(steps):
            config = demo_config(n_per_axis=16, t_final=None, n_steps=steps)
            return traced_peak(lambda: stability_sweep(config, [0.1]))

        peak(5)  # warm-up: grid tables
        assert peak(2000) - peak(200) < 32 * 1024

    def test_input_validation(self):
        # a scalar or a 2D array is no list of taus: it raises before any run, as an empty list does
        for taus in ([], 0.1, np.array([[0.1, 0.2]])):
            with pytest.raises(ValueError, match="^tau_values must be a nonempty 1D sequence"):
                stability_sweep(demo_config(), taus)
        with pytest.raises(ValueError):
            stability_sweep(demo_config(), [0.1, -1.0])


class TestConvergenceOrder:
    def test_fit_order_exact_power(self):
        taus = [0.1, 0.05, 0.025]
        errors = [3.0 * t**2 for t in taus]
        assert fit_order(taus, errors) == pytest.approx(2.0, abs=1e-12)

    def test_fit_order_validation(self):
        with pytest.raises(ValueError):
            fit_order([0.1], [1.0])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05], [1.0, 0.0])

    @pytest.mark.parametrize("taus, errors, bad", [
        ([0.1, 0.05], [1.0, np.inf], "errors"),  # returned nan
        ([0.1, 0.05], [np.nan, 1.0], "errors"),
        ([0.1, np.nan], [1.0, 0.5], "taus"),     # LAPACK printed DLASCL and raised LinAlgError
        ([0.1, np.inf], [1.0, 0.5], "taus"),
        ([0.1, -0.05], [1.0, 0.5], "taus"),
        ([0.1, 0.0], [1.0, 0.5], "taus"),
    ], ids=["error-inf", "error-nan", "tau-nan", "tau-inf", "tau-negative", "tau-zero"])
    def test_fit_order_rejects_non_finite_or_non_positive(self, taus, errors, bad):
        with pytest.raises(ValueError, match=f"^{bad} must all be finite and > 0"):
            fit_order(taus, errors)

    def test_fit_order_needs_distinct_taus(self):
        # one repeated tau has no slope; polyfit returned 0.0753 with a RankWarning
        with pytest.raises(ValueError, match="^need at least two distinct taus"):
            fit_order([0.1, 0.1], [1.0, 0.5])

    def test_first_order_scheme_observed(self):
        config = demo_config(n_per_axis=64, kappa=0.5, t_final=0.5, tau=0.1)
        slope = convergence_order(config, SchemeKind.IMEX1, tau_base=0.1, levels=3, t_final=0.5)
        assert slope == pytest.approx(1.0, abs=0.25)

    def test_non_commensurate_rejected(self):
        config = demo_config()
        with pytest.raises(ValueError, match="not an integer multiple"):
            convergence_order(config, SchemeKind.IMEX1, tau_base=0.3, levels=3, t_final=1.0)
        with pytest.raises(ValueError, match="levels must be >= 3"):
            convergence_order(config, SchemeKind.IMEX1, tau_base=0.1, levels=2, t_final=1.0)

    def test_memory_does_not_grow_with_steps(self):
        # Each run keeps only its last step. Unpacking the stream into a list held every
        # yielded pair, about 150 B per step: 430 KB more here.
        def peak(tau_base):  # 320 and 3200 reference steps
            config = demo_config(n_per_axis=16, tau=tau_base, t_final=1.0)
            return traced_peak(lambda: convergence_order(config, SchemeKind.IMEX1, tau_base, 3, 1.0))

        peak(0.1)  # warm-up: grid tables
        assert peak(0.01) - peak(0.1) < 32 * 1024

    def test_blowup_names_step(self):
        # The fit steps through the same guard as run_steps: no numpy warning, and the failing step named.
        config = demo_config(model_kind=ModelKind.ALLEN_CAHN, n_per_axis=64, t_final=8000.0, tau=1000.0)
        with pytest.raises(NonFiniteError, match="^non-finite field values at step 6$"):
            convergence_order(config, SchemeKind.IMEX1, tau_base=1000.0, levels=3, t_final=8000.0)

    def test_nan_tau_base_named(self):
        # a <= 0 test let nan through, to be reported as a bad "tau" by the first tested config
        with pytest.raises(ValueError, match="^tau_base must be finite and > 0, got nan$"):
            convergence_order(demo_config(), SchemeKind.IMEX1, tau_base=np.nan, levels=3, t_final=1.0)

    def test_linear_problem_against_heat_kernel(self):
        # Drop the reaction term: the implicit step is exactly
        # (1 + tau*kappa^2*k^2)^{-1} per mode, and the exact solution is the
        # heat kernel; observed order must be 1 within 0.05.
        grid = TorusGrid(1, 64)
        kappa = 0.5
        (x,) = grid.coords()
        u0 = Field(grid, np.sin(x) + 0.3 * np.cos(3 * x))
        T = 1.0

        k = np.fft.fftfreq(64) * 64
        exact = Field(grid, np.fft.ifft(np.fft.fft(u0.values) * np.exp(-kappa**2 * k**2 * T)).real)

        def implicit_final(tau):
            u = u0
            for _ in range(round(T / tau)):
                u = helmholtz_solve(u, kappa, a=1.0, b=tau)
            return u

        taus = [0.1 / 2**level for level in range(4)]
        errors = [np.max(np.abs(implicit_final(t).values - exact.values)) for t in taus]
        assert fit_order(taus, errors) == pytest.approx(1.0, abs=0.05)
