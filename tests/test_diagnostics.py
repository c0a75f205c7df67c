"""Monitors, stability sweeps, and convergence-order estimation."""

import numpy as np
import pytest

import psg.diagnostics
from psg import (
    ExperimentConfig,
    Field,
    ModelKind,
    MonitorKind,
    MonitorReport,
    SchemeKind,
    StepRecord,
    TorusGrid,
    convergence_order,
    energy_monitor,
    fit_order,
    helmholtz_solve,
    initial_field,
    max_principle_monitor,
    run,
    stability_sweep,
)


def record(step, energy_value, modified=0.0, linf=0.0):
    return StepRecord(step, 0.1 * step, energy_value, modified, -linf, linf, linf)


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
        report = energy_monitor(records)
        assert report == MonitorReport(MonitorKind.ENERGY_DISSIPATION, False, None, 0.0)

    def test_flags_first_increase(self):
        records = [record(1, 3.0), record(2, 2.0), record(3, 2.5), record(4, 1.0), record(5, 4.0)]
        report = energy_monitor(records)
        assert report.violated
        assert report.first_violation_step == 3
        assert report.worst_excess == pytest.approx(3.0 - 1e-10 * 2.0, rel=1e-9)

    def test_relative_slack_absorbs_roundoff(self):
        base = 1e6
        records = [record(1, base), record(2, base + 1e-6)]
        assert not energy_monitor(records).violated  # slack = 1e-10 * (1 + 1e6) ~ 1e-4
        assert energy_monitor(records, rel_slack=1e-15).violated

    def test_modified_column(self):
        records = [record(1, 9.0, modified=3.0), record(2, 0.0, modified=2.0), record(3, 0.0, modified=2.5)]
        report = energy_monitor(records, modified=True)
        assert report.kind is MonitorKind.MODIFIED_ENERGY_DISSIPATION
        assert report.first_violation_step == 3

    def test_missing_modified_rejected(self):
        for modified in (False, True):
            with pytest.raises(ValueError, match="^records must be nonempty$"):
                energy_monitor([], modified=modified)


class TestMaxPrincipleMonitor:
    def test_boundary_value_is_clean(self):
        records = [record(i, 0.0, linf=np.pi) for i in range(1, 4)]
        assert not max_principle_monitor(records).violated

    def test_flags_excess(self):
        records = [record(0, 0.0, linf=np.pi + 0.5), record(1, 0.0, linf=1.0)]
        report = max_principle_monitor(records)
        assert report.violated and report.first_violation_step == 0
        assert report.worst_excess == pytest.approx(0.5, abs=1e-9)

    def test_custom_bound(self):
        records = [record(1, 0.0, linf=2.0)]
        assert max_principle_monitor(records, bound=1.0).violated
        assert not max_principle_monitor(records, bound=3.0).violated

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            MonitorReport(MonitorKind.MAX_PRINCIPLE, True, None, 1.0)
        with pytest.raises(ValueError):
            MonitorReport(MonitorKind.MAX_PRINCIPLE, False, 3, 0.0)


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
        assert sweep.reports[0][0] == energy_monitor(records)
        assert sweep.reports[0][2] == max_principle_monitor(records)
        assert sweep.final_energies[0] == records[-1].energy
        # tau = 0.5 satisfies both guarantees: clean across the board
        assert not sweep.reports[0][0].violated
        assert not sweep.reports[0][2].violated

    def test_monitors_are_pure(self):
        records = [record(1, 3.0, linf=1.0), record(2, 3.5, linf=4.0)]
        assert energy_monitor(records) == energy_monitor(records)
        assert max_principle_monitor(records) == max_principle_monitor(records)

    def test_parallelism_does_not_change_results(self):
        # Members run concurrently on the pool; each equals its standalone run.
        taus = [0.5, 1.0, 2.0]
        config = demo_config(t_final=10.0)
        sweep = stability_sweep(config, taus)
        u0 = initial_field(config)
        for tau, reports, final_energy in zip(taus, sweep.reports, sweep.final_energies):
            records = run(u0, config.model, config.scheme, tau, round(10.0 / tau))
            assert reports == (energy_monitor(records), energy_monitor(records, modified=True),
                               max_principle_monitor(records))
            assert final_energy == records[-1].energy

    def test_error_isolated_per_tau(self):
        # 0.33 does not divide T = 42; that tau fails, the other succeeds.
        sweep = stability_sweep(demo_config(t_final=42.0, tau=2.0), [0.33, 2.0])
        assert sweep.errors[0] is not None and "commensur" in sweep.errors[0] or "multiple" in sweep.errors[0]
        assert sweep.errors[1] is None
        assert sweep.reports[0] is None
        assert np.isnan(sweep.final_energies[0])

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

    def test_bad_initial_field_raises_before_runs(self):
        with pytest.raises(ValueError, match="init preset 'pi_sin_sin' is 2D"):
            stability_sweep(demo_config(init="pi_sin_sin"), [0.5, 1.0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stability_sweep(demo_config(), [])
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
