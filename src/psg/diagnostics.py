"""Runtime monitors, time-step stability sweeps and convergence-order estimation.

The monitors turn the schemes' dissipation and boundedness guarantees into
assertable checks over a stream of step records: the first-order scheme
dissipates the plain energy for tau <= 2, the two-step scheme the modified
energy for tau <= 1/2, and a first-order step from data bounded by pi
stays bounded by pi for tau <= 1 exactly when the truncated resolvent's
kernel R = irfft(1/(1 + tau*kappa^2*|k|^2)) is nonnegative (in general by
pi*||R||_1, which u0 = pi*sign(R reflected) attains). One fold reads each
record once and keeps none, with fixed slacks because the guarantees are
exact only in exact arithmetic.
"""

from __future__ import annotations

import collections
import contextlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import ExperimentConfig, _steps_to, initial_field
from .grid import _all_positive, _check_count, _check_positive, _cores, _each, _real, _scalar, _threads
from .schemes import SchemeKind, StepRecord, _advance

__all__ = [
    "MonitorReport",
    "MonitorReports",
    "SweepResult",
    "monitor_reports",
    "stability_sweep",
    "convergence_order",
    "fit_order",
]

_REL_SLACK = 1e-10  # roundoff in an energy's n^dim-term sum grows with |E|; the 1 in 1 + |E| is a floor near E = 0
_MAXP_BOUND = np.pi + 1e-12  # a field at +-pi (the steady state u = pi) leaves a solve a few ulps off pi


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of one monitor over a record series.

    first_violation_step is the step_index of the record at which the
    monitored inequality first failed; worst_excess is the largest positive
    amount by which it failed (0.0 when clean).
    """

    first_violation_step: int | None
    worst_excess: float

    @property
    def violated(self) -> bool:
        return self.first_violation_step is not None


class MonitorReports(NamedTuple):
    """The three monitors' reports over one run, named as the CLI's --monitors and report.txt name them."""

    energy: MonitorReport
    modified_energy: MonitorReport
    maxp: MonitorReport


def monitor_reports(records: Iterable[StepRecord]) -> tuple[MonitorReports, StepRecord]:
    """The three reports over a record stream, and its last record; reads each record once and keeps none.

    Each energy report flags E(next) > E(curr) + 1e-10*(1 + |E(curr)|), maxp flags linf > pi + 1e-12."""
    first: dict[str, int] = {}
    worst = dict.fromkeys(MonitorReports._fields, 0.0)
    last = None
    for rec in records:
        excesses = {"maxp": rec.linf - _MAXP_BOUND}
        if last is not None:
            for name in ("energy", "modified_energy"):  # a StepRecord field each
                prev, nxt = getattr(last, name), getattr(rec, name)
                excesses[name] = nxt - prev - _REL_SLACK * (1.0 + abs(prev))
        for name, excess in excesses.items():
            if excess > 0.0:
                first.setdefault(name, rec.step_index)
                worst[name] = max(worst[name], excess)
        last = rec
    if last is None:
        raise ValueError("records must be nonempty")
    return MonitorReports(*(MonitorReport(first.get(name), worst[name]) for name in MonitorReports._fields)), last


@dataclass(frozen=True)
class SweepResult:
    """Per-tau monitor outcomes of a stability sweep, input order preserved.

    reports[i] is the MonitorReports of the run at tau_values[i], or None when
    that run failed; errors[i] then carries the failure message.
    final_energies[i] is the run's last recorded energy, NaN if it failed.
    """

    tau_values: tuple[float, ...]
    reports: tuple[MonitorReports | None, ...]
    final_energies: tuple[float, ...]
    errors: tuple[str | None, ...]

    def largest_clean_tau(self) -> float | None:
        """Largest tested tau whose plain-energy series was monotone."""
        clean = [t for t, r in zip(self.tau_values, self.reports) if r is not None and not r.energy.violated]
        return max(clean) if clean else None

    def smallest_violating_tau(self) -> float | None:
        """Smallest tested tau whose plain-energy series was not monotone."""
        bad = [t for t, r in zip(self.tau_values, self.reports) if r is not None and r.energy.violated]
        return min(bad) if bad else None


def stability_sweep(config: ExperimentConfig, tau_values: Sequence[float]) -> SweepResult:
    """Run the configured experiment once per tau and attach monitor reports.

    Runs are independent and run on the calling thread plus one thread per
    further available core (the CPUs this process may run on), at most one
    thread per tau, each taking the next tau in input order when it is free.
    Two or more threads fill the cores, so their runs step unsplit; results
    are deterministic and independent of scheduling. Each tau runs
    config.steps_for(tau) steps. A failure for one tau (such as not dividing
    t_final) is recorded and does not abort the others; a bad initial field
    raises before any run starts, and a KeyboardInterrupt or SystemExit in
    any thread starts no further run and is raised once every thread ended.
    """
    taus = tuple(_real(tau_values, "tau_values", ndim=1).tolist())
    if not _all_positive(taus):
        raise ValueError(f"tau_values must all be finite and > 0, got {taus}")

    u0 = initial_field(config)  # one field for every member: runs never write their u0

    workers = min(_cores(), len(taus))

    def one(tau: float) -> tuple[MonitorReports | None, float, str | None]:
        try:
            steps = _advance(u0.grid, u0.values, config.model, config.scheme, tau, config.steps_for(tau),
                             record=True, split=workers < 2)
            reports, last = monitor_reports(row for _, row in steps)
        except Exception as exc:  # recorded per tau, others keep running
            return None, float("nan"), f"{type(exc).__name__}: {exc}"
        return reports, last.energy, None

    todo, results = collections.deque(range(len(taus))), [None] * len(taus)  # tau indices in input order

    def work(_) -> None:
        try:
            with contextlib.suppress(IndexError):  # until none is left; a deque's popleft is thread-safe
                while True:
                    i = todo.popleft()
                    results[i] = one(taus[i])
        finally:  # after a KeyboardInterrupt or another thread's failure, no thread starts another tau
            todo.clear()

    with _threads(workers) as helpers:  # the calling thread is a worker too
        _each(helpers, range(workers), work)
    reports, energies, errors = zip(*results)
    return SweepResult(taus, reports, energies, errors)


def fit_order(taus: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(tau), over at least two distinct taus."""
    taus, errors = _real(taus, "taus", ndim=1), _real(errors, "errors", ndim=1)
    if len(taus) != len(errors):
        raise ValueError(f"taus and errors must have equal lengths, got {len(taus)} and {len(errors)}")
    for name, values in (("taus", taus), ("errors", errors)):
        if not _all_positive(values):
            raise ValueError(f"{name} must all be finite and > 0 to fit a slope, got {values}")
    if not taus.min() < taus.max():
        raise ValueError(f"need at least two distinct taus, got {taus}")
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])


def convergence_order(
    config: ExperimentConfig,
    scheme: SchemeKind,
    tau_base: float,
    levels: int,
    t_final: float,
) -> float:
    """Observed temporal order by self-convergence at time t_final.

    Runs tau_l = tau_base / 2^l for l = 0..levels-1 plus a reference at
    tau_base / 2^(levels+2), measures max-norm errors against the reference
    and returns the fitted slope. t_final must be commensurate with every
    tested tau.
    """
    levels, tau_base = _check_count("levels", levels, 3), _check_positive("tau_base", tau_base)
    t_final = _scalar(t_final, "t_final")  # _steps_to checks it against each tau
    taus = [tau_base / 2**level for level in range(levels)]
    tau_ref = tau_base / 2 ** (levels + 2)
    step_counts = [_steps_to(t_final, tau) for tau in (*taus, tau_ref)]

    u0 = initial_field(config)

    def final_values(tau: float, n_steps: int) -> np.ndarray:
        for u, _ in _advance(u0.grid, u0.values, config.model, scheme, tau, n_steps):  # keeps only the last step
            pass
        return u.copy()  # the generator's buffer, valid only until it advances

    u_ref = final_values(tau_ref, step_counts[-1])
    errors = [float(np.max(np.abs(final_values(tau, steps) - u_ref))) for tau, steps in zip(taus, step_counts)]
    return fit_order(taus, errors)
