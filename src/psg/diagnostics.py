"""Runtime monitors, time-step stability sweeps and convergence-order estimation.

The monitors turn the schemes' dissipation and boundedness guarantees into
assertable checks over a recorded step series: the first-order scheme
dissipates the plain energy for tau <= 2, the two-step scheme the modified
energy for tau <= 1/2, and first-order iterates stay bounded by pi for
tau <= 1 when the initial data is and the grid resolves the kinks (about
kappa/h >= 2.5 at spacing h: the truncated resolvent is not positivity-
preserving). Monotonicity is checked with a relative slack (default 1e-10)
because the guarantees are exact only in exact arithmetic.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import ExperimentConfig, initial_field
from .grid import _check_positive
from .schemes import SchemeKind, StepRecord, _advance, run

__all__ = [
    "MonitorKind",
    "MonitorReport",
    "SweepResult",
    "energy_monitor",
    "max_principle_monitor",
    "stability_sweep",
    "convergence_order",
    "fit_order",
]

class MonitorKind(enum.Enum):
    ENERGY_DISSIPATION = "energy"
    MODIFIED_ENERGY_DISSIPATION = "modified_energy"
    MAX_PRINCIPLE = "max_principle"


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of one monitor over a record series.

    first_violation_step is the step_index of the record at which the
    monitored inequality first failed; worst_excess is the largest positive
    amount by which it failed (0.0 when clean).
    """

    kind: MonitorKind
    violated: bool
    first_violation_step: int | None
    worst_excess: float

    def __post_init__(self) -> None:
        if self.violated != (self.first_violation_step is not None):
            raise ValueError("violated must hold exactly when first_violation_step is present")


def _excess_report(kind: MonitorKind, excesses: Iterable[tuple[int, float]]) -> MonitorReport:
    """Report the first step whose excess is > 0 and the largest such excess."""
    bad = [(step, excess) for step, excess in excesses if excess > 0.0]
    return MonitorReport(kind, bool(bad), bad[0][0] if bad else None, max((e for _, e in bad), default=0.0))


def energy_monitor(
    records: Sequence[StepRecord],
    modified: bool = False,
    rel_slack: float = 1e-10,
) -> MonitorReport:
    """Flag the first step with E(next) > E(curr) + rel_slack*(1 + |E(curr)|).

    With modified=True the modified energy column is monitored instead.
    """
    if not records:
        raise ValueError("records must be nonempty")
    kind = MonitorKind.MODIFIED_ENERGY_DISSIPATION if modified else MonitorKind.ENERGY_DISSIPATION
    values = [r.modified_energy if modified else r.energy for r in records]
    excesses = ((rec.step_index, nxt - prev - rel_slack * (1.0 + abs(prev)))
                for rec, prev, nxt in zip(records[1:], values, values[1:]))
    return _excess_report(kind, excesses)


def max_principle_monitor(
    records: Sequence[StepRecord],
    bound: float = np.pi,
    slack: float = 1e-12,
) -> MonitorReport:
    """Flag the first record with linf > bound + slack."""
    if not records:
        raise ValueError("records must be nonempty")
    excesses = ((rec.step_index, rec.linf - (bound + slack)) for rec in records)
    return _excess_report(MonitorKind.MAX_PRINCIPLE, excesses)


@dataclass(frozen=True)
class SweepResult:
    """Per-tau monitor outcomes of a stability sweep, input order preserved.

    reports[i] is (energy, modified_energy, max_principle) MonitorReports
    for tau_values[i], or None when that run failed; errors[i] then carries
    the failure message. final_energies[i] is NaN for failed runs.
    """

    tau_values: tuple[float, ...]
    reports: tuple[tuple[MonitorReport, ...] | None, ...]
    final_energies: tuple[float, ...]
    errors: tuple[str | None, ...]

    def largest_clean_tau(self) -> float | None:
        """Largest tested tau whose plain-energy series was monotone."""
        clean = [t for t, r in zip(self.tau_values, self.reports) if r is not None and not r[0].violated]
        return max(clean) if clean else None

    def smallest_violating_tau(self) -> float | None:
        """Smallest tested tau whose plain-energy series was not monotone."""
        bad = [t for t, r in zip(self.tau_values, self.reports) if r is not None and r[0].violated]
        return min(bad) if bad else None


def stability_sweep(config: ExperimentConfig, tau_values: Sequence[float]) -> SweepResult:
    """Run the configured experiment once per tau and attach monitor reports.

    Runs are independent and executed on a thread pool with one worker per
    core (at most one per tau); results are deterministic and independent
    of scheduling. A failure for one tau is recorded and does not abort the
    other values; a bad initial field is no such failure and raises before
    any run starts.
    """
    taus = tuple(float(t) for t in tau_values)
    if not taus:
        raise ValueError("tau_values must be nonempty")
    if not all(0.0 < t < np.inf for t in taus):
        raise ValueError(f"tau_values must all be finite and > 0, got {taus}")

    u0 = initial_field(config)  # one field for every member: runs never write their u0

    def one(tau: float) -> tuple[tuple[MonitorReport, ...], float]:
        cfg = dataclasses.replace(config, tau=tau)
        records = run(u0, cfg.model, cfg.scheme, tau, cfg.step_count)
        reports = (
            energy_monitor(records),
            energy_monitor(records, modified=True),
            max_principle_monitor(records),
        )
        return reports, records[-1].energy

    reports: list[tuple[MonitorReport, ...] | None] = [None] * len(taus)
    energies = [float("nan")] * len(taus)
    errors: list[str | None] = [None] * len(taus)
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(taus))) as pool:
        futures = [pool.submit(one, tau) for tau in taus]
        for i, future in enumerate(futures):
            try:
                reports[i], energies[i] = future.result()
            except Exception as exc:  # recorded per tau, others keep running
                errors[i] = f"{type(exc).__name__}: {exc}"
    return SweepResult(taus, tuple(reports), tuple(energies), tuple(errors))


def fit_order(taus: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(tau), over at least two distinct taus."""
    taus = np.asarray(taus, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if len(taus) != len(errors) or len(taus) < 2:
        raise ValueError("need at least two (tau, error) pairs")
    for name, values in (("taus", taus), ("errors", errors)):
        if not np.all((0.0 < values) & (values < np.inf)):
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
    if levels < 3:
        raise ValueError(f"levels must be >= 3, got {levels}")
    _check_positive("tau_base", tau_base)
    taus = [tau_base / 2**level for level in range(levels)]
    tau_ref = tau_base / 2 ** (levels + 2)
    step_counts = [dataclasses.replace(config, tau=tau, t_final=t_final, n_steps=None).step_count
                   for tau in (*taus, tau_ref)]

    u0 = initial_field(config)

    def final_values(tau: float, n_steps: int) -> np.ndarray:
        steps = _advance(u0, config.model, scheme, tau)
        for _ in range(n_steps - 1):
            next(steps)
        u, _, _ = next(steps)
        return u.values.copy()  # the generator's buffer, valid only until it advances

    u_ref = final_values(tau_ref, step_counts[-1])
    errors = [float(np.max(np.abs(final_values(tau, steps) - u_ref))) for tau, steps in zip(taus, step_counts)]
    return fit_order(taus, errors)
