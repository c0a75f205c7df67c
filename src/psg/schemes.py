"""Time-stepping engines: first-order IMEX and two-step BDF2.

Both treat diffusion implicitly and the reaction term explicitly, with no
stabilization term:

    imex1:  (u1 - u0)/tau = kappa^2*Lap(u1) + f(u0)
    bdf2:   (3*u2 - 4*u1 + u0)/(2*tau) = kappa^2*Lap(u2) + 2*f(u1) - f(u0)

Each step is one Helmholtz solve. The BDF2 start-up computes the first
step with exactly one imex1 step so runs are reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .grid import (Field, NonFiniteError, TorusGrid, _apply_multiplier, _block, _check_positive, _field,
                   _helmholtz_multiplier, _helper, _step_state)
from .models import ModelSpec, _energy, _finite, _increment_energy, _reaction

__all__ = [
    "SchemeKind",
    "StepRecord",
    "run_steps",
    "run",
]


# The most steps one run may take: over five hours even at 1D n=256 (~20 us a step). A longer
# run is a mistyped --tfinal or --steps, and would otherwise step for years before failing.
_MAX_STEPS = 10**9


def _check_steps(n_steps: int) -> None:
    """ValueError unless 1 <= n_steps <= _MAX_STEPS."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps > _MAX_STEPS:
        raise ValueError(f"n_steps must be <= {_MAX_STEPS}, got {n_steps}")


class SchemeKind(enum.Enum):
    IMEX1 = "imex1"
    BDF2 = "bdf2"


@dataclass(frozen=True)
class StepRecord:
    """Diagnostic row per step; linf = max(|u_min|, |u_max|)."""

    step_index: int
    t: float
    energy: float
    modified_energy: float
    u_min: float
    u_max: float

    @property
    def linf(self) -> float:
        return max(abs(self.u_min), abs(self.u_max))


def _imex1_rhs(model: ModelSpec, tau: float, u: np.ndarray, f: np.ndarray, out: np.ndarray):
    """imex1's right-hand side u + tau*f(u) as _apply_multiplier's row function: f(u) in f (may be out), sum in out."""
    def rows_of(rows):
        v, f_r, rhs_r = u[rows], f[rows], out[rows]
        _reaction(model.kind, v, out=f_r)
        np.multiply(tau, f_r, out=rhs_r)
        return np.add(v, rhs_r, out=rhs_r)
    return rows_of


def _bdf2_rhs(model: ModelSpec, tau: float, u: np.ndarray, u_prev: np.ndarray, f: np.ndarray, spec: np.ndarray,
              out: np.ndarray):
    """bdf2's right-hand side 2u - u_prev/2 + tau*(2f(u) - f(u_prev)), as _imex1_rhs.

    f holds f(u_prev), and each row range of it is read before it gets f(u) for the next step. out may be
    u_prev, read the same way. 2f(u) is formed in a block of those rows of spec, which their rfft overwrites
    next, and halved back into f: exact wherever 2f(u) is finite (where it is not, the step's solve fails).
    """
    def rows_of(rows):
        v, f_r, rhs_r = u[rows], f[rows], out[rows]
        term = _block(spec[rows], v.shape)
        np.multiply(0.5, u_prev[rows], out=rhs_r)
        np.multiply(2.0, v, out=term)
        np.subtract(term, rhs_r, out=rhs_r)
        _reaction(model.kind, v, out=term)
        np.multiply(2.0, term, out=term)
        np.subtract(term, f_r, out=f_r)
        np.multiply(tau, f_r, out=f_r)
        np.add(rhs_r, f_r, out=rhs_r)
        np.multiply(0.5, term, out=f_r)
        return rhs_r
    return rows_of


def _record(model: ModelSpec, grid: TorusGrid, tau: float, step: int, u: np.ndarray, u_prev: np.ndarray,
            gradient: float, scratch: np.ndarray) -> StepRecord:
    """The StepRecord of the array u on grid, its sums formed in the field-sized scratch."""
    increment = _increment_energy(grid, u, u_prev, tau, scratch)
    e = _energy(model, grid, u, gradient, scratch)
    return StepRecord(
        step_index=step,
        t=step * tau,
        energy=e,
        modified_energy=_finite(e + increment, "modified energy"),
        u_min=float(u.min()),
        u_max=float(u.max()),
    )


def _advance(grid: TorusGrid, u0: np.ndarray, model: ModelSpec, scheme: SchemeKind, tau: float, n_steps: int,
             record: bool = False, split: bool = True) -> Iterator[tuple[np.ndarray, StepRecord | None]]:
    """Yield (u, its StepRecord if record else None) after each of steps 1..n_steps from the array u0 on grid.

    Each step runs under _step_state on each of its threads, whatever the caller's numpy settings: a non-finite
    field or diagnostic raises NonFiniteError naming it and its step. Each u is one of the two ring arrays this
    generator owns, valid only until the next advance; it also owns a half spectrum, one multiplier and, for bdf2,
    the one array that carries f(u) to the next step (3.5 field sizes, 4.5 for bdf2). Where _splits(grid) holds,
    each solve runs its halves on this thread and on the helper thread _helper gives the generator until it ends
    (split=False keeps every step on this thread), bitwise the same, each thread carrying f in its own rows.
    Unrecorded, each step but the last forms the next one's right-hand side in its last row stage, so a split
    step hands off twice; a record needs the whole new field and u_prev.
    """
    _check_steps(n_steps)
    _check_positive("tau", tau)
    u, u_prev, bdf2 = u0, None, scheme is SchemeKind.BDF2
    # Step s writes ring[s % 2]: never u's slot; for bdf2 it is u_prev's, which
    # _bdf2_rhs reads before it writes there (u0 stays outside the ring).
    ring = [np.empty(grid.shape) for _ in range(2)]
    # bdf2 carries f(u) to the next step in f, which each row range reads before it writes there;
    # imex1 forms f in its output slot
    f = np.empty(grid.shape) if bdf2 else None
    spec = np.empty(grid._rfft_shape, dtype=np.complex128)
    # a record forms its sums in the half spectrum, free from the end of a solve to the next step's row stage
    scratch = _block(spec, grid.shape)
    mult = _helmholtz_multiplier(grid, model.kappa, 1.0, tau)

    def rhs(step, u, u_prev):
        """The row function of step's right-hand side, from the arrays u and u_prev (None at step 1)."""
        out = ring[step % 2]
        if bdf2 and step > 1:  # f holds f(u_prev), where the step before put f(its u)
            return _bdf2_rhs(model, tau, u, u_prev, f, spec, out)
        return _imex1_rhs(model, tau, u, f if bdf2 else out, out)  # BDF2 kick-starts with imex1

    then = None  # a step given then forms the next one's right-hand side in spec, as its last row stage
    # the helper (None where the run does not split) ends when the generator does: exhausted, closed, or raising
    with _helper(grid, split) as helper:
        for step in range(1, n_steps + 1):
            out = ring[step % 2]
            rows = None if then else rhs(step, u, u_prev)
            # the next step's u is this one's out and its u_prev this one's u, which no row reads after its rfft
            then = rhs(step + 1, out, u) if not record and step < n_steps else None
            try:  # the block closes before the yield: the caller's code between steps keeps its own numpy state
                with np.errstate():
                    _step_state()
                    u_next, gradient = _apply_multiplier(grid, rows, mult, spec, out, record, helper, then)
                    row = _record(model, grid, tau, step, u_next, u, gradient, scratch) if record else None
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc} at step {step}") from exc
            u, u_prev = u_next, u
            if bdf2 and step == 1:  # from step 2 on bdf2 solves with a = 3/2
                _helmholtz_multiplier(grid, model.kappa, 1.5, tau, out=mult)
            yield u, row


def run_steps(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float,
              n_steps: int) -> Iterator[tuple[Field, StepRecord]]:
    """Yield (u, record) after each of steps 1..n_steps, u being the step's new field.

    u wraps an array of the stepper's, not a copy, and stays valid only until
    the next step: copy what must outlive it. Aborts with NonFiniteError naming
    the first bad step if any iterate or its diagnostics stop being finite.
    Deterministic given identical inputs.
    """
    for u, record in _advance(u0.grid, u0.values, model, scheme, tau, n_steps, record=True):
        yield _field(u0.grid, u), record  # the solve checked each row range


def run(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float, n_steps: int) -> list[StepRecord]:
    """The StepRecord of each of steps 1..n_steps, as run_steps yields them."""
    return [record for _, record in run_steps(u0, model, scheme, tau, n_steps)]
