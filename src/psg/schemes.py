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
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .grid import Field, NonFiniteError, _apply_multiplier, _check_positive, _helmholtz_multiplier
from .models import ModelSpec, _energy, _increment_energy, _reaction

__all__ = [
    "SchemeKind",
    "StepRecord",
    "run_steps",
    "run",
]


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
    linf: float

    def __post_init__(self) -> None:
        expected = max(abs(self.u_min), abs(self.u_max))
        if self.linf != expected:
            raise ValueError(f"linf {self.linf} inconsistent with u_min/u_max (expected {expected})")


def _imex1_kernel(u: Field, model: ModelSpec, tau: float, mult: np.ndarray,
                  f, rhs, spec, out, weights) -> tuple[Field, float | None]:
    """One imex1 step from u (mult has a=1) in the given buffers, which may all be out: (u_next, its gradient_sum)."""
    _reaction(model.kind, u.values, out=f)
    np.multiply(tau, f, out=rhs)
    np.add(u.values, rhs, out=rhs)
    return _apply_multiplier(u.grid, rhs, mult, spec, out, weights)


def _bdf2_kernel(model: ModelSpec, tau: float, u: Field, u_prev: Field, f_old: np.ndarray, mult: np.ndarray,
                 f, rhs, spec, out, weights) -> tuple[Field, float | None]:
    """One bdf2 step (mult has a=3/2; f_old holds f(u_prev)), as _imex1_kernel; terms are summed in out."""
    _reaction(model.kind, u.values, out=f)
    np.multiply(2.0, u.values, out=rhs)
    term = np.multiply(0.5, u_prev.values, out=out)
    np.subtract(rhs, term, out=rhs)
    np.multiply(2.0, f, out=term)
    np.subtract(term, f_old, out=term)
    np.multiply(tau, term, out=term)
    np.add(rhs, term, out=rhs)
    return _apply_multiplier(u.grid, rhs, mult, spec, term, weights)


def _record(model: ModelSpec, tau: float, step: int, u: Field, u_prev: Field, gradient_sum: float) -> StepRecord:
    u_min, u_max = u.min(), u.max()
    scratch = np.empty(u.grid.shape)  # the record's one transient field: each sum is formed in it
    e = _energy(model, u, gradient_sum, scratch)
    return StepRecord(
        step_index=step,
        t=step * tau,
        energy=e,
        modified_energy=e + _increment_energy(u, u_prev, tau, scratch),
        u_min=u_min,
        u_max=u_max,
        linf=max(abs(u_min), abs(u_max)),
    )


def _advance(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float,
             weights=None) -> Iterator[tuple[Field, Field, float | None]]:
    """Yield (u, u_prev, gradient_sum) after steps 1, 2, ... without end; the caller decides when to stop.

    gradient_sum is sum(weights * |rfftn(u)|^2), taken in the solve, or None without
    weights. The steps run in buffers this generator owns, which hold each yielded
    field's array: a field is valid only until the next advance. Copy what must outlive it.
    """
    _check_positive("tau", tau)
    g, bdf2 = u0.grid, scheme is SchemeKind.BDF2
    u, u_prev = u0, None
    # Step s writes ring[s % 2]: never u's slot; for bdf2 it is u_prev's, which
    # _bdf2_kernel reads once, before it writes there (u0 stays outside the ring).
    ring = [np.empty(g.shape) for _ in range(2)]
    # bdf2 carries f(u) to the next step in fs[s % 2]; imex1 forms f and rhs in its output slot
    fs, rhs_buf = ([np.empty(g.shape) for _ in range(2)], np.empty(g.shape)) if bdf2 else (None, None)
    spec = np.empty(g._rfft_k2.shape, dtype=np.complex128)
    mults = [_helmholtz_multiplier(g, model.kappa, a, tau) for a in ((1.0, 1.5) if bdf2 else (1.0,))]
    for step in itertools.count(1):
        out = ring[step % 2]
        f, rhs = (fs[step % 2], rhs_buf) if bdf2 else (out, out)
        if bdf2 and step > 1:  # f(u_prev) is where the step before put f(its u)
            u_next, total = _bdf2_kernel(model, tau, u, u_prev, fs[(step - 1) % 2], mults[1],
                                         f, rhs, spec, out, weights)
        else:  # BDF2 kick-starts with one imex1 step
            u_next, total = _imex1_kernel(u, model, tau, mults[0], f, rhs, spec, out, weights)
        u, u_prev = u_next, u
        yield u, u_prev, total


def _checked(steps: Iterator[tuple[Field, Field, float | None]], n_steps: int,
             then: Callable = lambda step, u, u_prev, gradient_sum: u) -> Iterator:
    """Yield then(step, u, u_prev, gradient_sum) for steps 1..n_steps of an _advance stream, numpy's
    overflow warnings silenced: a non-finite field or diagnostic raises NonFiniteError naming its step."""
    for step in range(1, n_steps + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                result = then(step, *next(steps))
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite field values at step {step}") from exc
        yield result


def run_steps(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float,
              n_steps: int) -> Iterator[tuple[Field, StepRecord]]:
    """Yield (u, record) after each of steps 1..n_steps, u being the step's new field.

    u's array lives in the stepper's buffers and stays valid only until the
    next step: copy what must outlive it. Aborts with NonFiniteError naming
    the first bad step if any iterate or its diagnostics stop being finite.
    Deterministic given identical inputs.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    steps = _advance(u0, model, scheme, tau, weights=u0.grid._rfft_wk2)
    yield from _checked(steps, n_steps, lambda step, u, u_prev, gradient_sum:
                        (u, _record(model, tau, step, u, u_prev, gradient_sum)))


def run(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float, n_steps: int) -> list[StepRecord]:
    """The StepRecord of each of steps 1..n_steps, as run_steps yields them."""
    return [record for _, record in run_steps(u0, model, scheme, tau, n_steps)]
