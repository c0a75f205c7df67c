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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .grid import Field, NonFiniteError, _apply_multiplier, _helmholtz_multiplier
from .models import ModelSpec, _energy, _increment_energy, nonlinearity

__all__ = [
    "SchemeKind",
    "SchemeState",
    "StepRecord",
    "Observer",
    "run",
]


class SchemeKind(enum.Enum):
    IMEX1 = "imex1"
    BDF2 = "bdf2"


@dataclass(frozen=True)
class SchemeState:
    """Stepper state after step_index steps of size tau (t = step_index * tau)."""

    scheme: SchemeKind
    model: ModelSpec
    tau: float
    step_index: int
    u_curr: Field
    u_prev: Field | None = None
    # The half spectrum the solve inverted to u_curr (none before the first step).
    u_hat: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if self.step_index < 0:
            raise ValueError(f"step_index must be >= 0, got {self.step_index}")
        if (self.u_prev is not None) != (self.step_index >= 1):
            raise ValueError("u_prev must be present exactly when step_index >= 1")
        if self.u_prev is not None and self.u_prev.grid != self.u_curr.grid:
            raise ValueError("u_curr and u_prev live on different grids")

    @property
    def t_curr(self) -> float:
        return self.step_index * self.tau


@dataclass(frozen=True)
class StepRecord:
    """Diagnostic row per step; linf = max(|u_min|, |u_max|)."""

    step_index: int
    t: float
    energy: float
    modified_energy: float | None
    u_min: float
    u_max: float
    linf: float

    def __post_init__(self) -> None:
        expected = max(abs(self.u_min), abs(self.u_max))
        if self.linf != expected:
            raise ValueError(f"linf {self.linf} inconsistent with u_min/u_max (expected {expected})")


Observer = Callable[[SchemeState, StepRecord], None]


def _imex1_kernel(u: Field, model: ModelSpec, tau: float, mult: np.ndarray,
                  f, rhs, spec, out) -> tuple[Field, np.ndarray]:
    """One imex1 step from u (mult has a=1) in the given buffers: (u_next, its u_hat); f gets f(u)."""
    nonlinearity(model.kind, u, out=f)
    np.multiply(tau, f, out=rhs)
    np.add(u.values, rhs, out=rhs)
    return _apply_multiplier(u.grid, rhs, mult, spec, out)


def _bdf2_kernel(state: SchemeState, f_old: np.ndarray, mult: np.ndarray,
                 f, rhs, spec, out) -> tuple[Field, np.ndarray]:
    """One bdf2 step (mult has a=3/2; f_old holds f(u_prev)), as _imex1_kernel; terms are summed in out."""
    nonlinearity(state.model.kind, state.u_curr, out=f)
    np.multiply(2.0, state.u_curr.values, out=rhs)
    term = np.multiply(0.5, state.u_prev.values, out=out)
    np.subtract(rhs, term, out=rhs)
    np.multiply(2.0, f, out=term)
    np.subtract(term, f_old, out=term)
    np.multiply(state.tau, term, out=term)
    np.add(rhs, term, out=rhs)
    return _apply_multiplier(state.u_curr.grid, rhs, mult, spec, term)


def _record(state: SchemeState) -> StepRecord:
    u = state.u_curr
    u_min, u_max = u.min(), u.max()
    e = _energy(state.model, u, state.u_hat)
    mod = None
    if state.u_prev is not None:
        mod = e + _increment_energy(u, state.u_prev, state.tau)
    return StepRecord(
        step_index=state.step_index,
        t=state.t_curr,
        energy=e,
        modified_energy=mod,
        u_min=u_min,
        u_max=u_max,
        linf=max(abs(u_min), abs(u_max)),
    )


def _advance(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float) -> Iterator[SchemeState]:
    """Yield the state after steps 1, 2, ... without end; the caller decides when to stop.

    The steps run in buffers this generator owns, which hold each yielded state's
    arrays: a state is valid only until the next advance. Copy what must outlive it.
    """
    g, bdf2 = u0.grid, scheme is SchemeKind.BDF2
    state = SchemeState(scheme, model, tau, 0, u0)
    # Step s writes ring[s % 2]: never u_curr's slot; for bdf2 it is u_prev's, which
    # _bdf2_kernel reads once, before it writes there (u0 stays outside the ring).
    ring = [np.empty(g.shape) for _ in range(2)]
    fs = [np.empty(g.shape) for _ in range(2 if bdf2 else 1)]  # step s puts f(u_curr) in fs[s % len(fs)]
    rhs, spec = np.empty(g.shape), np.empty(g._rfft_k2.shape, dtype=np.complex128)
    mults = [_helmholtz_multiplier(g, model.kappa, a, tau) for a in ((1.0, 1.5) if bdf2 else (1.0,))]
    while True:
        step = state.step_index + 1
        out, f = ring[step % 2], fs[step % len(fs)]
        if bdf2 and step > 1:  # f(u_prev) is where the step before put f(its u_curr)
            u_next, u_hat = _bdf2_kernel(state, fs[(step - 1) % 2], mults[1], f, rhs, spec, out)
        else:  # BDF2 kick-starts with one imex1 step
            u_next, u_hat = _imex1_kernel(state.u_curr, model, tau, mults[0], f, rhs, spec, out)
        state = SchemeState(scheme, model, tau, step, u_next, state.u_curr, u_hat)
        yield state


def run(
    u0: Field,
    model: ModelSpec,
    scheme: SchemeKind,
    tau: float,
    n_steps: int,
    observers: Sequence[Observer] = (),
) -> list[StepRecord]:
    """Advance n_steps steps, emitting one StepRecord per step (steps 1..n_steps).

    Observers are invoked as observer(state, record) after each step,
    with a state holding its own copies of u_curr, u_prev and u_hat, so
    they may keep it.
    Aborts with NonFiniteError naming the first bad step if any iterate
    or its diagnostics stop being finite. Deterministic given identical inputs.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    records: list[StepRecord] = []
    states = _advance(u0, model, scheme, tau)
    kept_prev = u0  # a field of its own with the values of the next state's u_prev
    for step in range(1, n_steps + 1):
        # Overflow in the explicit term or the energy shows up as non-finite
        # values, which the Field constructor rejects; silence the intermediate
        # numpy warnings for the step and its record only.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                state = next(states)
                record = _record(state)
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite field values at step {step}") from exc
        records.append(record)
        if observers:
            # the next advance overwrites the state's arrays; observers get copies they may keep
            u_curr = Field(state.u_curr.grid, state.u_curr.values.copy())
            state = replace(state, u_curr=u_curr, u_prev=kept_prev, u_hat=state.u_hat.copy())
            kept_prev = u_curr
        for obs in observers:
            obs(state, record)
        del state  # frees the copies no observer kept (all but kept_prev) before the next step allocates
    return records
