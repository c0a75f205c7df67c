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

from .grid import Field, NonFiniteError, _helmholtz_solve
from .models import ModelSpec, _energy, _increment_energy, energy, nonlinearity

__all__ = [
    "SchemeKind",
    "SchemeState",
    "StepRecord",
    "Observer",
    "initial_state",
    "imex1_step",
    "bdf2_step",
    "kickstart_bdf2",
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
    # The half spectrum the solve inverted to u_curr, and f(u_prev); recomputed when absent.
    u_hat: np.ndarray | None = field(default=None, compare=False, repr=False)
    f_prev: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
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


def initial_state(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float) -> SchemeState:
    return SchemeState(scheme, model, tau, 0, u0, None)


def _imex_advance(u: Field, model: ModelSpec, tau: float) -> tuple[Field, np.ndarray, np.ndarray]:
    """One imex1 step from u: the new field, its half spectrum and f(u)."""
    f = nonlinearity(model.kind, u).values
    u_next, u_hat = _helmholtz_solve(Field(u.grid, u.values + tau * f), model.kappa, a=1.0, b=tau)
    return u_next, u_hat, f


def imex1_step(state: SchemeState) -> SchemeState:
    """Advance one step: u <- (1 - tau*kappa^2*Lap)^{-1} (u + tau*f(u))."""
    if state.scheme is not SchemeKind.IMEX1:
        raise ValueError(f"imex1_step requires an IMEX1 state, got {state.scheme}")
    u_next, u_hat, _ = _imex_advance(state.u_curr, state.model, state.tau)
    return SchemeState(state.scheme, state.model, state.tau, state.step_index + 1, u_next, state.u_curr, u_hat)


def bdf2_step(state: SchemeState) -> SchemeState:
    """Advance one step: u <- (3/2 - tau*kappa^2*Lap)^{-1} (2*u - u_prev/2 + tau*(2*f(u) - f(u_prev)))."""
    if state.scheme is not SchemeKind.BDF2:
        raise ValueError(f"bdf2_step requires a BDF2 state, got {state.scheme}")
    if state.u_prev is None:
        raise ValueError("bdf2_step requires u_prev (kick-start the scheme first)")
    model, tau = state.model, state.tau
    u_curr, u_prev = state.u_curr.values, state.u_prev.values
    f_curr = nonlinearity(model.kind, state.u_curr).values
    f_prev = state.f_prev if state.f_prev is not None else nonlinearity(model.kind, state.u_prev).values
    rhs = 2.0 * u_curr - 0.5 * u_prev + tau * (2.0 * f_curr - f_prev)
    u_next, u_hat = _helmholtz_solve(Field(state.u_curr.grid, rhs), model.kappa, a=1.5, b=tau)
    return SchemeState(state.scheme, model, tau, state.step_index + 1, u_next, state.u_curr, u_hat, f_curr)


def kickstart_bdf2(u0: Field, model: ModelSpec, tau: float) -> SchemeState:
    """State after step 1, with u_prev = u0 and u_curr from one imex1 step of u0."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    u1, u_hat, f0 = _imex_advance(u0, model, tau)
    return SchemeState(SchemeKind.BDF2, model, tau, 1, u1, u0, u_hat, f0)


def _record(state: SchemeState) -> StepRecord:
    u = state.u_curr
    u_min, u_max = u.min(), u.max()
    e = energy(state.model, u) if state.u_hat is None else _energy(state.model, u, state.u_hat)
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
    """Yield the state after steps 1, 2, ... without end; the caller decides when to stop."""
    if scheme is SchemeKind.BDF2:
        state, stepper = kickstart_bdf2(u0, model, tau), bdf2_step
        yield state
    else:
        state, stepper = initial_state(u0, model, scheme, tau), imex1_step
    while True:
        state = replace(state, u_hat=None)  # recorded already; only the newest spectrum stays alive
        state = stepper(state)
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

    Observers are invoked as observer(state, record) after each step.
    Aborts with NonFiniteError naming the first bad step if any iterate
    or its diagnostics stop being finite. Deterministic given identical inputs.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")

    records: list[StepRecord] = []
    states = _advance(u0, model, scheme, tau)
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
        for obs in observers:
            obs(state, record)
        del state  # so the step that makes the next state can free this one's u_hat
    return records
