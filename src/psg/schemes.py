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


def initial_state(u0: Field, model: ModelSpec, scheme: SchemeKind, tau: float) -> SchemeState:
    return SchemeState(scheme, model, tau, 0, u0, None)


def _imex1_kernel(u: Field, model: ModelSpec, tau: float, mult: np.ndarray,
                  f=None, rhs=None, spec=None, out=None) -> tuple[Field, np.ndarray, np.ndarray]:
    """One imex1 step from u (mult has a=1) in the given buffers, fresh where None: u_next, its u_hat, f(u)."""
    f = nonlinearity(model.kind, u, out=f).values
    rhs = np.multiply(tau, f, out=rhs)
    np.add(u.values, rhs, out=rhs)
    u_next, u_hat = _apply_multiplier(u.grid, rhs, mult, spec, out)
    return u_next, u_hat, f


def _bdf2_kernel(state: SchemeState, mult: np.ndarray,
                 f=None, rhs=None, spec=None, out=None) -> tuple[Field, np.ndarray, np.ndarray]:
    """One bdf2 step (mult has a=3/2), as _imex1_kernel; the terms are summed in out before the solve fills it."""
    kind, tau = state.model.kind, state.tau
    f_prev = state.f_prev if state.f_prev is not None else nonlinearity(kind, state.u_prev).values
    f = nonlinearity(kind, state.u_curr, out=f).values
    rhs = np.multiply(2.0, state.u_curr.values, out=rhs)
    term = np.multiply(0.5, state.u_prev.values, out=out)
    np.subtract(rhs, term, out=rhs)
    np.multiply(2.0, f, out=term)
    np.subtract(term, f_prev, out=term)
    np.multiply(tau, term, out=term)
    np.add(rhs, term, out=rhs)
    u_next, u_hat = _apply_multiplier(state.u_curr.grid, rhs, mult, spec, term)
    return u_next, u_hat, f


def imex1_step(state: SchemeState) -> SchemeState:
    """Advance one step: u <- (1 - tau*kappa^2*Lap)^{-1} (u + tau*f(u))."""
    if state.scheme is not SchemeKind.IMEX1:
        raise ValueError(f"imex1_step requires an IMEX1 state, got {state.scheme}")
    u, model, tau = state.u_curr, state.model, state.tau
    u_next, u_hat, f = _imex1_kernel(u, model, tau, _helmholtz_multiplier(u.grid, model.kappa, 1.0, tau))
    return SchemeState(state.scheme, model, tau, state.step_index + 1, u_next, u, u_hat, f)


def bdf2_step(state: SchemeState) -> SchemeState:
    """Advance one step: u <- (3/2 - tau*kappa^2*Lap)^{-1} (2*u - u_prev/2 + tau*(2*f(u) - f(u_prev)))."""
    if state.scheme is not SchemeKind.BDF2:
        raise ValueError(f"bdf2_step requires a BDF2 state, got {state.scheme}")
    if state.u_prev is None:
        raise ValueError("bdf2_step requires u_prev (kick-start the scheme first)")
    model, tau = state.model, state.tau
    u_next, u_hat, f = _bdf2_kernel(state, _helmholtz_multiplier(state.u_curr.grid, model.kappa, 1.5, tau))
    return SchemeState(state.scheme, model, tau, state.step_index + 1, u_next, state.u_curr, u_hat, f)


def kickstart_bdf2(u0: Field, model: ModelSpec, tau: float) -> SchemeState:
    """State after step 1, with u_prev = u0 and u_curr from one imex1 step of u0."""
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    u1, u_hat, f0 = _imex1_kernel(u0, model, tau, _helmholtz_multiplier(u0.grid, model.kappa, 1.0, tau))
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
    """Yield the state after steps 1, 2, ... without end; the caller decides when to stop.

    The steps run in buffers this generator owns, which hold each yielded state's
    arrays: a state is valid only until the next advance. Copy what must outlive it.
    """
    g, bdf2 = u0.grid, scheme is SchemeKind.BDF2
    state = initial_state(u0, model, scheme, tau)
    # Step s writes ring[s % len(ring)], never the slots holding u_curr and u_prev (u0 stays outside).
    ring = [np.empty(g.shape) for _ in range(3 if bdf2 else 2)]
    fs = [np.empty(g.shape) for _ in range(2 if bdf2 else 1)]  # f(u_curr) goes where f(u_prev) is not
    rhs, spec = np.empty(g.shape), np.empty(g._rfft_k2.shape, dtype=np.complex128)
    mults = [_helmholtz_multiplier(g, model.kappa, a, tau) for a in ((1.0, 1.5) if bdf2 else (1.0,))]
    while True:
        step = state.step_index + 1
        out, f = ring[step % len(ring)], fs[step % len(fs)]
        if bdf2 and step > 1:
            u_next, u_hat, f = _bdf2_kernel(state, mults[1], f, rhs, spec, out)
        else:  # BDF2 kick-starts with one imex1 step
            u_next, u_hat, f = _imex1_kernel(state.u_curr, model, tau, mults[0], f, rhs, spec, out)
        state = SchemeState(scheme, model, tau, step, u_next, state.u_curr, u_hat, f)
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
    with a state holding its own copies of u_curr, u_prev and u_hat (and
    no f_prev), so they may keep it.
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
            state = replace(state, u_curr=u_curr, u_prev=kept_prev, u_hat=state.u_hat.copy(), f_prev=None)
            kept_prev = u_curr
        for obs in observers:
            obs(state, record)
        del state  # frees the copies no observer kept (all but kept_prev) before the next step allocates
    return records
