"""Experiment configuration and named initial conditions."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .grid import Field, TorusGrid, _check_positive
from .io import read_snapshot
from .models import ModelKind, ModelSpec
from .schemes import _MAX_STEPS, SchemeKind, _check_steps

__all__ = ["ExperimentConfig", "INIT_PRESETS", "initial_field"]

# Named closed-form initializers, name -> (dim, formula of the node coordinates);
# anything else passed as init is treated as a snapshot path.
INIT_PRESETS: dict[str, tuple[int, Callable[..., np.ndarray]]] = {
    "pi_sin": (1, lambda x: np.pi * np.sin(x)),
    "pi_sin_sin": (2, lambda x, y: np.pi * np.sin(x) * np.sin(y)),
    "sin_sin": (2, lambda x, y: np.sin(x) * np.sin(y)),
}

# Relative tolerance for t_final / tau being an integer.
_COMMENSURATE_RTOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """One solver run: model, scheme, grid, time stepping and init.

    Exactly one of t_final / n_steps must be given. steps_for(tau) checks
    that t_final is an integer multiple of tau (within 1e-9 relative), so
    runs land exactly on the requested final time rather than rounding.
    A run takes at most 10**9 steps, by n_steps or by t_final / tau.
    """

    model_kind: ModelKind
    scheme: SchemeKind
    dim: int
    kappa: float
    tau: float
    n_per_axis: int
    t_final: float | None = None
    n_steps: int | None = None
    init: str = "pi_sin"

    def __post_init__(self) -> None:
        _check_positive("tau", self.tau)
        if (self.t_final is None) == (self.n_steps is None):
            raise ValueError("exactly one of t_final / n_steps must be given")
        if self.t_final is not None:
            _check_positive("t_final", self.t_final)
        else:
            _check_steps(self.n_steps)
        # Fail fast on bad grid/model parameters.
        TorusGrid(self.dim, self.n_per_axis)
        ModelSpec(self.model_kind, self.kappa)

    @property
    def model(self) -> ModelSpec:
        return ModelSpec(self.model_kind, self.kappa)

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(self.dim, self.n_per_axis)

    @property
    def step_count(self) -> int:
        return self.steps_for(self.tau)

    def steps_for(self, tau: float) -> int:
        """Steps of this run at time step tau: n_steps, or t_final / tau when that is an integer."""
        return self.n_steps if self.n_steps is not None else _steps_to(self.t_final, tau)


def _steps_to(t_final: float, tau: float) -> int:
    """t_final / tau, or ValueError unless it is a positive integer to within 1e-9 relative and at most 10**9."""
    if not 0.0 < t_final / tau < np.inf:
        raise ValueError(f"t_final / tau must be finite and > 0, got {t_final} / {tau}")
    steps = round(t_final / tau)
    if steps > _MAX_STEPS:
        raise ValueError(f"t_final / tau must be <= {_MAX_STEPS} steps, got {t_final} / {tau}")
    if steps < 1 or abs(steps * tau - t_final) > _COMMENSURATE_RTOL * max(1.0, t_final):
        raise ValueError(f"t_final = {t_final} is not an integer multiple of tau = {tau}")
    return steps


def initial_field(config: ExperimentConfig) -> Field:
    """Resolve the configured initial condition to a Field on the run grid."""
    name = config.init
    if name in INIT_PRESETS:
        dim, formula = INIT_PRESETS[name]
        if dim != config.dim:
            raise ValueError(f"init preset {name!r} is {dim}D but the run is {config.dim}D")
        return Field.from_function(config.grid, formula)

    path = Path(name)
    if not path.is_file():
        raise ValueError(f"unknown init {name!r}: not a named preset and not a readable file")
    loaded, _t, _kappa = read_snapshot(path)
    if loaded.grid != config.grid:
        raise ValueError(
            f"snapshot grid {loaded.grid.dim}D n={loaded.grid.n_per_axis} does not match "
            f"run grid {config.dim}D n={config.n_per_axis}"
        )
    return loaded
