"""Experiment configuration and named initial conditions."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .grid import Field, TorusGrid, _check_positive
from .models import ModelKind, ModelSpec
from .schemes import SchemeKind

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

    Exactly one of t_final / n_steps must be given; t_final must be an
    integer multiple of tau (within 1e-9 relative) so runs land exactly on
    the requested final time rather than silently rounding.
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
            if not 0.0 < self.t_final / self.tau < np.inf:
                raise ValueError(f"t_final / tau must be finite and > 0, got {self.t_final} / {self.tau}")
            steps = round(self.t_final / self.tau)
            if steps < 1 or abs(steps * self.tau - self.t_final) > _COMMENSURATE_RTOL * max(1.0, self.t_final):
                raise ValueError(
                    f"t_final = {self.t_final} is not an integer multiple of tau = {self.tau}"
                )
        elif self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
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
        if self.n_steps is not None:
            return self.n_steps
        return round(self.t_final / self.tau)


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
    from .io import read_snapshot

    loaded, _t, _kappa = read_snapshot(path)
    if loaded.grid != config.grid:
        raise ValueError(
            f"snapshot grid {loaded.grid.dim}D n={loaded.grid.n_per_axis} does not match "
            f"run grid {config.dim}D n={config.n_per_axis}"
        )
    return loaded
