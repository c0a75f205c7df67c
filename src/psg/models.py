"""PDE model definitions: nonlinearities, potentials, energies, rescaling.

Both models are L^2 gradient flows du/dt = kappa^2*Lap(u) - F'(u) with
F_sg(u) = cos(u) (so -F' = sin u) and F_ac(u) = (u^2-1)^2/4 (so
-F' = u - u^3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, NonFiniteError, TorusGrid, _apply_multiplier, _check_kappa, _check_positive, _real

__all__ = [
    "ModelKind",
    "ModelSpec",
    "GeneralModelParams",
    "StandardForm",
    "nonlinearity",
    "potential_values",
    "energy",
    "modified_energy",
    "rescale_general_to_standard",
]


class ModelKind(enum.Enum):
    SINE_GORDON = "sg"
    ALLEN_CAHN = "ac"


@dataclass(frozen=True)
class ModelSpec:
    """Which PDE to solve and its diffusion coefficient kappa (diffusion constant kappa^2)."""

    kind: ModelKind
    kappa: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))


@dataclass(frozen=True)
class GeneralModelParams:
    """Parameters of the generalized equation dv/dtau = kappa^2*Lap(v) + gamma*sin(beta*v)."""

    kappa: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        self.__dict__.update(kappa=_check_kappa(self.kappa), beta=_check_positive("beta", self.beta),
                             gamma=_check_positive("gamma", self.gamma))
        _check_positive("gamma * beta", self.gamma * self.beta)


class StandardForm(NamedTuple):
    standard_kappa: float
    time_scale: float
    amplitude_scale: float


def nonlinearity(kind: ModelKind, u: Field) -> Field:
    """Pointwise reaction term: sin(u) for sine-Gordon, u - u^3 for Allen-Cahn."""
    return Field(u.grid, _reaction(kind, u.values))


def _reaction(kind: ModelKind, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """nonlinearity's values without its finiteness check (a step's solve checks its result)."""
    if kind is ModelKind.SINE_GORDON:
        return np.sin(values, out=out)
    cube = np.multiply(values, values, out=out)  # two rounded multiplies: the same bits on every host
    cube *= values
    return np.subtract(values, cube, out=cube)


def potential_values(kind: ModelKind, u_samples) -> np.ndarray:
    """Potential F(u) evaluated pointwise (for table/plot emission)."""
    u = _real(u_samples, "u_samples")
    if kind is ModelKind.SINE_GORDON:
        return np.cos(u)
    return (u**2 - 1.0) ** 2 / 4.0


def energy(model: ModelSpec, u: Field) -> float:
    """E(u) = integral of F(u) - kappa^2/2 * u * Lap(u).

    The gradient term -kappa^2/2 * integral(u * Lap u) uses the spectral
    Laplacian the schemes invert, Nyquist mode included, so this is the
    discrete energy the schemes dissipate. NonFiniteError if it is not finite
    (say, when kappa^2 times the gradient term overflows).
    """
    return _energy(model, u.grid, u.values, _apply_multiplier(u.grid, u.values, 1.0, gradient=True)[1])


def _energy(model: ModelSpec, grid: TorusGrid, u: np.ndarray, gradient: float, out=None) -> float:
    """energy of the array u on grid from gradient = -integral(u * Lap u), as _apply_multiplier takes it of u's
    spectrum; the potential is summed in out (a field-sized scratch; a fresh array if None)."""
    total = grid.spacing**grid.dim * _potential_sum(model.kind, u, out) + 0.5 * model.kappa**2 * gradient
    return _finite(total, "energy")


def _potential_sum(kind: ModelKind, values: np.ndarray, out: np.ndarray | None = None) -> float:
    """sum(potential_values(kind, values)), formed in place in out; for sine-Gordon through tan (roundoff from cos)."""
    if kind is ModelKind.SINE_GORDON:
        # cos u = 2/(1 + tan(u/2)^2) - 1: numpy runs float64 tan in SIMD but sin/cos at
        # scalar-libm speed (where tan is not vectorized this costs ~30% more than cos).
        # Subtracting 1 pointwise, not N from the sum, keeps near-cancelling sums accurate.
        t = np.multiply(values, 0.5, out=out)
        np.tan(t, out=t)
        np.square(t, out=t)
        t += 1.0
        np.divide(2.0, t, out=t)
        t -= 1.0
    else:  # (u**2 - 1)**2 / 4 in potential_values' operation order, so bitwise equal to it
        t = np.square(values, out=out)
        t -= 1.0
        np.square(t, out=t)
        t /= 4.0
    return _finite(float(t.sum()), "potential energy")


def _finite(total: float, what: str) -> float:
    """total, or NonFiniteError naming what when it is not finite (a non-finite value, or overflow)."""
    if not np.isfinite(total):
        raise NonFiniteError(f"{what} is not finite")
    return total


def modified_energy(model: ModelSpec, u_curr: Field, u_prev: Field, tau: float) -> float:
    """E(u_curr) + (1/(4*tau)) * ||u_curr - u_prev||^2, the two-step scheme's Lyapunov functional."""
    if u_curr.grid != u_prev.grid:
        raise ValueError("u_curr and u_prev live on different grids")
    tau = _check_positive("tau", tau)
    return _finite(energy(model, u_curr) + _increment_energy(u_curr.grid, u_curr.values, u_prev.values, tau),
                   "modified energy")


def _increment_energy(grid: TorusGrid, u_curr: np.ndarray, u_prev: np.ndarray, tau: float, out=None) -> float:
    """(1/(4*tau)) * ||u_curr - u_prev||^2 on grid, modified_energy's term past E(u_curr); in out, as _energy."""
    step = np.subtract(u_curr, u_prev, out=out)
    np.square(step, out=step)
    return grid.spacing**grid.dim * _finite(float(step.sum()), "increment energy") / (4.0 * tau)


def rescale_general_to_standard(p: GeneralModelParams) -> StandardForm:
    """Change of variables u = beta*v, t = gamma*beta*tau to the standard form.

    Returns (kappa/sqrt(gamma*beta), gamma*beta, beta), or ValueError unless the
    first is finite and > 0: simulate the standard equation with the returned
    diffusion coefficient, then map back via v(tau) = u(gamma*beta*tau)/beta.
    """
    gb = p.gamma * p.beta
    standard_kappa = p.kappa / math.sqrt(gb)  # no kappa^2, which underflows for a tiny kappa
    _check_positive("standard_kappa", standard_kappa)
    return StandardForm(standard_kappa, gb, p.beta)
