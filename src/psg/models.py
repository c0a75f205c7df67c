"""PDE model definitions: nonlinearities, potentials, energies, rescaling.

Both models are L^2 gradient flows du/dt = kappa^2*Lap(u) - F'(u) with
F_sg(u) = cos(u) (so -F' = sin u) and F_ac(u) = (u^2-1)^2/4 (so
-F' = u - u^3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, NonFiniteError, _apply_multiplier, _check_kappa, _check_positive

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
        _check_kappa(self.kappa)


@dataclass(frozen=True)
class GeneralModelParams:
    """Parameters of the generalized equation dv/dtau = kappa^2*Lap(v) + gamma*sin(beta*v)."""

    kappa: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        _check_positive("beta", self.beta)
        _check_positive("gamma", self.gamma)


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
    u = np.asarray(u_samples, dtype=np.float64)
    if kind is ModelKind.SINE_GORDON:
        return np.cos(u)
    return (u**2 - 1.0) ** 2 / 4.0


def energy(model: ModelSpec, u: Field) -> float:
    """E(u) = integral of F(u) - kappa^2/2 * u * Lap(u).

    The gradient term -kappa^2/2 * integral(u * Lap u) uses the spectral
    Laplacian the schemes invert, Nyquist mode included, so this is the
    discrete energy the schemes dissipate.
    """
    return _energy(model, u, _apply_multiplier(u.grid, u.values, 1.0, weights=u.grid._rfft_wk2)[1])


def _energy(model: ModelSpec, u: Field, weighted: float, out: np.ndarray | None = None) -> float:
    """energy(model, u) from weighted = sum(_rfft_wk2 * |rfftn(u.values)|^2): -integral(u * Lap u) by Parseval.

    The potential is summed in out (a field-sized scratch; a fresh array if None).
    """
    g = u.grid
    gradient = weighted * g.spacing**g.dim / g.size
    if not np.isfinite(gradient):
        raise NonFiniteError("gradient energy is not finite")
    return g.spacing**g.dim * _potential_sum(model.kind, u.values, out) + 0.5 * model.kappa**2 * gradient


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
    return _finite_sum(t, "potential energy")


def _finite_sum(values: np.ndarray, what: str) -> float:
    """float(values.sum()), or NonFiniteError naming what when it is not finite (a non-finite value, or overflow)."""
    total = float(values.sum())
    if not np.isfinite(total):
        raise NonFiniteError(f"{what} is not finite")
    return total


def modified_energy(model: ModelSpec, u_curr: Field, u_prev: Field, tau: float) -> float:
    """E(u_curr) + (1/(4*tau)) * ||u_curr - u_prev||^2, the two-step scheme's Lyapunov functional."""
    if u_curr.grid != u_prev.grid:
        raise ValueError("u_curr and u_prev live on different grids")
    _check_positive("tau", tau)
    return energy(model, u_curr) + _increment_energy(u_curr, u_prev, tau)


def _increment_energy(u_curr: Field, u_prev: Field, tau: float, out: np.ndarray | None = None) -> float:
    """(1/(4*tau)) * ||u_curr - u_prev||^2, the term modified_energy adds to E(u_curr); formed in out, as _energy."""
    g = u_curr.grid
    step = np.subtract(u_curr.values, u_prev.values, out=out)
    np.square(step, out=step)
    return g.spacing**g.dim * _finite_sum(step, "increment energy") / (4.0 * tau)


def rescale_general_to_standard(p: GeneralModelParams) -> StandardForm:
    """Change of variables u = beta*v, t = gamma*beta*tau to the standard form.

    Returns (sqrt(kappa^2/(gamma*beta)), gamma*beta, beta): simulate the
    standard equation with the returned diffusion coefficient, then map
    back via v(tau) = u(gamma*beta*tau)/beta.
    """
    gb = p.gamma * p.beta
    return StandardForm(float(np.sqrt(p.kappa**2 / gb)), gb, p.beta)
