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

from .grid import Field, NonFiniteError, _apply_multiplier, integrate

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
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")


@dataclass(frozen=True)
class GeneralModelParams:
    """Parameters of the generalized equation dv/dtau = kappa^2*Lap(v) + gamma*sin(beta*v)."""

    kappa: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("kappa", "beta", "gamma"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")


class StandardForm(NamedTuple):
    standard_kappa: float
    time_scale: float
    amplitude_scale: float


def nonlinearity(kind: ModelKind, u: Field, out: np.ndarray | None = None) -> Field:
    """Pointwise reaction term: sin(u) for sine-Gordon, u - u^3 for Allen-Cahn; written into out if given."""
    return Field(u.grid, _reaction(kind, u.values, out))


def _reaction(kind: ModelKind, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """nonlinearity's values without its finiteness check (a step's solve checks its result)."""
    if kind is ModelKind.SINE_GORDON:
        return np.sin(values, out=out)
    cube = np.power(values, 3, out=out)
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


def _energy(model: ModelSpec, u: Field, weighted: float) -> float:
    """energy(model, u) from weighted = sum(_rfft_wk2 * |rfftn(u.values)|^2): -integral(u * Lap u) by Parseval."""
    g = u.grid
    gradient = weighted * g.spacing**g.dim / g.size
    if not np.isfinite(gradient):
        raise NonFiniteError("gradient energy is not finite")
    return integrate(Field(g, potential_values(model.kind, u.values))) + 0.5 * model.kappa**2 * gradient


def modified_energy(model: ModelSpec, u_curr: Field, u_prev: Field, tau: float) -> float:
    """E(u_curr) + (1/(4*tau)) * ||u_curr - u_prev||^2, the two-step scheme's Lyapunov functional."""
    if u_curr.grid != u_prev.grid:
        raise ValueError("u_curr and u_prev live on different grids")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return energy(model, u_curr) + _increment_energy(u_curr, u_prev, tau)


def _increment_energy(u_curr: Field, u_prev: Field, tau: float) -> float:
    """(1/(4*tau)) * ||u_curr - u_prev||^2, the term modified_energy adds to E(u_curr)."""
    return integrate(Field(u_curr.grid, (u_curr.values - u_prev.values) ** 2)) / (4.0 * tau)


def rescale_general_to_standard(p: GeneralModelParams) -> StandardForm:
    """Change of variables u = beta*v, t = gamma*beta*tau to the standard form.

    Returns (sqrt(kappa^2/(gamma*beta)), gamma*beta, beta): simulate the
    standard equation with the returned diffusion coefficient, then map
    back via v(tau) = u(gamma*beta*tau)/beta.
    """
    gb = p.gamma * p.beta
    return StandardForm(float(np.sqrt(p.kappa**2 / gb)), gb, p.beta)
