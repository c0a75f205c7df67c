"""Periodic torus grids and exact Fourier-multiplier operators.

All operators are diagonal in the discrete Fourier basis on the uniform
grid x_j = -pi + j * (2*pi/n), so "the Laplacian" here means: multiply the
coefficient at wavenumber vector k by -|k|^2 and transform back. Every
transform runs in _apply_multiplier, in the half-complex (rfft) layout. No
dealiasing is applied anywhere; nonlinearities are evaluated pointwise in
physical space by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "NonFiniteError",
    "laplacian",
    "first_derivative",
    "helmholtz_solve",
    "integrate",
]


class NonFiniteError(ValueError):
    """A field contains NaN or Inf entries."""


def _check_positive(name: str, value: float) -> None:
    """ValueError unless 0 < value < inf (so NaN fails too)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_kappa(kappa: float) -> None:
    """_check_positive for kappa, which every operator and energy also squares."""
    _check_positive("kappa", kappa)
    if not float(kappa) * float(kappa) < np.inf:  # float ** raises OverflowError, numpy's * warns
        raise ValueError(f"kappa must be finite and > 0 with kappa^2 finite, got {kappa}")


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [-pi, pi)^dim.

    Nodes per axis are x_j = -pi + j * spacing, j = 0..n-1 (left endpoint
    included, right excluded). Wavenumbers per axis are the integers
    {-n/2, ..., n/2 - 1}, stored in FFT order. n must be even and >= 4;
    powers of two are the fast path.
    """

    dim: int
    n_per_axis: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.n_per_axis
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.n_per_axis**self.dim

    @cached_property
    def nodes(self) -> np.ndarray:
        """Per-axis node coordinates."""
        x = -np.pi + self.spacing * np.arange(self.n_per_axis)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis integer wavenumbers in FFT order."""
        k = (np.fft.fftfreq(self.n_per_axis) * self.n_per_axis).astype(np.int64)
        k.setflags(write=False)
        return k

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of node coordinates, one array per axis (indexing 'ij')."""
        if self.dim == 1:
            return (self.nodes,)
        return tuple(np.meshgrid(self.nodes, self.nodes, indexing="ij"))

    # -- cached multiplier tables in the half-complex (rfft) layout --------

    @cached_property
    def _rfft_k2(self) -> np.ndarray:
        k = self.wavenumbers.astype(np.float64)
        kr = np.fft.rfftfreq(self.n_per_axis) * self.n_per_axis
        if self.dim == 1:
            return kr**2
        return (k**2)[:, None] + (kr**2)[None, :]

    @cached_property
    def _rfft_wk2(self) -> np.ndarray:
        # |k|^2 times the Parseval weight: columns 0 and n/2 have no conjugate twin
        return np.r_[1.0, np.full(self.n_per_axis // 2 - 1, 2.0), 1.0] * self._rfft_k2

    @cached_property
    def _rfft_deriv(self) -> tuple[np.ndarray, ...]:
        # Nyquist mode zeroed so derivatives of real fields stay real.
        n = self.n_per_axis
        k = self.wavenumbers.astype(np.float64)
        k[n // 2] = 0.0
        kr = np.fft.rfftfreq(n) * n
        kr[-1] = 0.0
        if self.dim == 1:
            return (1j * kr,)
        return (1j * k[:, None], 1j * kr[None, :])


@dataclass(frozen=True)
class Field:
    """Real-valued grid function, stored row-major with axis 0 = x.

    Values are always float64 and finite; construction rejects NaN/Inf so
    a blow-up surfaces as soon as an operation produces one.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "Field":
        """Sample fn at the grid nodes; fn takes one coordinate array per axis."""
        return cls(grid, fn(*grid.coords()))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def _apply_multiplier(grid: TorusGrid, values: np.ndarray, mult: np.ndarray,
                      spec=None, out=None, weights=None) -> tuple[Field, float | None]:
    """values times mult (in out if given), and sum(weights * |spectrum * mult|^2) if weights are given."""
    spec = np.fft.rfftn(values, axes=tuple(range(grid.dim)), out=spec)
    spec *= mult
    total = None
    if weights is not None:  # one half-field temporary: the imaginary squares go in out, free until the inverse
        power = np.square(spec.real)
        imag2 = None if out is None else out.reshape(-1)[:power.size].reshape(power.shape)
        power += np.square(spec.imag, out=imag2)
        power *= weights
        total = float(power.sum())
    if grid.dim == 2:  # irfftn's stages, run in spec: no second half spectrum, but spec is overwritten
        np.fft.ifft(spec, axis=0, out=spec)
    return Field(grid, np.fft.irfft(spec, n=grid.n_per_axis, axis=-1, out=out)), total


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: coefficient at k scaled by -|k|^2."""
    return _apply_multiplier(f.grid, f.values, -f.grid._rfft_k2)[0]


def first_derivative(f: Field, axis: int = 0) -> Field:
    """Spectral first derivative along one axis (multiplier i*k, Nyquist zeroed)."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return _apply_multiplier(f.grid, f.values, f.grid._rfft_deriv[axis])[0]


def helmholtz_solve(rhs: Field, kappa: float, a: float, b: float) -> Field:
    """Invert a*I - b*kappa^2*Laplacian, diagonal in Fourier space.

    Both schemes reduce their implicit solve to this: the first-order
    scheme with a=1, b=tau and the two-step scheme with a=3/2, b=tau.
    Requires a > 0 (otherwise the operator kills constants) and b >= 0.
    """
    return _apply_multiplier(rhs.grid, rhs.values, _helmholtz_multiplier(rhs.grid, kappa, a, b))[0]


def _helmholtz_multiplier(grid: TorusGrid, kappa: float, a: float, b: float) -> np.ndarray:
    """1/(a + b*kappa^2*|k|^2) in the rfft layout: the multiplier helmholtz_solve applies."""
    _check_positive("a", a)  # a = 0 is not invertible on constants
    if not 0.0 <= b < np.inf:
        raise ValueError(f"b must be finite and >= 0, got {b}")
    _check_kappa(kappa)
    return 1.0 / (a + b * kappa**2 * grid._rfft_k2)


def integrate(f: Field) -> float:
    """Rectangle rule spacing^dim * sum(values); spectrally accurate on the torus."""
    return f.grid.spacing**f.grid.dim * float(f.values.sum())
