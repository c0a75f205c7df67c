"""Periodic torus grids and exact Fourier-multiplier operators.

All operators are diagonal in the discrete Fourier basis on the uniform
grid x_j = -pi + j * (2*pi/n), so "the Laplacian" here means: multiply the
coefficient at wavenumber vector k by -|k|^2 and transform back. No
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
    "SpectralCoeffs",
    "NonFiniteError",
    "forward_transform",
    "inverse_transform",
    "laplacian",
    "first_derivative",
    "helmholtz_solve",
    "integrate",
]


class NonFiniteError(ValueError):
    """A field contains NaN or Inf entries."""


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

    @cached_property
    def _phase(self) -> np.ndarray:
        # (-1)^k per axis: relates 0-based FFT output to coefficients with
        # respect to e^{ikx} on the actual nodes starting at -pi.
        p = np.where(self.wavenumbers % 2 == 0, 1.0, -1.0)
        if self.dim == 1:
            return p
        return p[:, None] * p[None, :]


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


@dataclass(frozen=True)
class SpectralCoeffs:
    """Complex Fourier coefficients of a real field, FFT order per axis.

    Coefficients are with respect to the basis e^{i k.x} on the actual
    nodes, normalized so a pure mode cos(kx) has coefficient 1/2 at each
    of +-k. Real input implies Hermitian symmetry: c(-k) = conj(c(k)).
    """

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.complex128)
        if d.shape != self.grid.shape:
            raise ValueError(f"data shape {d.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "data", d)

    def coefficient(self, *k: int) -> complex:
        """Coefficient at integer wavenumber tuple k (one entry per axis)."""
        if len(k) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} wavenumber components, got {len(k)}")
        n = self.grid.n_per_axis
        for kk in k:
            if not -n // 2 <= kk <= n // 2 - 1:
                raise ValueError(f"wavenumber {kk} outside {{-{n // 2}, ..., {n // 2 - 1}}}")
        idx = tuple(kk % n for kk in k)
        return complex(self.data[idx])


def forward_transform(f: Field) -> SpectralCoeffs:
    """Exact discrete Fourier transform of a real field."""
    g = f.grid
    data = np.fft.fftn(f.values) * (g._phase / g.size)
    return SpectralCoeffs(g, data)


def inverse_transform(c: SpectralCoeffs) -> Field:
    """Inverse transform; round-trips forward_transform to ~1e-15."""
    g = c.grid
    values = np.fft.ifftn(c.data * g._phase).real * g.size
    return Field(g, values)


def _apply_multiplier(f: Field, mult: np.ndarray) -> Field:
    axes = tuple(range(f.grid.dim))
    spec = np.fft.rfftn(f.values, axes=axes)
    return Field(f.grid, np.fft.irfftn(spec * mult, s=f.grid.shape, axes=axes))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: coefficient at k scaled by -|k|^2."""
    return _apply_multiplier(f, -f.grid._rfft_k2)


def first_derivative(f: Field, axis: int = 0) -> Field:
    """Spectral first derivative along one axis (multiplier i*k, Nyquist zeroed)."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return _apply_multiplier(f, f.grid._rfft_deriv[axis])


def helmholtz_solve(rhs: Field, kappa: float, a: float, b: float) -> Field:
    """Invert a*I - b*kappa^2*Laplacian, diagonal in Fourier space.

    Both schemes reduce their implicit solve to this: the first-order
    scheme with a=1, b=tau and the two-step scheme with a=3/2, b=tau.
    Requires a > 0 (otherwise the operator kills constants) and b >= 0.
    """
    if a <= 0:
        raise ValueError(f"a must be > 0 (operator not invertible on constants), got {a}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return _apply_multiplier(rhs, 1.0 / (a + b * kappa**2 * rhs.grid._rfft_k2))


def integrate(f: Field) -> float:
    """Rectangle rule spacing^dim * sum(values); spectrally accurate on the torus."""
    return f.grid.spacing**f.grid.dim * float(f.values.sum())
