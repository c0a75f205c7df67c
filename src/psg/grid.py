"""Periodic torus grids and exact Fourier-multiplier operators.

All operators are diagonal in the discrete Fourier basis on the uniform
grid x_j = -pi + j * (2*pi/n), so "the Laplacian" here means: multiply the
coefficient at wavenumber vector k by -|k|^2 and transform back. Every
transform runs in _apply_multiplier, in the half-complex (rfft) layout. No
dealiasing is applied anywhere; nonlinearities are evaluated pointwise in
physical space by the callers.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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


_DIMS = (1, 2)  # the supported dimensions: TorusGrid's, a snapshot's and the CLI's --dim


class NonFiniteError(ValueError):
    """A field contains NaN or Inf entries."""


def _check_positive(name: str, value: float) -> None:
    """ValueError unless 0 < value < inf (so NaN fails too)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _all_positive(values) -> bool:
    """Whether every entry of values is finite and > 0, _check_positive's rule for a list (NaN fails)."""
    values = np.asarray(values)
    return bool(np.all((0.0 < values) & (values < np.inf)))


def _real(values, name: str, ndim: int | None = None) -> np.ndarray:
    """values as a float64 array (values itself if it is one), the one check of a public array argument: ValueError
    naming name for a dtype other than bool, integer or floating (complex, object or text, which a cast would cut,
    turn into NaN or parse) and, given ndim, unless values has ndim dimensions and at least one entry."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got dtype {array.dtype}")
    if ndim is not None and (array.ndim != ndim or not array.size):
        raise ValueError(f"{name} must be a nonempty {ndim}D sequence, got shape {array.shape}")
    return np.asarray(array, dtype=np.float64)


def _check_kappa(kappa: float) -> None:
    """_check_positive for kappa, which every operator and energy also squares.

    kappa must also be a normal float: below that, x/kappa overflows and a steady state's x samples lose digits."""
    _check_positive("kappa", kappa)
    tiny = float(np.finfo(float).tiny)  # the smallest normal float64
    if not (tiny <= kappa and float(kappa) * float(kappa) < np.inf):  # float ** raises OverflowError
        raise ValueError(f"kappa must be finite and > 0 with kappa^2 finite and kappa >= {tiny!r}, got {kappa}")


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
        for name in ("dim", "n_per_axis"):  # numpy integers pass; a float size would fail later, in shape
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.dim not in _DIMS:
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
        k = np.r_[: self.n_per_axis // 2, -(self.n_per_axis // 2) : 0]
        k.setflags(write=False)
        return k

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of node coordinates, one array per axis (indexing 'ij')."""
        return tuple(np.meshgrid(*(self.nodes,) * self.dim, indexing="ij"))

    # -- multiplier tables in the half-complex (rfft) layout. A grid caches each axis's wavenumbers, the weighted
    # |k|^2 a recorded step reads and the derivatives' i*k, but not |k|^2: a run forms it in its multiplier's buffer.

    @property
    def _rfft_shape(self) -> tuple[int, ...]:
        """The half spectrum's shape: the last axis keeps its n/2 + 1 wavenumbers >= 0."""
        return self.shape[:-1] + (self.n_per_axis // 2 + 1,)

    @cached_property
    def _rfft_axes(self) -> tuple[np.ndarray, ...]:
        """Each axis's wavenumbers as floats, shaped to broadcast over the half spectrum (np.ix_'s open mesh)."""
        n = self.n_per_axis
        return np.ix_(*(self.wavenumbers.astype(np.float64),) * (self.dim - 1), np.arange(n // 2 + 1.0))

    def _squared_wavenumbers(self, out=None) -> np.ndarray:
        """|k|^2 in the rfft layout (in out if given): exact integers, so any later scaling rounds once."""
        first, *rest = self._rfft_axes
        k2 = np.square(first, out=np.empty(self._rfft_shape) if out is None else out)
        for k in rest:
            k2 += np.square(k)
        return k2

    @cached_property
    def _rfft_wk2(self) -> np.ndarray:
        # |k|^2 times the Parseval weight (columns 0 and n/2 have no conjugate twin), which each recorded step reads
        wk2 = self._squared_wavenumbers()
        wk2 *= np.r_[1.0, np.full(self.n_per_axis // 2 - 1, 2.0), 1.0]
        return wk2

    @cached_property
    def _rfft_deriv(self) -> tuple[np.ndarray, ...]:
        deriv = tuple(1j * k for k in self._rfft_axes)
        for ik in deriv:  # Nyquist mode (index n/2 on its axis) zeroed so derivatives of real fields stay real
            ik.flat[self.n_per_axis // 2] = 0.0
        return deriv


@dataclass(frozen=True)
class Field:
    """Real-valued grid function, stored row-major with axis 0 = x.

    Values are always real float64 and finite; construction rejects complex
    values, and NaN/Inf so a blow-up surfaces as soon as an operation produces one.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _real(self.values, "values")
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        _check_finite(v)
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


def _field(grid: TorusGrid, values: np.ndarray) -> Field:
    """A Field around a solve's array, which it checked row by row: the one constructor that skips __post_init__."""
    field = object.__new__(Field)
    field.__dict__.update(grid=grid, values=values)
    return field


def _apply_multiplier(grid: TorusGrid, values, mult: np.ndarray, spec=None, out=None, gradient=False,
                      helper=None, then=None) -> tuple[np.ndarray, float | None]:
    """values times mult (in out if given), and with gradient=True the result's -integral(v * Lap v) by Parseval.

    values is an array, or a function of a row range that forms those rows of the input and returns them;
    until the row stage's rfft writes spec's rows of that range, the function may use them as scratch.
    The solve runs in three stages, each over rows or columns of its own: rows (values, then rfft along the
    last axis), columns of the half spectrum (fft along axis 0, times mult, ifft) and rows (irfft, a check
    that those rows are finite and, given then, a row function like values, the next solve's row stage on
    them, which that solve skips: its values is None). Given a helper (the queue pair _helper yields), each stage
    of a 2D solve runs over two halves, the second on the helper; mult must then have the half spectrum's
    shape. Without one, each stage runs over the whole range.
    """
    mult = np.asarray(mult)
    spec = np.empty(grid._rfft_shape, dtype=np.complex128) if spec is None else spec
    out = np.empty(grid.shape) if out is None else out
    if helper is None:
        rows = cols = (...,)
    else:
        rows, cols = _halves(grid.n_per_axis), tuple((slice(None), c) for c in _halves(spec.shape[-1]))

    def inverse(r):
        np.fft.irfft(spec[r], n=grid.n_per_axis, axis=-1, out=out[r])
        _check_finite(out[r])
        if then is not None:
            np.fft.rfft(then(r), axis=-1, out=spec[r])

    if values is not None:
        rows_of = values if callable(values) else values.__getitem__
        _each(helper, rows, lambda r: np.fft.rfft(rows_of(r), axis=-1, out=spec[r]))
    # the Parseval terms go in out, free from the row stage's end until the inverse: one buffer of the half
    # spectrum's shape, which each column part fills in its columns and which is summed whole, and past it
    # the squared imaginary parts, as many whole spectrum rows at a time as the rest of out holds
    power = squares = None
    if gradient:
        power = _block(out, spec.shape)
        rows_free = (out.size - spec.size) // math.prod(spec.shape[1:])
        squares = _block(out, (min(len(spec), rows_free),) + spec.shape[1:], start=spec.size)
    _each(helper, cols, lambda c: _scale_columns(grid, spec, mult, power, squares, c))
    total = None if power is None else float(power.sum()) * grid.spacing**grid.dim / grid.size
    _each(helper, rows, inverse)
    return out, total


def _check_finite(values: np.ndarray) -> None:
    """NonFiniteError unless every entry of values is finite (a Field's values, or a solve's row range)."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("non-finite field values")


def _scale_columns(grid: TorusGrid, spec: np.ndarray, mult: np.ndarray, power, squares, cols) -> None:
    """The column stage over columns cols of the half spectrum, in place: fft, times mult (and, given power,
    the Parseval terms |k|^2-weighted into power's columns, their squared imaginary parts formed in those
    columns of squares, a few rows at a time), ifft."""
    part = spec[cols]
    if grid.dim == 2:
        np.fft.fft(part, axis=0, out=part)
    part *= mult[cols]
    if power is not None:
        terms, scratch = np.square(part.real, out=power[cols]), squares[cols]
        for start in range(0, len(part), len(scratch)):
            imag = part.imag[start:start + len(scratch)]
            terms[start:start + len(imag)] += np.square(imag, out=scratch[:len(imag)])
        terms *= grid._rfft_wk2[cols]
    if grid.dim == 2:
        np.fft.ifft(part, axis=0, out=part)


def _block(buf: np.ndarray, shape: tuple[int, ...], start: int = 0) -> np.ndarray:
    """math.prod(shape) float64 values of the contiguous array buf from value start on, as one contiguous array of
    that shape."""
    return buf.view(np.float64).reshape(-1)[start:start + math.prod(shape)].reshape(shape)


def _halves(n: int) -> tuple[slice, slice]:
    return slice(0, n // 2), slice(n // 2, n)


def _each(helper, parts, stage) -> None:
    """stage(part) for each of one or two parts, the second on the helper, whose thread takes (stage, part) from
    its first queue and puts None or what it raised on its second; returns when both are done, or raises."""
    if len(parts) == 1:
        return stage(parts[0])
    tasks, done = helper
    tasks.put((stage, parts[1]))
    try:
        stage(parts[0])
    finally:
        error = done.get()
    if error is not None:
        raise error


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one, else the machine's count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _splits(grid: TorusGrid) -> bool:
    """Whether a run on grid splits each solve across two threads: 2D grids of 176^2 points and up, given two cores.

    On a 2-vCPU host a split 2D sg step (two hand-offs unrecorded, three recorded; medians of 9-31 alternating
    runs of 100 steps) took 0.62-0.91x the unsplit time at n=176, and under 1x at each larger n measured, for
    both schemes, recorded or not; a recorded imex1 step read up to 1.00x at n=172 and 1.08x at n=160 and
    n=144, where the halves no longer earn back a hand-off's 5-9 us."""
    return grid.dim == 2 and grid.size >= 176**2 and _cores() >= 2


def _step_state() -> None:
    """Set this thread's numpy state for a step: warnings off, as psg's finiteness checks raise NonFiniteError, and
    1024-value ufunc buffers, as numpy's default 8192 per operand of an op on a column half take 3/4 field at n=256."""
    np.seterr(all="ignore")
    np.setbufsize(1024)


@contextlib.contextmanager
def _helper(grid: TorusGrid, split: bool) -> Iterator[tuple[queue.SimpleQueue, queue.SimpleQueue] | None]:
    """None where a run on grid keeps its solves on one thread (split=False, or not _splits(grid)); else the queue
    pair of a thread that runs, under _step_state, the second part of each stage _each hands it until the block ends."""
    if not (split and _splits(grid)):
        yield None
        return
    tasks, done = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        _step_state()
        for stage, part in iter(tasks.get, None):
            try:
                stage(part)
            except BaseException as exc:  # _each raises it on the calling thread
                done.put(exc)
            else:
                done.put(None)

    thread = threading.Thread(target=serve, daemon=True)  # a stream left open at exit must not block it
    thread.start()
    try:
        yield tasks, done
    finally:
        tasks.put(None)
        thread.join()


def laplacian(f: Field) -> Field:
    """Spectral Laplacian: coefficient at k scaled by -|k|^2."""
    return _field(f.grid, _apply_multiplier(f.grid, f.values, -f.grid._squared_wavenumbers())[0])


def first_derivative(f: Field, axis: int = 0) -> Field:
    """Spectral first derivative along one axis (multiplier i*k, Nyquist zeroed)."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    return _field(f.grid, _apply_multiplier(f.grid, f.values, f.grid._rfft_deriv[axis])[0])


def helmholtz_solve(rhs: Field, kappa: float, a: float, b: float) -> Field:
    """Invert a*I - b*kappa^2*Laplacian, diagonal in Fourier space.

    Both schemes reduce their implicit solve to this: the first-order
    scheme with a=1, b=tau and the two-step scheme with a=3/2, b=tau.
    Requires a > 0 (otherwise the operator kills constants) and b >= 0.
    """
    return _field(rhs.grid, _apply_multiplier(rhs.grid, rhs.values, _helmholtz_multiplier(rhs.grid, kappa, a, b))[0])


def _helmholtz_multiplier(grid: TorusGrid, kappa: float, a: float, b: float, out=None) -> np.ndarray:
    """1/(a + b*kappa^2*|k|^2) in the rfft layout (in out if given): the multiplier helmholtz_solve applies."""
    _check_positive("a", a)  # a = 0 is not invertible on constants
    if not 0.0 <= b < np.inf:
        raise ValueError(f"b must be finite and >= 0, got {b}")
    _check_kappa(kappa)
    # |k|^2 scaled in the multiplier's own buffer: a second half field would set a run's peak at its start
    mult = grid._squared_wavenumbers(out)
    with np.errstate(over="ignore", invalid="ignore"):  # where b*kappa^2*|k|^2 overflows, the mode gets 0
        mult *= b * kappa**2
        mult += a
        np.divide(1.0, mult, out=mult)
    mult.flat[0] = 1.0 / a  # k = 0: 1/(a + b*kappa^2*0) is exactly 1/a, but inf * 0 is NaN
    return mult


def integrate(f: Field) -> float:
    """Rectangle rule spacing^dim * sum(values); spectrally accurate on the torus."""
    return f.grid.spacing**f.grid.dim * float(f.values.sum())
