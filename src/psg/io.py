"""File emission: snapshots, CSV series, sweep summaries, heatmaps, tables.

All numeric CSV output uses 17 significant digits with '.' as the decimal
separator, which round-trips 64-bit reals exactly. Snapshot files are
fixed little-endian regardless of host. None of the data files contain
timestamps, so identical configs rerun to bitwise-identical outputs.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import _DIMS, Field, TorusGrid, _real, _scalar
from .models import ModelKind, potential_values
from .schemes import StepRecord

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotFormatError",
    "write_snapshot",
    "read_snapshot",
    "write_heatmap",
    "SERIES_HEADER",
    "series_row",
    "write_series_csv",
    "write_sweep_csv",
    "write_profile_csv",
    "emit_potential_table",
]

SNAPSHOT_MAGIC = b"PSG1"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(ValueError):
    """Snapshot file is malformed; the message names the bad offset."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Snapshot format: magic "PSG1" | version u16 | dim u16 | n u32 per axis |
# t f64 | kappa f64 | payload row-major f64, all little-endian.
# ---------------------------------------------------------------------------

def write_snapshot(path, field: Field, t: float, kappa: float) -> None:
    t, kappa = _scalar(t, "t"), _scalar(kappa, "kappa")
    for name, value in (("t", t), ("kappa", kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    grid = field.grid
    header = SNAPSHOT_MAGIC + struct.pack("<HH", SNAPSHOT_VERSION, grid.dim)
    header += struct.pack(f"<{grid.dim}I", *grid.shape)
    header += struct.pack("<dd", t, kappa)
    with open(path, "wb") as f:
        f.write(header)
        f.write(memoryview(np.ascontiguousarray(field.values, dtype="<f8")))  # the field's own buffer, no copy


def read_snapshot(path) -> tuple[Field, float, float]:
    raw = Path(path).read_bytes()

    def need(count: int, offset: int, what: str) -> None:
        if len(raw) < offset + count:
            raise SnapshotFormatError(
                f"truncated {what} at offset {offset}: need {count} bytes, have {len(raw) - offset}"
            )

    need(4, 0, "magic")
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {raw[:4]!r} at offset 0 (expected {SNAPSHOT_MAGIC!r})")
    need(4, 4, "version/dim")
    version, dim = struct.unpack_from("<HH", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported version {version} at offset 4")
    if dim not in _DIMS:
        raise SnapshotFormatError(f"unsupported dimension {dim} at offset 6")
    offset = 8
    need(4 * dim, offset, "axis sizes")
    sizes = struct.unpack_from(f"<{dim}I", raw, offset)
    offset += 4 * dim
    if len(set(sizes)) != 1:
        raise SnapshotFormatError(f"anisotropic axis sizes {sizes} at offset 8 are unsupported")
    need(16, offset, "t/kappa header")
    t, kappa = struct.unpack_from("<dd", raw, offset)
    if not (math.isfinite(t) and math.isfinite(kappa)):  # write_snapshot's rule
        raise SnapshotFormatError(f"non-finite t/kappa header ({t}, {kappa}) at offset {offset}")
    offset += 16
    count = math.prod(sizes)  # a Python int: np.prod wraps in int64
    need(8 * count, offset, "payload")
    if len(raw) != offset + 8 * count:
        raise SnapshotFormatError(
            f"trailing bytes after payload at offset {offset + 8 * count}: file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(sizes)
    try:
        field = Field(TorusGrid(dim, sizes[0]), values.astype(np.float64))
    except ValueError as exc:
        raise SnapshotFormatError(f"invalid payload starting at offset {offset}: {exc}") from exc
    return field, t, kappa


# ---------------------------------------------------------------------------
# Heatmaps: 8-bit binary PGM ("P5"), linear map [-pi, pi] -> [0, 255].
# ---------------------------------------------------------------------------

def write_heatmap(field: Field, path) -> None:
    """Render a 2D field as a grayscale PGM; row 0 is y = -pi.

    Values map linearly from [-pi, pi] to [0, 255] with out-of-range input
    clamped; ties round half away from zero (so u = 0 -> 128).
    """
    if field.grid.dim != 2:
        raise ValueError("heatmaps require a 2D field")
    n = field.grid.n_per_axis
    # divide before scaling so u = 0 hits the midpoint 127.5 exactly
    scaled = (field.values + np.pi) / (2.0 * np.pi) * 255.0
    pixels = np.floor(np.clip(scaled, 0.0, 255.0) + 0.5).astype(np.uint8)
    # values is indexed [ix, iy]; image rows run over y.
    image = pixels.T
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

SERIES_HEADER = "step,t,energy,modified_energy,umin,umax,linf\n"


def series_row(r: StepRecord) -> str:
    """One series.csv line, newline included: a record's columns in SERIES_HEADER's order."""
    return (f"{r.step_index},{_fmt(r.t)},{_fmt(r.energy)},{_fmt(r.modified_energy)},"
            f"{_fmt(r.u_min)},{_fmt(r.u_max)},{_fmt(r.linf)}\n")


def write_series_csv(path, records: Iterable[StepRecord]) -> None:
    Path(path).write_text(SERIES_HEADER + "".join(map(series_row, records)), encoding="ascii")


def write_sweep_csv(path, sweep) -> None:
    """One row per tau: tau, energy_violated, first_violation_step, maxp_violated, final_energy."""
    lines = ["tau,energy_violated,first_violation_step,maxp_violated,final_energy"]
    for tau, reports, final_energy, error in zip(
        sweep.tau_values, sweep.reports, sweep.final_energies, sweep.errors
    ):
        if error is not None:
            lines.append(f"{_fmt(tau)},error,,error,")
            continue
        first = "" if reports.energy.first_violation_step is None else str(reports.energy.first_violation_step)
        lines.append(
            f"{_fmt(tau)},{str(reports.energy.violated).lower()},{first},"
            f"{str(reports.maxp.violated).lower()},{_fmt(final_energy)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_profile_csv(path, x: np.ndarray, u: np.ndarray) -> None:
    x, u = _real(x, "x", ndim=1), _real(u, "u", ndim=1)
    if x.shape != u.shape:
        raise ValueError(f"x and u must have equal lengths, got {len(x)} and {len(u)}")
    lines = ["x,u"]
    lines += [f"{_fmt(xi)},{_fmt(ui)}" for xi, ui in zip(x, u)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def emit_potential_table(path) -> None:
    """CSV (u, F_sg, F_ac) on 1025 uniform samples of [-2*pi, 2*pi]."""
    u = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 1025)
    f_sg = potential_values(ModelKind.SINE_GORDON, u)
    f_ac = potential_values(ModelKind.ALLEN_CAHN, u)
    lines = ["u,F_sg,F_ac"]
    lines += [f"{_fmt(a)},{_fmt(b)},{_fmt(c)}" for a, b, c in zip(u, f_sg, f_ac)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
