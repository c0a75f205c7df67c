"""File formats: snapshots, heatmaps, CSV emission."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from psg import (
    Field,
    MonitorReport,
    MonitorReports,
    SnapshotFormatError,
    StepRecord,
    SweepResult,
    TorusGrid,
    emit_potential_table,
    read_snapshot,
    write_heatmap,
    write_profile_csv,
    write_series_csv,
    write_snapshot,
    write_sweep_csv,
)
from psg.cli import main
from conftest import random_smooth_field


class TestSnapshots:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_roundtrip_bitwise(self, tmp_path, rng, dim, n):
        field = random_smooth_field(TorusGrid(dim, n), rng)
        path = tmp_path / "snap.psg"
        write_snapshot(path, field, t=1.25, kappa=0.3)
        loaded, t, kappa = read_snapshot(path)
        assert np.array_equal(loaded.values, field.values)
        assert loaded.grid == field.grid
        assert t == 1.25 and kappa == 0.3
        # writing the loaded field reproduces the file byte for byte
        path2 = tmp_path / "snap2.psg"
        write_snapshot(path2, loaded, t, kappa)
        assert path.read_bytes() == path2.read_bytes()

    def test_write_copies_no_field(self, tmp_path):
        # The header and then the field's own buffer go to the file; the payload is
        # not copied to bytes (one copy would be 1 field size, header + payload 2).
        grid = TorusGrid(2, 256)
        field = Field.from_function(grid, lambda x, y: np.sin(x) * np.cos(y))
        path = tmp_path / "snap.psg"
        write_snapshot(path, field, t=0.5, kappa=0.2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_snapshot(path, field, t=0.5, kappa=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.5 * field.values.nbytes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.psg"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="offset 0"):
            read_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.psg"
        path.write_bytes(b"PSG1" + struct.pack("<HH", 9, 1) + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="version 9"):
            read_snapshot(path)

    def test_unsupported_dimension(self, tmp_path):
        path = tmp_path / "bad.psg"
        path.write_bytes(b"PSG1" + struct.pack("<HH", 1, 3) + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="dimension 3 at offset 6"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, rng):
        field = random_smooth_field(TorusGrid(1, 64), rng)
        path = tmp_path / "snap.psg"
        write_snapshot(path, field, 0.0, 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SnapshotFormatError, match="truncated payload"):
            read_snapshot(path)

    @pytest.mark.parametrize("n", [3037000500, 4294967295])  # the smallest and largest n whose n^2 wraps in int64
    def test_huge_axis_size_is_truncated_payload(self, n, tmp_path, capsys):
        # The payload size n^2 wrapped negative, and a header without payload was reported as
        # "trailing bytes after payload at offset -68719476696: file has 32"
        path = tmp_path / "huge.psg"
        path.write_bytes(b"PSG1" + struct.pack("<HHII", 1, 2, n, n) + struct.pack("<dd", 0.0, 1.0))
        message = f"truncated payload at offset 32: need {8 * n * n} bytes, have 0"
        with pytest.raises(SnapshotFormatError, match=f"^{message}$"):
            read_snapshot(path)
        argv = ["run", "--model", "sg", "--scheme", "imex1", "--dim", "2", "--kappa", "0.1", "--tau", "0.1",
                "--n", "16", "--steps", "1", "--init", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_trailing_bytes(self, tmp_path, rng):
        field = random_smooth_field(TorusGrid(1, 64), rng)
        path = tmp_path / "snap.psg"
        write_snapshot(path, field, 0.0, 1.0)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_snapshot(path)

    def test_non_finite_payload(self, tmp_path):
        grid = TorusGrid(1, 4)
        header = b"PSG1" + struct.pack("<HH", 1, 1) + struct.pack("<I", 4) + struct.pack("<dd", 0.0, 1.0)
        payload = struct.pack("<4d", 1.0, np.nan, 0.0, 0.0)
        path = tmp_path / "bad.psg"
        path.write_bytes(header + payload)
        with pytest.raises(SnapshotFormatError, match="payload"):
            read_snapshot(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corruption_raises_only_format_error(self, tmp_path, data):
        # Any truncation and up to 4 bit flips of a valid file: read_snapshot returns or
        # raises SnapshotFormatError, never another exception.
        field = Field.from_function(TorusGrid(2, 8), lambda x, y: np.sin(x) * np.cos(y))
        # Every write goes to a new file: on ext4 truncating a non-empty one cost ~24 ms, a new one 0.03 ms.
        path = tmp_path / "snap.psg"
        path.unlink(missing_ok=True)
        write_snapshot(path, field, t=0.5, kappa=0.2)
        raw = bytearray(path.read_bytes())
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=4), label="flips"):
            raw[bit // 8] ^= 1 << (bit % 8)
        length = data.draw(st.integers(0, len(raw)), label="length")
        path.unlink()
        path.write_bytes(bytes(raw[:length]))
        try:
            read_snapshot(path)
        except SnapshotFormatError:
            pass


class TestHeatmap:
    def read_pgm(self, path, n):
        raw = path.read_bytes()
        header = f"P5\n{n} {n}\n255\n".encode()
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
        return pixels.reshape(n, n)

    def test_midpoint_rounds_half_away_from_zero(self, tmp_path):
        grid = TorusGrid(2, 8)
        path = tmp_path / "zero.pgm"
        write_heatmap(Field.zeros(grid), path)
        assert np.all(self.read_pgm(path, 8) == 128)

    def test_extremes_and_clamping(self, tmp_path):
        grid = TorusGrid(2, 8)
        for value, pixel in [(np.pi, 255), (-np.pi, 0), (10.0, 255), (-10.0, 0)]:
            path = tmp_path / "x.pgm"
            write_heatmap(Field.constant(grid, value), path)
            assert np.all(self.read_pgm(path, 8) == pixel)

    def test_quadrant_pattern_matches_formula(self, tmp_path):
        n = 16
        grid = TorusGrid(2, n)
        field = Field.from_function(grid, lambda x, y: np.pi * np.sin(x) * np.sin(y))
        path = tmp_path / "q.pgm"
        write_heatmap(field, path)
        image = self.read_pgm(path, n)
        # row = y index, column = x index; same operation order as the writer
        expected = np.floor(np.clip((field.values + np.pi) / (2 * np.pi) * 255, 0, 255) + 0.5).T
        assert np.array_equal(image, expected.astype(np.uint8))
        # peak at x = y = -pi/2 (indices n//4) maps to 255, mixed signs to 0
        assert image[n // 4, n // 4] == 255
        assert image[n // 4, 3 * n // 4] == 0

    def test_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_heatmap(Field.zeros(TorusGrid(1, 8)), tmp_path / "x.pgm")


class TestCsv:
    def test_series_roundtrip_17_digits(self, tmp_path):
        records = [
            StepRecord(1, 0.1, -1.2345678901234567, 0.30000000000000004, -3.1, 3.0999999999999996),
            StepRecord(2, 0.2, np.pi, -2.718281828459045, -1e-17, 1e300),
        ]
        path = tmp_path / "series.csv"
        write_series_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,energy,modified_energy,umin,umax,linf"
        assert len(lines) == 3
        for rec, line in zip(records, lines[1:]):
            parts = line.split(",")
            assert int(parts[0]) == rec.step_index
            assert float(parts[1]) == rec.t
            assert float(parts[2]) == rec.energy
            assert float(parts[3]) == rec.modified_energy
            assert float(parts[4]) == rec.u_min
            assert float(parts[5]) == rec.u_max
            assert float(parts[6]) == rec.linf

    def test_sweep_csv(self, tmp_path):
        clean = MonitorReport(None, 0.0)
        fired = MonitorReport(5, 0.01)
        sweep = SweepResult(
            tau_values=(0.1, 2.1, 0.33),
            reports=(MonitorReports(energy=clean, modified_energy=clean, maxp=clean),
                     MonitorReports(energy=fired, modified_energy=clean, maxp=clean), None),
            final_energies=(-4.0, -3.5, float("nan")),
            errors=(None, None, "ValueError: boom"),
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,energy_violated,first_violation_step,maxp_violated,final_energy"
        assert lines[1].startswith("0.1") and ",false,," in lines[1]
        assert ",true,5,false," in lines[2]
        assert lines[3].endswith(",error,,error,")

    def test_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, np.array([0.0, 0.5]), np.array([1.0, -1.0]))
        assert path.read_text().splitlines() == ["x,u", "0,1", "0.5,-1"]

    def test_potential_table(self, tmp_path):
        path = tmp_path / "potentials.csv"
        emit_potential_table(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "u,F_sg,F_ac"
        assert len(lines) == 1026  # header + 1025 samples
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        u, f_sg, f_ac = rows[:, 0], rows[:, 1], rows[:, 2]
        assert u[0] == pytest.approx(-2 * np.pi) and u[-1] == pytest.approx(2 * np.pi)
        mid = 512
        assert u[mid] == 0.0 and f_sg[mid] == 1.0 and f_ac[mid] == 0.25
        at_pi = 768
        assert u[at_pi] == pytest.approx(np.pi, abs=1e-14)
        assert f_sg[at_pi] == pytest.approx(-1.0, abs=1e-14)
        assert f_ac[at_pi] == pytest.approx((np.pi**2 - 1) ** 2 / 4, rel=1e-14)
        assert f_sg.min() == pytest.approx(-1.0, abs=1e-14)
        assert u[np.argmin(f_sg)] == pytest.approx(-np.pi, abs=1e-14) or u[np.argmin(f_sg)] == pytest.approx(np.pi, abs=1e-14)
