"""End-to-end CLI contract: flags, files, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psg
from psg import Field, ModelKind, ModelSpec, TorusGrid, energy, read_snapshot, write_snapshot
from psg.cli import main
from conftest import traced_peak

DATA = Path(__file__).parent / "data"


def read_series(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,energy,modified_energy,umin,umax,linf"
    return [line.split(",") for line in lines[1:]]


def run_args(out, tau="0.1", extra=()):
    return [
        "run", "--model", "sg", "--scheme", "imex1", "--dim", "1",
        "--kappa", "0.1", "--tau", tau, "--n", "256", "--tfinal", "42",
        "--init", "pi_sin", "--out", str(out), *extra,
    ]


class TestRunCommand:
    def test_reference_run(self, tmp_path):
        out = tmp_path / "r"
        assert main(run_args(out)) == 0
        rows = read_series(out / "series.csv")
        assert len(rows) == 420
        assert int(rows[0][0]) == 1 and int(rows[-1][0]) == 420
        assert float(rows[-1][1]) == pytest.approx(42.0, rel=1e-12)
        energies = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(energies) <= 1e-10 * (1 + np.abs(energies[:-1])))
        report = (out / "report.txt").read_text()
        assert "energy_violated: false" in report
        assert "exit_code: 0" in report

    def test_report_names_versions(self, tmp_path):
        # what produced the energies, which agree across hosts only to roundoff
        out = tmp_path / "v"
        assert main(run_args(out)) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert f"psg_version: {psg.__version__}" in lines
        assert f"numpy_version: {np.__version__}" in lines

    def test_energy_monitor_exit_code(self, tmp_path):
        assert main(run_args(tmp_path / "a", tau="2.1", extra=["--monitors", "energy"])) == 3
        assert main(run_args(tmp_path / "b", tau="2", extra=["--monitors", "energy"])) == 0
        # without enabling the monitor the violation only lands in the report
        assert main(run_args(tmp_path / "c", tau="2.1")) == 0
        assert "energy_violated: true" in (tmp_path / "c" / "report.txt").read_text()

    def test_max_principle_monitor_exit_code(self, tmp_path):
        # start above the bound: one step keeps linf well over pi
        grid = TorusGrid(1, 64)
        snap = tmp_path / "big.psg"
        write_snapshot(snap, Field.constant(grid, 4.0), 0.0, 0.5)
        code = main([
            "run", "--model", "sg", "--scheme", "imex1", "--dim", "1",
            "--kappa", "0.5", "--tau", "0.5", "--n", "64", "--steps", "1",
            "--init", str(snap), "--out", str(tmp_path / "m"), "--monitors", "maxp",
        ])
        assert code == 3

    def test_snapshots_and_energy_recomputation(self, tmp_path):
        out = tmp_path / "r"
        assert main(run_args(out, extra=["--snap-every", "100"])) == 0
        rows = {int(r[0]): r for r in read_series(out / "series.csv")}
        model = ModelSpec(ModelKind.SINE_GORDON, 0.1)
        for step in (100, 200, 300, 400):
            field, t, kappa = read_snapshot(out / f"snap_{step}.psg")
            assert kappa == 0.1
            assert t == pytest.approx(step * 0.1, rel=1e-12)
            recomputed = energy(model, field)
            stored = float(rows[step][2])
            assert abs(recomputed - stored) <= 1e-12 * (1 + abs(stored))

    def test_snapshot_init_equivalent_to_preset(self, tmp_path):
        grid = TorusGrid(1, 256)
        u0 = Field.from_function(grid, lambda x: np.pi * np.sin(x))
        snap = tmp_path / "init.psg"
        write_snapshot(snap, u0, 0.0, 0.1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"

        def args(init, out):
            return [
                "run", "--model", "sg", "--scheme", "imex1", "--dim", "1",
                "--kappa", "0.1", "--tau", "0.1", "--n", "256", "--steps", "50",
                "--init", init, "--out", str(out),
            ]

        assert main(args("pi_sin", out_a)) == 0
        assert main(args(str(snap), out_b)) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_deterministic_reruns_bitwise(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--snap-every", "200"]
        assert main(run_args(out_a, extra=args)) == 0
        assert main(run_args(out_b, extra=args)) == 0
        for name in ("series.csv", "report.txt", "snap_200.psg", "snap_400.psg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_snapshot_failure_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        # a snapshot that cannot be written stops the run at that step
        def disk_full(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(psg.io, "write_snapshot", disk_full)
        argv = _run_argv(length=("--steps", "5")) + ["--snap-every", "2", "--out", str(tmp_path / "s")]
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("runtime failure: ") and "disk full" in printed.err
        assert printed.out == ""

    def test_2d_default_final_time(self, tmp_path):
        out = tmp_path / "d2"
        code = main([
            "run", "--model", "ac", "--scheme", "bdf2", "--dim", "2",
            "--kappa", "0.2", "--tau", "0.1", "--n", "16",
            "--init", "sin_sin", "--out", str(out),
        ])
        assert code == 0
        rows = read_series(out / "series.csv")
        assert len(rows) == 60  # documented default tfinal = 6.0
        assert float(rows[-1][1]) == pytest.approx(6.0, rel=1e-12)

    def test_usage_errors(self, tmp_path):
        out = str(tmp_path / "x")
        base = ["run", "--model", "sg", "--scheme", "imex1", "--dim", "1",
                "--kappa", "0.1", "--tau", "0.1", "--n", "256", "--init", "pi_sin", "--out", out]
        assert main(base + ["--steps", "0"]) == 1
        assert main(base) == 1  # neither tfinal nor steps for 1D
        assert main(base + ["--tfinal", "42", "--steps", "10"]) == 1
        assert main(base + ["--tfinal", "42.05"]) == 1  # not commensurate
        assert main(run_args(out, extra=["--monitors", "bogus"])) == 1
        assert main(["run", "--bogus-flag"]) == 1

    def test_negative_snap_every_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(run_args(out, extra=["--snap-every", "-1"])) == 1
        assert capsys.readouterr().err == "error: snap_every must be >= 0, got -1\n"
        assert not out.exists()

    def test_unknown_init(self, tmp_path):
        args = run_args(tmp_path / "x")
        args[args.index("pi_sin")] = "no_such_init"
        assert main(args) == 1

    def test_preset_dimension_mismatch(self, tmp_path):
        args = run_args(tmp_path / "x")
        args[args.index("pi_sin")] = "pi_sin_sin"
        assert main(args) == 1

    def test_non_commensurate_tfinal_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "nc"
        argv = ["run", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--tau", "0.3",
                "--n", "16", "--tfinal", "1", "--init", "pi_sin", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: t_final = 1.0 is not an integer multiple of tau = 0.3\n"
        assert not out.exists()

    @pytest.mark.parametrize("length,err", [
        (("--tfinal", "1e300"), "t_final / tau must be <= 1000000000 steps, got 1e+300 / 0.1"),
        (("--tfinal", "100000000.1"), "t_final / tau must be <= 1000000000 steps, got 100000000.1 / 0.1"),
        (("--steps", "1000000001"), "n_steps must be <= 1000000000, got 1000000001"),
    ], ids=["tfinal-huge", "tfinal-one-over", "steps-one-over"])
    def test_run_length_over_cap_writes_nothing(self, length, err, tmp_path, capsys):
        # a mistyped run length fails at once instead of stepping for years
        out = tmp_path / "long"
        argv = ["run", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--tau", "0.1",
                "--n", "16", *length, "--init", "pi_sin", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_runtime_blowup_exit_code(self, tmp_path):
        # series.csv is written row by row: a blow-up (at step 4) keeps the rows of its finite steps
        def argv(steps, out):
            return ["run", "--model", "ac", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--tau", "1000",
                    "--n", "64", "--steps", steps, "--init", "pi_sin", "--out", str(out)]

        boom, three = tmp_path / "boom", tmp_path / "three"
        assert main(argv("50", boom)) == 2
        assert main(argv("3", three)) == 0
        assert (boom / "series.csv").read_bytes() == (three / "series.csv").read_bytes()
        assert len(read_series(boom / "series.csv")) == 3
        assert not (boom / "report.txt").exists()

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # Records are written and folded as they come. Holding them, 1800 more steps added 1.24 MB
        # here; the slack is for tracemalloc's jitter between runs (up to 13 KB measured).
        def peak(steps):
            return traced_peak(lambda: main([*_run_argv(length=("--steps", str(steps))),
                                             "--out", str(tmp_path / str(steps))]))

        peak(5)  # warm-up: imports, the parser, grid tables
        assert peak(2000) - peak(200) < 32 * 1024

    def test_overflowing_energy_is_runtime_failure(self, tmp_path, capsys):
        # kappa^2 is finite, kappa^2/2 times the gradient term is not: the run wrote energy = inf rows and
        # exited 0, and its energy monitor stayed clean, because inf - inf is NaN
        out = tmp_path / "ovf"
        argv = _run_argv(kappa="1.3e154", tau="1e-320", length=("--steps", "2"))
        assert main([*argv, "--out", str(out), "--monitors", "energy"]) == 2
        assert capsys.readouterr().err == "runtime failure: energy is not finite at step 1\n"
        assert read_series(out / "series.csv") == []
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("tau", ["1e7", "1e10"])
    def test_overflowing_multiplier_is_quiet(self, tau, tmp_path):
        # tau*kappa^2*|k|^2 overflows: numpy warned (an error under pytest), and at tau = 1e10 inf * 0
        # made the mean mode NaN, a false blow-up (exit 2); the overflowing modes are damped to 0
        out = tmp_path / "hk"
        assert main([*_run_argv(kappa="1e150", tau=tau, length=("--steps", "1")), "--out", str(out)]) == 0
        assert len(read_series(out / "series.csv")) == 1


class TestSweepCommand:
    def sweep_args(self, out, tau_list):
        return [
            "sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1",
            "--kappa", "0.1", "--n", "256", "--tfinal", "42",
            "--init", "pi_sin", "--tau-list", tau_list, "--out", str(out),
        ]

    def test_threshold_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert main(self.sweep_args(out, "0.1,2,2.1")) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,energy_violated,first_violation_step,maxp_violated,final_energy"
        assert len(lines) == 4
        flags = [line.split(",")[1] for line in lines[1:]]
        assert flags == ["false", "false", "true"]

    def test_single_tau_matches_run_report(self, tmp_path):
        out_sweep, out_run = tmp_path / "s", tmp_path / "r"
        assert main(self.sweep_args(out_sweep, "0.1")) == 0
        assert main(run_args(out_run)) == 0
        sweep_row = (out_sweep / "sweep.csv").read_text().splitlines()[1].split(",")
        series_rows = read_series(out_run / "series.csv")
        assert sweep_row[1] == "false"
        assert float(sweep_row[4]) == float(series_rows[-1][2])

    def test_2d_default_tfinal_isolates_bad_tau(self, tmp_path):
        # T defaults to 6 in 2D; 0.7 does not divide it and is recorded, 0.5 runs.
        out = tmp_path / "sw2"
        code = main([
            "sweep", "--model", "sg", "--scheme", "imex1", "--dim", "2", "--kappa", "0.2",
            "--n", "16", "--init", "pi_sin_sin", "--tau-list", "0.7,0.5", "--out", str(out),
        ])
        assert code == 2
        bad, good = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert float(bad[0]) == 0.7 and bad[1:] == ["error", "", "error", ""]
        assert float(good[0]) == 0.5 and good[1:4] == ["false", "", "false"]
        assert np.isfinite(float(good[4]))

    def test_bad_tau_list(self, tmp_path):
        assert main(self.sweep_args(tmp_path / "x", "0.1,-2")) == 1
        assert main(self.sweep_args(tmp_path / "x", "abc")) == 1
        assert main(self.sweep_args(tmp_path / "x", "")) == 1


class TestSteadyCommand:
    def test_periodic_profile(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["steady", "--case", "periodic", "--kappa", "0.5", "--C", "0", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "classification: periodic" in printed
        (period,) = [line.split(": ", 1)[1] for line in printed.splitlines() if line.startswith("period:")]
        assert repr(float(period)) == period  # a plain float repr, not np.float64(...)
        lines = (out / "profile.csv").read_text().splitlines()[1:]
        u = np.array([float(line.split(",")[1]) for line in lines])
        assert np.max(np.abs(u)) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_small_kappa_periodic_profile(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["steady", "--case", "periodic", "--kappa", "0.05", "--C", "0.5", "--out", str(out)]) == 0
        assert "classification: periodic" in capsys.readouterr().out
        assert len((out / "profile.csv").read_text().splitlines()) == 1 + 2 * 257 - 1

    @pytest.mark.parametrize("kappa", ["1e-200", "1e-160"])
    def test_narrow_orbit_residual_finite(self, kappa, tmp_path, capsys):
        # (grid spacing / orbit spacing)^2 alone overflows; with kappa folded in it stays O(1)
        assert main(["steady", "--case", "periodic", "--kappa", kappa, "--C", "0", "--out", str(tmp_path / "p")]) == 0
        (res,) = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("residual:")]
        assert float(res) <= 1e-10  # nan fails too

    def test_negative_periodic_profile(self, tmp_path, capsys):
        profiles = {}
        for sign in "+-":
            out = tmp_path / sign
            assert main(["steady", "--case", "periodic", "--kappa", "0.5", "--C", "0.3", "--sign", sign,
                         "--out", str(out)]) == 0
            rows = [line.split(",") for line in (out / "profile.csv").read_text().splitlines()[1:]]
            profiles[sign] = np.array(rows, dtype=float)
        printed_plus, printed_minus = capsys.readouterr().out.split("classification:")[1:]
        assert printed_plus == printed_minus  # the same orbit, period and residual
        assert np.array_equal(profiles["-"][:, 0], profiles["+"][:, 0])
        assert np.array_equal(profiles["-"][:, 1], -profiles["+"][:, 1])

    def test_kink_profile(self, tmp_path, capsys):
        out = tmp_path / "k"
        assert main(["steady", "--case", "kink", "--kappa", "0.5", "--c", "0", "--sign", "+", "--out", str(out)]) == 0
        lines = (out / "profile.csv").read_text().splitlines()[1:]
        u = np.array([float(line.split(",")[1]) for line in lines])
        assert np.all(np.diff(u) > 0)
        # tanh(2*pi) leaves a ~7.5e-3 gap to the +-pi limits at the window edge
        assert abs(u[-1] - np.pi) < 1e-2 and abs(u[0] + np.pi) < 1e-2
        assert "classification: kink" in capsys.readouterr().out

    def test_zero_and_constant(self, tmp_path, capsys):
        out = tmp_path / "z"
        assert main(["steady", "--case", "zero", "--out", str(out)]) == 0
        u = [float(line.split(",")[1]) for line in (out / "profile.csv").read_text().splitlines()[1:]]
        assert all(v == 0.0 for v in u)
        out2 = tmp_path / "c"
        assert main(["steady", "--case", "constant", "--sign", "-", "--out", str(out2)]) == 0
        u2 = [float(line.split(",")[1]) for line in (out2 / "profile.csv").read_text().splitlines()[1:]]
        assert all(v == -np.pi for v in u2)
        printed = capsys.readouterr().out
        assert "classification: zero" in printed
        assert "classification: constant_pi" in printed

    @pytest.mark.parametrize("argv,amplitude", [
        (["--case", "zero"], "0.0"),
        (["--case", "constant"], "3.141592653589793"),
        (["--case", "kink"], "3.141592653589793"),
        (["--case", "periodic", "--kappa", "0.5", "--C", "0"], "1.5707963267948966"),
    ], ids=["zero", "constant", "kink", "periodic"])
    def test_amplitude_line(self, argv, amplitude, tmp_path, capsys):
        assert main(["steady", *argv, "--out", str(tmp_path / "s")]) == 0
        assert f"\namplitude: {amplitude}\n" in capsys.readouterr().out

    def test_out_of_regime_exit(self, tmp_path, capsys):
        code = main(["steady", "--case", "periodic", "--kappa", "0.5", "--C", "1.5", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_near_separatrix_exit(self, tmp_path, capsys):
        # Within SEPARATRIX_TOL of 1, C is the separatrix: the message names the band it enforces,
        # where "-1 < C < 1" contradicted this C.
        out = tmp_path / "x"
        assert main(["steady", "--case", "periodic", "--C", "0.9999999999999", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: C = 0.9999999999999 is not in the periodic regime "
                                           "-1 + 1e-12 < C < 1 - 1e-12 (within 1e-12 of -1 or 1, "
                                           "C is the zero or separatrix case)\n")
        assert not out.exists()


class TestPotentialTable:
    def test_emission(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["potential-table", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1026


def test_subcommand_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: psg run ")


def test_module_entry_point():
    # The child interpreter finds psg where this one did, also without an install.
    src = str(Path(psg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "psg", "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "steady" in result.stdout


# tests/data/series_<name>.csv were written by the steppers built on Field
# operators and the first-derivative energy. Reworks of the step or the
# energy must keep the iterates' digits and the energies to roundoff.
# series_ac2d_bdf2.csv was rewritten when the Allen-Cahn cube became two
# multiplies, whose bits do not depend on numpy's CPU dispatch (np.power's
# did): its umin/umax/linf digits moved by at most 1.5e-15.
GOLDEN_SERIES = {
    "sg1d_imex1": ["--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--tau", "0.1",
                   "--n", "64", "--init", "pi_sin"],
    "sg2d_bdf2": ["--model", "sg", "--scheme", "bdf2", "--dim", "2", "--kappa", "0.2", "--tau", "0.05",
                  "--n", "32", "--init", "pi_sin_sin"],
    "ac2d_bdf2": ["--model", "ac", "--scheme", "bdf2", "--dim", "2", "--kappa", "0.2", "--tau", "0.05",
                  "--n", "32", "--init", "sin_sin"],
}


@pytest.mark.parametrize("name", list(GOLDEN_SERIES))
def test_golden_series(name, tmp_path):
    out = tmp_path / name
    assert main(["run", *GOLDEN_SERIES[name], "--steps", "40", "--out", str(out)]) == 0
    rows = read_series(out / "series.csv")
    golden = read_series(DATA / f"series_{name}.csv")
    assert len(rows) == len(golden) == 40
    for row, ref in zip(rows, golden):
        assert row[:2] + row[4:] == ref[:2] + ref[4:]  # step, t, umin, umax, linf: same digits
        for col in (2, 3):  # energy, modified_energy
            assert float(row[col]) == pytest.approx(float(ref[col]), rel=1e-12, abs=0.0)


def _run_argv(kappa="0.1", tau="0.1", length=("--steps", "5")):
    return ["run", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--n", "16", "--init", "pi_sin",
            "--kappa", kappa, "--tau", tau, *length]


NON_FINITE_INPUTS = {
    "run-tfinal-inf": _run_argv(length=("--tfinal", "inf")),
    "run-tfinal-over-tau-overflows": _run_argv(tau="1e-300", length=("--tfinal", "1e300")),
    "run-kappa-nan": _run_argv(kappa="nan"),
    "run-kappa-inf": _run_argv(kappa="inf"),
    "run-tau-nan": _run_argv(tau="nan"),
    "run-tau-inf": _run_argv(tau="inf"),
    "sweep-tau-list-nan": ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1",
                           "--n", "16", "--tfinal", "1", "--init", "pi_sin", "--tau-list", "0.1,nan"],
    "steady-kink-kappa-nan": ["steady", "--case", "kink", "--kappa", "nan"],
    "steady-kink-c-nan": ["steady", "--case", "kink", "--c", "nan"],
    "steady-periodic-kappa-nan": ["steady", "--case", "periodic", "--kappa", "nan"],
    "steady-periodic-C-nan": ["steady", "--case", "periodic", "--C", "nan"],
    "steady-zero-kappa-inf": ["steady", "--case", "zero", "--kappa", "inf"],
}


@pytest.mark.parametrize("argv", list(NON_FINITE_INPUTS.values()), ids=list(NON_FINITE_INPUTS))
def test_non_finite_input_rejected(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
    assert printed.out == ""  # nothing printed or written before the input is rejected
    assert not (tmp_path / "x" / "profile.csv").exists()


HUGE_KAPPA = {
    "run": _run_argv(kappa="1e200"),
    "sweep": ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "1e200",
              "--n", "16", "--tfinal", "1", "--init", "pi_sin", "--tau-list", "0.1,0.5"],
    **{f"steady-{case}": ["steady", "--case", case, "--kappa", "1e200"]
       for case in ("zero", "constant", "kink", "periodic")},
}


@pytest.mark.parametrize("argv", list(HUGE_KAPPA.values()), ids=list(HUGE_KAPPA))
def test_kappa_with_overflowing_square_rejected(argv, tmp_path, capsys):
    # 1e200 is finite but its square is not: psg run made --out and then died in an OverflowError
    # traceback, psg sweep failed every tau (exit 2) and psg steady raised the traceback too.
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith("error: kappa must be finite and > 0") and printed.err.count("\n") == 1
    assert printed.out == ""
    assert not (tmp_path / "x").exists()


SUBNORMAL_KAPPA = {
    "run": _run_argv(kappa="1e-310"),
    "sweep": ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "1e-310",
              "--n", "16", "--tfinal", "1", "--init", "pi_sin", "--tau-list", "0.1,0.5"],
    "steady-kink": ["steady", "--case", "kink", "--kappa", "1e-310"],
    "steady-periodic": ["steady", "--case", "periodic", "--C", "0.5", "--kappa", "1e-320"],
    "steady-zero": ["steady", "--case", "zero", "--kappa", "5e-324"],
}


@pytest.mark.parametrize("argv", list(SUBNORMAL_KAPPA.values()), ids=list(SUBNORMAL_KAPPA))
def test_subnormal_kappa_rejected(argv, tmp_path, capsys):
    # psg steady's kink overflowed x/kappa with a numpy warning, and its periodic orbit at 1e-320 had
    # subnormal x samples, quantized to a few digits, and printed a residual of 0.67 for the exact orbit
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    printed = capsys.readouterr()
    kappa = float(argv[argv.index("--kappa") + 1])
    assert printed.err == ("error: kappa must be finite and > 0 with kappa^2 finite and "
                           f"kappa >= 2.2250738585072014e-308, got {kappa!r}\n")
    assert printed.out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_of_memory_exits_2(command, tmp_path, capsys, monkeypatch):
    # A grid too large for memory (say --dim 2 --n 10000000) failed in numpy's allocator
    # with a traceback and exit 1; it is a runtime failure, and nothing is written.
    def no_memory(config):
        raise MemoryError("Unable to allocate 728. TiB for an array")
    monkeypatch.setattr(psg.cli, "initial_field", no_memory)
    argv = ["--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--init", "pi_sin", "--steps", "1", "--out", str(tmp_path / "x")]
    argv += ["--tau", "0.1"] if command == "run" else ["--tau-list", "0.1"]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == "runtime failure: Unable to allocate 728. TiB for an array\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("tfinal", ["inf", "nan", "-1"])
def test_bad_tfinal_named(command, tfinal, tmp_path, capsys):
    # The run length is checked per tau, after --tfinal itself: the error must name --tfinal.
    argv = ["--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--init", "pi_sin", "--tfinal", tfinal, "--out", str(tmp_path / "x")]
    argv += ["--tau", "0.1"] if command == "run" else ["--tau-list", "0.1"]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --tfinal must be finite and > 0, got {float(tfinal)!r}\n"


@pytest.mark.parametrize("length", [("--steps", "2"), ("--tfinal", "1")], ids=["steps", "tfinal"])
@pytest.mark.parametrize("tau_list", ["inf", "nan", "0.1,inf", "nan,0.1"])
def test_non_finite_tau_list_named(tau_list, length, tmp_path, capsys):
    # Whatever its position, and whether the run length is a step count or a final time,
    # a non-finite entry is reported as a --tau-list error, not via the base config's tau.
    argv = ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--init", "pi_sin", *length, "--tau-list", tau_list, "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: --tau-list entries must all be finite and > 0, got {tau_list!r}\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_tfinal_and_steps_exclusive(command, tmp_path, capsys):
    argv = ["--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--init", "pi_sin", "--tfinal", "0.2", "--steps", "2", "--out", str(tmp_path / "x")]
    argv += ["--tau", "0.1"] if command == "run" else ["--tau-list", "0.1"]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tfinal" in err and "--steps" in err
    assert not (tmp_path / "x").exists()


def _write_malformed_snapshot(path):
    path.write_bytes(b"PSG1" + b"\x00" * 12)
    return str(path)


BAD_SWEEP_INITS = {
    "missing-file": lambda tmp: str(tmp / "no_such.psg"),
    "2d-preset-in-1d": lambda tmp: "pi_sin_sin",
    "malformed-snapshot": lambda tmp: _write_malformed_snapshot(tmp / "bad.psg"),
}


@pytest.mark.parametrize("make_init", list(BAD_SWEEP_INITS.values()), ids=list(BAD_SWEEP_INITS))
def test_sweep_bad_init_is_input_error(make_init, tmp_path, capsys):
    # As for psg run: exit 1 with one error line, before any tau runs or anything is written.
    out = tmp_path / "sw"
    argv = ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--tfinal", "1", "--init", make_init(tmp_path), "--tau-list", "0.1,0.5,1", "--out", str(out)]
    assert main(argv) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
    assert printed.out == ""
    assert not out.exists()


def test_sweep_unusable_out_fails_before_sweep(tmp_path, monkeypatch, capsys):
    # --out is made after the initial field and before the sweep: one that cannot be made fails before any tau runs.
    def no_sweep(*args, **kwargs):
        raise AssertionError("stability_sweep ran")
    monkeypatch.setattr(psg.cli, "stability_sweep", no_sweep)
    (tmp_path / "afile").write_text("")
    argv = ["sweep", "--model", "sg", "--scheme", "imex1", "--dim", "1", "--kappa", "0.1", "--n", "16",
            "--tfinal", "1", "--init", "pi_sin", "--tau-list", "0.1,0.5", "--out", str(tmp_path / "afile" / "sub")]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("runtime failure: ") and "Not a directory" in printed.err
    assert printed.out == ""
