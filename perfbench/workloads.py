"""The four benchmark workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop driven from the harness process: a pass
calls psg's public API or CLI, waits for it, and the next pass starts
only after the previous one has been checked. psg functions are looked
up on their module at call time (psg.cli.main, psg.diagnostics.X, ...),
so the tracer's wrappers see the harness's own calls.

Checks (behind `failed` and error_rate), one verdict per operation,
where an operation is one run, sweep member, convergence fit or
steady-state construction:
- no exception and the expected CLI exit code;
- values against golden.json (recorded from the seed commit, for the
  seed-independent outputs) or against the independent oracle (for the
  seeded ones), within REL_TOL relative;
- monitor verdicts equal to the oracle's wherever the oracle's margin
  exceeds VERDICT_MARGIN, so a roundoff-level excess cannot flip them;
- the paper's guarantees as invariants: energy decay for imex1 at
  tau <= 2, modified-energy decay for bdf2 at tau <= 1/2,
  ||u||_inf <= pi for imex1 at tau <= 1, and fitted orders 1 +- 0.15
  (imex1) and 2 +- 0.2 (bdf2).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import oracle

import psg
import psg.cli

HERE = Path(__file__).resolve().parent

# Roundoff tolerance for reproduced values: far above the ~1e-14 by which
# a Parseval energy or a batched transform differs from psg's own
# derivative energy, far below any change of scheme or step.
REL_TOL = 1e-9
SLOPE_TOL = 1e-6
VERDICT_MARGIN = 1e-12
ORDER_BANDS = {"imex1": (1.0, 0.15), "bdf2": (2.0, 0.2)}


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _attempt(fn):
    """Run one operation; an exception becomes its recorded outcome."""
    try:
        return fn()
    except Exception as exc:  # an operation's failure is a result, not a harness crash
        return exc


def _run_oracle(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_snapshot(path: Path, values: np.ndarray, kappa: float) -> None:
    grid = psg.TorusGrid(values.ndim, values.shape[0])
    psg.io.write_snapshot(path, psg.Field(grid, values), 0.0, kappa)


def _check_sweep_member(label, scheme, tau, reports, final_energy, want) -> list[str]:
    """Compare one sweep member's verdicts and final energy with the oracle and the guarantees.

    reports maps monitor name -> violated flag; a missing name is not checked.
    """
    bad = []
    if not _close(final_energy, want["final_energy"]):
        bad.append(f"{label}: final energy {final_energy!r} != oracle {want['final_energy']!r}")
    scale = 1.0 + abs(want["final_energy"])
    for name, excess, margin in (("energy", want["energy_excess"], VERDICT_MARGIN * scale),
                                 ("modified_energy", want["modified_excess"], VERDICT_MARGIN * scale),
                                 ("maxp", want["maxp_excess"], VERDICT_MARGIN)):
        if name in reports and abs(excess) > margin and reports[name] != (excess > 0):
            bad.append(f"{label}: {name} verdict {reports[name]} != oracle {excess > 0}")
    guaranteed = []
    if scheme == "imex1" and tau <= 2:
        guaranteed.append("energy")
    if scheme == "imex1" and tau <= 1:
        guaranteed.append("maxp")
    if scheme == "bdf2" and tau <= 0.5:
        guaranteed.append("modified_energy")
    bad += [f"{label}: guaranteed {name} monitor fired" for name in guaranteed if reports.get(name)]
    return bad


class Workload:
    name = ""
    dim = 2

    def __init__(self, seed: int, work: Path):
        self.work = work / self.name
        self.work.mkdir(parents=True, exist_ok=True)

    @property
    def steps(self) -> int:
        return inputs.steps_per_pass(self.name)

    @property
    def point_steps(self) -> int:
        return inputs.point_steps_per_pass(self.name)

    def probe_spec(self) -> dict:
        """Configuration of the workload's first time step, for the set-up probe."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill FFT plan caches and cached grid tables before anything is timed."""
        spec = self.probe_spec()
        config = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind(spec["scheme"]), spec["dim"],
                                      spec["kappa"], spec["tau"], spec["n"], n_steps=2, init=spec["init"])
        psg.run(psg.initial_field(config), config.model, config.scheme, config.tau, 2)

    def prepare(self) -> None:
        """Untimed per-pass preparation."""

    def run_pass(self, split):
        """One pass; split() may be called between long operations (run.py samples the host clock there)."""
        raise NotImplementedError

    def check(self, outcome) -> tuple[int, list[str]]:
        """(operations attempted, one message per failed operation) for one pass's outcome."""
        raise NotImplementedError

    def working_set_bytes(self) -> int:
        """Computed estimate: ~8 live fields and 2 half spectra per concurrently running member."""
        field = 8 * inputs.N**self.dim
        spectrum = 16 * inputs.N ** (self.dim - 1) * (inputs.N // 2 + 1)
        return self.members_in_flight() * (8 * field + 2 * spectrum)

    def members_in_flight(self) -> int:
        return 1


def run2d_argv(out: Path) -> list[str]:
    c = inputs.RUN2D
    return ["run", "--model", c["model"], "--scheme", c["scheme"], "--dim", str(c["dim"]),
            "--kappa", repr(c["kappa"]), "--tau", repr(c["tau"]), "--n", str(inputs.N),
            "--tfinal", repr(c["tfinal"]), "--init", c["init"], "--snap-every", str(c["snap_every"]),
            "--monitors", "energy", "modified_energy", "maxp", "--out", str(out)]


class Run2D(Workload):
    name = "run2d"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.golden = json.loads((HERE / "golden.json").read_text())["run2d"]
        self.out = self.work / "out"
        self.argv = run2d_argv(self.out)

    def probe_spec(self):
        c = inputs.RUN2D
        return dict(dim=2, n=inputs.N, kappa=c["kappa"], scheme=c["scheme"], tau=c["tau"], init=c["init"], cli=True)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, split):
        return _attempt(lambda: psg.cli.main(self.argv))

    def check(self, outcome):
        try:
            bad = self._check(outcome)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            bad = [f"run2d: unreadable output: {type(exc).__name__}: {exc}"]
        return 1, ["; ".join(bad)] if bad else []

    def _check(self, code) -> list[str]:
        g = self.golden
        if code != g["exit_code"]:
            return [f"run2d: exit code {code!r}, expected {g['exit_code']}"]
        bad = []
        lines = (self.out / "series.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        if len(rows) != inputs.RUN2D["steps"]:
            return [f"run2d: series.csv has {len(rows)} rows"]
        for key in ("first_row", "last_row"):
            row = dict(zip(header, rows[0] if key == "first_row" else rows[-1]))
            for col, want in g[key].items():
                if not _close(float(row[col]), want):
                    bad.append(f"run2d: {key} {col} {row[col]} != golden {want!r}")
        modified = np.array([float(r[header.index("modified_energy")]) for r in rows])
        prev = modified[:-1]
        if np.any(modified[1:] - prev > oracle.ENERGY_SLACK * (1.0 + np.abs(prev))):
            bad.append("run2d: modified energy increased (bdf2, tau <= 1/2)")
        linf = np.array([float(r[header.index("linf")]) for r in rows])
        if np.any(linf > math.pi + oracle.MAXP_SLACK):
            bad.append("run2d: ||u||_inf exceeded pi")
        report = dict(line.split(": ", 1) for line in (self.out / "report.txt").read_text().splitlines())
        for key, want in g["report"].items():
            if report.get(key) != want:
                bad.append(f"run2d: report {key}={report.get(key)!r}, golden {want!r}")
        snaps = sorted(int(p.stem.split("_")[1]) for p in self.out.glob("snap_*.psg"))
        if snaps != g["snapshot_steps"]:
            bad.append(f"run2d: snapshots at steps {snaps}, expected {g['snapshot_steps']}")
        else:
            bad += self._check_last_snapshot(dict(zip(header, rows[-1])))
        return bad

    def _check_last_snapshot(self, last: dict) -> list[str]:
        """The last snapshot holds the field whose diagnostics are the last series row."""
        raw = (self.out / f"snap_{inputs.RUN2D['steps']}.psg").read_bytes()
        n = inputs.N
        t, kappa = np.frombuffer(raw, dtype="<f8", count=2, offset=16)
        u = np.frombuffer(raw, dtype="<f8", offset=32).reshape(n, n)
        bad = []
        if t != float(last["t"]) or kappa != inputs.RUN2D["kappa"]:
            bad.append(f"run2d: snapshot header t={t} kappa={kappa}")
        if u.min() != float(last["umin"]) or u.max() != float(last["umax"]):
            bad.append("run2d: snapshot min/max differ from the series row")
        if not _close(oracle.field_energy(u, kappa), float(last["energy"])):
            bad.append("run2d: snapshot energy differs from the series row")
        return bad


class Sweep1D(Workload):
    name = "sweep1d"
    dim = 1

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.expected = _run_oracle(self.name, seed)["members"]
        self.sweeps = []  # (label, scheme, config, taus) in oracle member order
        for i, (u0, kappa) in enumerate(inputs.sweep1d_data(seed)):
            path = self.work / f"u{i}.psg"
            _write_snapshot(path, u0, kappa)
            for scheme, taus in inputs.SWEEP1D_TAUS.items():
                config = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind(scheme), 1, kappa,
                                              taus[0], inputs.N, n_steps=inputs.SWEEP1D_STEPS, init=str(path))
                self.sweeps.append((f"data{i}/{scheme}", scheme, config, taus))

    def probe_spec(self):
        _, scheme, config, taus = self.sweeps[0]
        return dict(dim=1, n=inputs.N, kappa=config.kappa, scheme=scheme, tau=taus[0], init=config.init, cli=False)

    def members_in_flight(self):
        return min(len(inputs.SWEEP1D_TAUS["imex1"]), os.cpu_count() or 1)

    def run_pass(self, split):
        return [_attempt(lambda c=config, t=taus: psg.diagnostics.stability_sweep(c, t))
                for _, _, config, taus in self.sweeps]

    def check(self, outcome):
        attempted, bad = 0, []
        expected = iter(self.expected)
        for (label, scheme, _, taus), result in zip(self.sweeps, outcome):
            attempted += len(taus)
            wants = [next(expected) for _ in taus]
            if isinstance(result, Exception):
                bad += [f"{label}: {type(result).__name__}: {result}"] * len(taus)
                continue
            for tau, reports, energy, error, want in zip(taus, result.reports, result.final_energies,
                                                         result.errors, wants):
                if error is not None:
                    bad.append(f"{label} tau={tau}: {error}")
                    continue
                flags = dict(zip(("energy", "modified_energy", "maxp"), (r.violated for r in reports)))
                member = _check_sweep_member(f"{label} tau={tau}", scheme, tau, flags, energy, want)
                if member:
                    bad.append("; ".join(member))
        return attempted, bad


class Sweep2D(Workload):
    name = "sweep2d"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        c = inputs.SWEEP2D
        self.expected = _run_oracle(self.name, seed)["members"]
        self.init = self.work / "u0.psg"
        _write_snapshot(self.init, inputs.sweep2d_data(seed), c["kappa"])
        self.out = self.work / "out"
        self.argv = ["sweep", "--model", "sg", "--scheme", c["scheme"], "--dim", "2", "--kappa", repr(c["kappa"]),
                     "--n", str(inputs.N), "--steps", str(c["steps"]), "--init", str(self.init),
                     "--tau-list", ",".join(repr(t) for t in c["taus"]), "--out", str(self.out)]

    def probe_spec(self):
        c = inputs.SWEEP2D
        return dict(dim=2, n=inputs.N, kappa=c["kappa"], scheme=c["scheme"], tau=c["taus"][0],
                    init=str(self.init), cli=True)

    def members_in_flight(self):
        return min(len(inputs.SWEEP2D["taus"]), os.cpu_count() or 1)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, split):
        return _attempt(lambda: psg.cli.main(self.argv))

    def check(self, code):
        taus = inputs.SWEEP2D["taus"]
        if code != 0:
            return len(taus), [f"sweep2d: exit code {code!r}, expected 0"] * len(taus)
        try:
            lines = (self.out / "sweep.csv").read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            row_taus = [float(r["tau"]) for r in rows]
        except (OSError, IndexError, KeyError, ValueError) as exc:
            return len(taus), [f"sweep2d: unreadable sweep.csv: {type(exc).__name__}: {exc}"] * len(taus)
        if row_taus != list(taus):
            return len(taus), [f"sweep2d: sweep.csv rows {lines[1:]}"] * len(taus)
        bad = []
        for tau, row, want in zip(taus, rows, self.expected):
            try:
                flags = {name: {"true": True, "false": False}[row[col]]
                         for name, col in (("energy", "energy_violated"), ("maxp", "maxp_violated"))}
                member = _check_sweep_member(f"sweep2d tau={tau}", inputs.SWEEP2D["scheme"], tau, flags,
                                             float(row["final_energy"]), want)
            except (KeyError, ValueError) as exc:
                member = [f"sweep2d tau={tau}: bad row {row}: {exc}"]
            if member:
                bad.append("; ".join(member))
        return len(taus), bad


class Converge2D(Workload):
    name = "converge2d"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        c = inputs.CONVERGE2D
        self.expected = _run_oracle(self.name, seed)["slopes"]
        self.golden = json.loads((HERE / "golden.json").read_text())["steady_states"]
        path = self.work / "u0.psg"
        _write_snapshot(path, inputs.converge2d_data(seed), c["kappa"])
        self.config = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind.IMEX1, 2, c["kappa"],
                                           c["tau_base"], inputs.N, t_final=c["t_final"], init=str(path))
        self.kink_c = inputs.kink_shift(seed)
        k = inputs.STEADY_KAPPA
        self.kink_x = np.linspace(-10.0 * k, 10.0 * k, inputs.STEADY_KINK_POINTS)

    def probe_spec(self):
        c = inputs.CONVERGE2D
        return dict(dim=2, n=inputs.N, kappa=c["kappa"], scheme="imex1", tau=c["tau_base"],
                    init=self.config.init, cli=False)

    def warm_up(self):
        super().warm_up()
        psg.steady_states.build_periodic_orbit(0.0, inputs.STEADY_KAPPA)

    def run_pass(self, split):
        c = inputs.CONVERGE2D
        slopes = {}
        for i, scheme in enumerate(c["schemes"]):
            if i:
                split()
            slopes[scheme] = _attempt(lambda s=scheme: psg.diagnostics.convergence_order(
                self.config, psg.SchemeKind(s), c["tau_base"], c["levels"], c["t_final"]))
        steady = psg.steady_states
        kappa = inputs.STEADY_KAPPA

        def orbit(C):
            o = steady.build_periodic_orbit(C, kappa)
            return o.period, o.case.amplitude, o.residual_max(), o.first_integral_drift()

        def kink(sign):
            u = steady.kink_eval(kappa, sign, self.kink_c, self.kink_x)
            return steady.residual(u, kappa, spacing=self.kink_x[1] - self.kink_x[0])

        orbits = {C: _attempt(lambda C=C: orbit(C)) for C in inputs.STEADY_ORBIT_C}
        kinks = {sign: _attempt(lambda s=sign: kink(s)) for sign in inputs.STEADY_KINK_SIGNS}
        return slopes, orbits, kinks

    def check(self, outcome):
        slopes, orbits, kinks = outcome
        bad = []
        for scheme, slope in slopes.items():
            centre, width = ORDER_BANDS[scheme]
            if isinstance(slope, Exception):
                bad.append(f"converge2d {scheme}: {type(slope).__name__}: {slope}")
            elif abs(slope - self.expected[scheme]) > SLOPE_TOL or abs(slope - centre) > width:
                bad.append(f"converge2d {scheme}: slope {slope!r}, oracle {self.expected[scheme]!r}, "
                           f"band {centre} +- {width}")
        for C, result in orbits.items():
            if isinstance(result, Exception):
                bad.append(f"orbit C={C}: {type(result).__name__}: {result}")
                continue
            period, amplitude, resid, drift = result
            want = self.golden["orbit_period"][repr(C)]
            if not (_close(period, want) and abs(amplitude - math.acos(-C)) <= 1e-12
                    and resid <= 1e-6 and drift <= 1e-8):
                bad.append(f"orbit C={C}: period {period!r} (golden {want!r}), amplitude {amplitude!r}, "
                           f"residual {resid:.2e}, drift {drift:.2e}")
        for sign, resid in kinks.items():
            if isinstance(resid, Exception) or not resid <= 1e-6:
                bad.append(f"kink sign={sign}: residual {resid!r}")
        return len(slopes) + len(orbits) + len(kinks), bad


WORKLOADS = {w.name: w for w in (Run2D, Sweep1D, Sweep2D, Converge2D)}
