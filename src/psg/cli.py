"""Command-line interface: run / sweep / steady / potential-table.

Exit codes: 0 clean, 1 usage or input error, 2 runtime failure,
3 when an enabled monitor fired during a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import INIT_PRESETS, ExperimentConfig, initial_field
from .diagnostics import MonitorReports, monitor_reports, stability_sweep
from .grid import _DIMS, NonFiniteError, _all_positive, _check_positive
from .models import ModelKind
from .schemes import SchemeKind, StepRecord, run_steps
from .steady_states import Regime, SteadyStateCase, build_periodic_orbit, kink_eval, residual
from . import __version__, io


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise ValueError(message)


def _add_run_arguments(p: argparse.ArgumentParser, with_tau: bool) -> None:
    p.add_argument("--model", choices=[kind.value for kind in ModelKind], required=True)
    p.add_argument("--scheme", choices=[kind.value for kind in SchemeKind], required=True)
    p.add_argument("--dim", type=int, choices=_DIMS, required=True)
    p.add_argument("--kappa", type=float, required=True)
    if with_tau:
        p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="grid points per axis")
    length = p.add_mutually_exclusive_group()
    length.add_argument("--tfinal", type=float, default=None)
    length.add_argument("--steps", type=int, default=None)
    p.add_argument("--init", required=True, help=f"preset name ({', '.join(INIT_PRESETS)}) or snapshot path")
    p.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance one experiment and emit series/snapshots/report")
    _add_run_arguments(run_p, with_tau=True)
    run_p.add_argument("--snap-every", type=int, default=0, help="snapshot stride in steps (0 = off)")
    run_p.add_argument("--monitors", nargs="+", choices=MonitorReports._fields, default=[],
                       help="monitors whose violation turns the exit code to 3")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="repeat a run over a list of time steps")
    _add_run_arguments(sweep_p, with_tau=False)
    sweep_p.add_argument("--tau-list", required=True, help="comma-separated positive time steps")
    sweep_p.set_defaults(func=cmd_sweep)

    steady_p = sub.add_parser("steady", help="emit a 1D steady-state profile")
    steady_p.add_argument("--case", choices=["kink", "periodic", "constant", "zero"], required=True)
    steady_p.add_argument("--kappa", type=float, default=1.0)
    steady_p.add_argument("--c", type=float, default=0.0, help="kink shift constant")
    steady_p.add_argument("--sign", choices=["+", "-"], default="+")
    steady_p.add_argument("--C", type=float, default=0.0, dest="C", help="first-integral constant (periodic)")
    steady_p.add_argument("--out", type=Path, required=True, help="output directory")
    steady_p.set_defaults(func=cmd_steady)

    table_p = sub.add_parser("potential-table", help="emit the double-well potential comparison table")
    table_p.add_argument("--out", type=Path, required=True, help="output CSV path")
    table_p.set_defaults(func=cmd_potential_table)
    return parser


def _t_final(args) -> float | None:
    """--tfinal, or the documented 2D default T = 6 when neither --tfinal nor --steps is given."""
    if args.tfinal is None and args.steps is None:
        if args.dim == 2:
            return 6.0
        raise ValueError("one of --tfinal / --steps is required")
    if args.tfinal is not None:
        _check_positive("--tfinal", args.tfinal)
    return args.tfinal


def _build_config(args, tau: float) -> ExperimentConfig:
    return ExperimentConfig(
        model_kind=ModelKind(args.model),
        scheme=SchemeKind(args.scheme),
        dim=args.dim,
        kappa=args.kappa,
        tau=tau,
        n_per_axis=args.n,
        t_final=_t_final(args),
        n_steps=args.steps,
        init=args.init,
    )


def _report_lines(config: ExperimentConfig, args, reports: MonitorReports, final: StepRecord,
                  exit_code: int) -> list[str]:
    lines = [
        "command: run",
        f"psg_version: {__version__}",
        f"numpy_version: {np.__version__}",
        f"model: {config.model_kind.value}",
        f"scheme: {config.scheme.value}",
        f"dim: {config.dim}",
        f"kappa: {config.kappa!r}",
        f"tau: {config.tau!r}",
        f"n_per_axis: {config.n_per_axis}",
        f"steps: {config.step_count}",
        f"init: {config.init}",
        f"snap_every: {args.snap_every}",
        f"monitors_enabled: {','.join(args.monitors) if args.monitors else 'none'}",
    ]
    for name, rep in zip(reports._fields, reports):
        first = "" if rep.first_violation_step is None else str(rep.first_violation_step)
        lines += [
            f"{name}_violated: {str(rep.violated).lower()}",
            f"{name}_first_violation_step: {first}",
            f"{name}_worst_excess: {rep.worst_excess!r}",
        ]
    return lines + [
        f"final_energy: {final.energy!r}",
        f"final_linf: {final.linf!r}",
        f"exit_code: {exit_code}",
    ]


def cmd_run(args) -> int:
    config = _build_config(args, tau=args.tau)
    n_steps = config.step_count  # a tau that does not divide --tfinal fails before anything is written
    if args.snap_every < 0:
        raise ValueError(f"snap_every must be >= 0, got {args.snap_every}")
    u0 = initial_field(config)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    def recorded(series):  # each row is written as its step ends, so a blow-up keeps the finite steps' rows
        for u, record in run_steps(u0, config.model, config.scheme, config.tau, n_steps):
            series.write(io.series_row(record))
            if args.snap_every > 0 and record.step_index % args.snap_every == 0:
                # written before the next step overwrites u's buffer
                io.write_snapshot(out / f"snap_{record.step_index}.psg", u, record.t, config.kappa)
            yield record

    with open(out / "series.csv", "w", encoding="ascii") as series:
        series.write(io.SERIES_HEADER)
        reports, final = monitor_reports(recorded(series))
    code = 3 if any(getattr(reports, name).violated for name in args.monitors) else 0
    (out / "report.txt").write_text(
        "\n".join(_report_lines(config, args, reports, final, code)) + "\n", encoding="ascii"
    )
    print(f"run finished: {n_steps} steps, final t = {final.t:g}, "
          f"final energy = {final.energy:.12g}, exit {code}")
    return code


def cmd_sweep(args) -> int:
    try:
        taus = [float(tok) for tok in args.tau_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--tau-list must be comma-separated numbers, got {args.tau_list!r}")
    if not taus or not _all_positive(taus):
        raise ValueError(f"--tau-list entries must all be finite and > 0, got {args.tau_list!r}")

    # any listed tau will do: stability_sweep runs each for config.steps_for(tau) steps, recording a bad one
    config = _build_config(args, tau=taus[0])
    initial_field(config)  # a bad --init exits 1 with nothing written
    args.out.mkdir(parents=True, exist_ok=True)  # an unusable --out exits 2 before any tau runs
    sweep = stability_sweep(config, taus)
    io.write_sweep_csv(args.out / "sweep.csv", sweep)
    for tau, reports, error in zip(sweep.tau_values, sweep.reports, sweep.errors):
        if error is not None:
            print(f"tau={tau:g}: ERROR {error}")
        else:
            print(f"tau={tau:g}: energy_violated={str(reports.energy.violated).lower()} "
                  f"maxp_violated={str(reports.maxp.violated).lower()}")
    return 2 if any(e is not None for e in sweep.errors) else 0


def cmd_steady(args) -> int:
    sign = 1 if args.sign == "+" else -1
    # every value is computed (and kappa validated) before anything is written or printed
    if args.case == "periodic":
        orbit = build_periodic_orbit(args.C, args.kappa)
        case = orbit.case
        x, u = orbit.full_profile()
        if sign < 0:
            u = -u
        extra = [f"period: {orbit.period!r}", f"residual: {orbit.residual_max()!r}"]
    else:
        x = np.linspace(-np.pi, np.pi, 513)
        if args.case == "kink":
            case, u = SteadyStateCase(Regime.KINK, 1.0, args.kappa), kink_eval(args.kappa, sign, args.c, x)
        elif args.case == "constant":
            case, u = SteadyStateCase(Regime.CONSTANT_PI, 1.0, args.kappa), np.full_like(x, sign * np.pi)
        else:
            case, u = SteadyStateCase(Regime.ZERO, -1.0, args.kappa), np.zeros_like(x)
        extra = [f"residual: {residual(u, args.kappa, spacing=x[1] - x[0])!r}"]
    args.out.mkdir(parents=True, exist_ok=True)
    io.write_profile_csv(args.out / "profile.csv", x, u)
    print("\n".join([f"classification: {case.regime.value}", f"amplitude: {case.amplitude!r}", *extra]))
    return 0


def cmd_potential_table(args) -> int:
    args.out.parent.mkdir(parents=True, exist_ok=True)
    io.emit_potential_table(args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (NonFiniteError, OSError, MemoryError) as exc:  # NonFiniteError is a ValueError: caught first
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # usage and input errors, the parser's included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
