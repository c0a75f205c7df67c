"""psg benchmark harness.

Usage (from the repository root):
    python3 perfbench/run.py --workload {run2d,sweep1d,sweep2d,converge2d}
                             --seed N --seconds S --trace {0,1}

Runs one workload through psg's public API and CLI from src/, checks
every operation's output (see workloads.py), and prints a human-readable
summary, an `env` line, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metric names and
units come from BENCHMARK.json at the repository root.

--trace 0 reports the end-to-end metrics, measured with tracing off.
Times are scaled to a fixed host speed (calibration.py): the shared host
drifts by up to 2x, and a psg-independent kernel timed between passes
tracks that drift. Measured times are in the env line (pass_s, host_scale).
  setup_s             median over fresh interpreters (one before each pass,
                      at least SETUP_PROBES) of the time from spawn to the
                      end of psg's first step, each scaled by the host
                      clock sample taken just before it
  wall_s              median scaled seconds of one workload pass
  mpoint_steps_per_s  1e-6 * grid points * time steps per pass / wall_s
  peak_rss_mb         peak resident memory of this (workload) process
error_rate (failed / attempted) is printed too; it is not a metric in
BENCHMARK.json because it is 0 on a correct program.

--trace 1 alternates untraced and traced passes, reports the per-layer
metrics (medians over traced passes, in measured time; counts must
repeat exactly across them, or the run is not correct; overhead_frac
compares scaled times), and writes every span to
.perfbench_out/spans-<workload>-<seed>.json at exit.

Each run measures passes until the next one would overrun --seconds
(at least MIN_PASSES). Sweeps use psg's thread pool at its default width:
PSG_THREADS is removed from the environment and BLAS threads are pinned
to 1 before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PSG_THREADS", None)

from calibration import HostClock, PassTimer  # noqa: E402  (imports numpy, so after the pins above)

SETUP_PROBES = 7
MIN_PASSES = 2
# All workloads the harness can run; BENCHMARK.json lists the ones the benchmark measures.
WORKLOAD_NAMES = ("run2d", "sweep1d", "sweep2d", "converge2d")


def parse_args(argv):
    p = argparse.ArgumentParser(description="psg benchmark harness")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def one_pass(workload, timer, tracer=None):
    """Run and check one pass; returns (seconds, attempted, failures, trace or None, scaled seconds).

    Untraced passes let the workload split its timing between operations
    (calibration.PassTimer); traced ones are not split, so that no
    calibration work lands among the tracer's counts.
    """
    workload.prepare()
    if tracer is not None:
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        timer.start()
        outcome = workload.run_pass(timer.split if tracer is None else lambda: None)
        timer.stop()
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.collect()
    timer.calibrate()
    attempted, failures = workload.check(outcome)
    return timer.seconds, attempted, failures, trace, timer.scaled


def measure(workload, budget: float, clock, tracers=(None,), between=None):
    """Passes, cycling through tracers, until the next cycle would overrun budget.

    The host clock (calibration.py) is sampled before the first pass, after
    every pass and wherever a workload splits a pass, outside the timing. Returns per tracer a
    list of one_pass results. between, if given, runs before each pass
    with the host-speed scale of the latest clock sample.
    """
    results = {id(t): [] for t in tracers}
    unit = clock.sample()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for tracer in tracers:
            if between is not None:
                between(clock.scale(unit))
            timer = PassTimer(clock, unit)
            results[id(tracer)].append(one_pass(workload, timer, tracer))
            unit = timer.unit
        now = time.perf_counter()
        done = len(results[id(tracers[0])])
        if done >= MIN_PASSES and now - start + (now - cycle_start) > budget:
            return [results[id(t)] for t in tracers]


def tally(passes) -> tuple[int, list[str]]:
    """Operations attempted and failure messages over a list of one_pass results."""
    return sum(p[1] for p in passes), [f for p in passes for f in p[2]]


def setup_probe(workload, samples: list, scale: float) -> None:
    """Append the seconds one fresh interpreter takes to the end of the workload's first step, times scale."""
    spec = json.dumps(dict(workload.probe_spec(), src=str(ROOT / "src")))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                          capture_output=True, text=True, timeout=120, check=True)
    samples.append((float(proc.stdout.split()[-1]) - t0) * scale)


def _libc_cache_bytes(name: int):
    # glibc answers _SC_LEVEL{2,3}_CACHE_SIZE from cpuid; Python's os.sysconf lacks the names.
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _git_commit():
    """HEAD of the checkout when it is a git work tree (read from .git, no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int) -> dict:
    import numpy

    l3 = _libc_cache_bytes(194)
    working_set = workload.working_set_bytes()
    backend = "pocketfft" if hasattr(numpy.fft, "_pocketfft_umath") else "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": f"numpy.fft ({backend})",
        "nproc": os.cpu_count(),
        "l2_bytes": _libc_cache_bytes(191),
        "l3_bytes": l3,
        "working_set_bytes_computed": working_set,
        "cache_resident": None if l3 is None else working_set < l3,
        "blas_threads": 1,
        "psg_threads": "unset (pool width = min(nproc, members))",
    }


def end_to_end(workload, seconds: float):
    # Probes run between passes, so they sample the same stretch of time as the passes.
    clock = HostClock()
    setup = []
    (passes,) = measure(workload, seconds, clock, between=lambda scale: setup_probe(workload, setup, scale))
    while len(setup) < SETUP_PROBES:
        setup_probe(workload, setup, clock.scale(clock.sample()))
    raw = [p[0] for p in passes]
    times = [p[4] for p in passes]
    attempted, failures = tally(passes)
    wall = statistics.median(times)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "mpoint_steps_per_s": 1e-6 * workload.point_steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"pass_s": raw, "host_scale": [p[4] / p[0] for p in passes], "setup_samples_s": setup}
    return values, attempted, failures, detail


def per_layer(workload, seconds: float, seed: int):
    from tracer import Tracer, layer_metrics

    # Untraced and traced passes alternate, so both sample the same stretch of time.
    tracer = Tracer()
    untraced_passes, traced_passes = measure(workload, seconds, HostClock(), tracers=(None, tracer))
    attempted, failures = tally(untraced_passes + traced_passes)
    plain = [p[0] for p in untraced_passes]
    traced = [p[0] for p in traced_passes]
    traces = [p[3] for p in traced_passes]
    counts = [c for _, c in traces]
    unsteady = sorted({k for c in counts[1:] for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k)})
    per_pass = [layer_metrics(spans, c, workload.steps) for spans, c in traces]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    # Host-speed scaled, so a drift of the host between the two kinds of pass does not read as overhead.
    scaled_plain = statistics.median(p[4] for p in untraced_passes)
    scaled_traced = statistics.median(p[4] for p in traced_passes)
    values["trace.overhead_frac"] = scaled_traced / scaled_plain - 1.0
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload.name}-{seed}.json").write_text(json.dumps(
        {"fields": ["id", "name", "parent", "thread", "start", "end"],
         "passes": [{"spans": spans, "counts": c} for spans, c in traces]}))
    detail = {"untraced_pass_s": plain, "traced_pass_s": traced, "missing_targets": tracer.missing,
              "counts_first_pass": counts[0], "counts_not_repeated": unsteady}
    return values, attempted, failures, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "psg" / "__init__.py").is_file():
        print(f"error: psg sources not found at {src / 'psg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.warm_up()
        kind = "per_layer" if args.trace else "end_to_end"
        if args.trace:
            values, attempted, failures, detail = per_layer(workload, args.seconds, args.seed)
        else:
            values, attempted, failures, detail = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for message in failures:
        print(f"FAILED {message}")
    unsteady = detail.get("counts_not_repeated")
    if unsteady:
        print(f"FAILED exact counts differ between traced passes: {unsteady}")
    for name, unit in units.items():
        print(f"{args.workload:<10} {name:<48} {values[name]:>14.6g} {unit}")
    print(f"{args.workload:<10} {'error_rate':<48} {len(failures) / attempted:>14.6g} failed/attempted"
          f" ({len(failures)}/{attempted})")
    print("env " + json.dumps(dict(environment(workload, args.seed), **detail)))
    result = {
        "correct": not failures and not unsteady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
