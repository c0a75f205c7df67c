"""Outside-in tracing of psg: spans and exact counts from wrappers.

The wrappers are installed by the benchmark, never by psg, at the name
each caller looks up. psg modules import functions by name (schemes
calls its own `helmholtz_solve`, models its own `first_derivative`), so
a function is wrapped once per module that calls it, and all its
wrappers share one span name. A span is (id, name, parent, thread,
start, end); each thread keeps its own stack, and a span that starts on
an empty stack in a thread other than the installing one is attached to
the innermost open "adopting" span (stability_sweep), so pool workers'
runs hang under their sweep. Spans stay in memory until collect().

Counts are kept per thread and merged on collect(): calls per span name,
Field constructions, FFT calls into numpy.fft and the bytes they and the
constructed arrays occupy (computed from array sizes, not measured
traffic), file bytes written and read, and sweep members.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

import numpy.fft

# (module, attribute, span name) — one entry per lookup site.
SPAN_TARGETS = [
    ("psg.schemes", "helmholtz_solve", "grid.helmholtz_solve"),
    ("psg.models", "first_derivative", "grid.first_derivative"),
    ("psg.schemes", "nonlinearity", "models.nonlinearity"),
    ("psg.schemes", "energy", "models.energy"),
    ("psg.models", "energy", "models.energy"),
    ("psg.schemes", "modified_energy", "models.modified_energy"),
    *[(module, fn, "schemes.step") for module in ("psg.schemes", "psg.diagnostics")
      for fn in ("imex1_step", "bdf2_step", "kickstart_bdf2")],
    ("psg.cli", "run", "schemes.run"),
    ("psg.diagnostics", "run", "schemes.run"),
    *[(module, fn, "diagnostics.monitors") for module in ("psg.cli", "psg.diagnostics")
      for fn in ("energy_monitor", "max_principle_monitor")],
    ("psg.cli", "stability_sweep", "diagnostics.stability_sweep"),
    ("psg.diagnostics", "stability_sweep", "diagnostics.stability_sweep"),
    ("psg.diagnostics", "convergence_order", "diagnostics.convergence_order"),
    ("psg.steady_states", "build_periodic_orbit", "steady_states.build_periodic_orbit"),
    ("psg.cli", "build_periodic_orbit", "steady_states.build_periodic_orbit"),
    ("psg.steady_states", "residual", "steady_states.residual"),
    ("psg.cli", "residual", "steady_states.residual"),
    ("psg.cli", "initial_field", "config.initial_field"),
    ("psg.diagnostics", "initial_field", "config.initial_field"),
    ("psg.io", "write_snapshot", "io.write_snapshot"),
    ("psg.io", "read_snapshot", "io.read_snapshot"),
    ("psg.io", "write_series_csv", "io.write_series_csv"),
    ("psg.io", "write_sweep_csv", "io.write_sweep_csv"),
    ("psg.cli", "main", "cli.main"),
]
ADOPTING = {"diagnostics.stability_sweep"}
FILE_WRITERS = {"io.write_snapshot", "io.write_series_csv", "io.write_sweep_csv"}
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "ident")

    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = Counter()
        self.ident = threading.get_ident()


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._states = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._adopt = []
        self._patches = []
        self._owner = threading.get_ident()
        self.missing = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _span(self, name: str, fn):
        adopting = name in ADOPTING
        path_arg = name.startswith("io.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            if st.stack:
                parent = st.stack[-1]
            elif st.ident != self._owner and self._adopt:
                parent = self._adopt[-1]
            else:
                parent = 0
            st.stack.append(sid)
            if adopting:
                self._adopt.append(sid)
                st.counts["diagnostics.stability_sweep.members"] += len(args[1])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if adopting:
                    self._adopt.pop()
                st.stack.pop()
                st.spans.append((sid, name, parent, st.ident, start, end))
                st.counts[name] += 1
                if path_arg and args and os.path.exists(args[0]):
                    key = "io.bytes_written" if name in FILE_WRITERS else "io.bytes_read"
                    st.counts[key] += os.path.getsize(args[0])

        return traced

    def _counted_post_init(self, original):
        def post_init(field):
            original(field)
            counts = self._state().counts
            counts["grid.field_inits"] += 1
            counts["grid.bytes_computed"] += field.values.nbytes
        return post_init

    def _counted_fft(self, original):
        @functools.wraps(original)
        def fft(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            counts = self._state().counts
            counts["grid.transforms"] += 1
            counts["grid.bytes_computed"] += getattr(a, "nbytes", 0) + out.nbytes
            return out
        return fft

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every target; names a later psg no longer has are listed in self.missing."""
        self._local = threading.local()
        self.missing = []
        for module_name, attr, name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        grid = importlib.import_module("psg.grid")
        self._patch(grid.Field, "__post_init__", self._counted_post_init)
        for fn in FFT_FUNCTIONS:
            self._patch(numpy.fft, fn, self._counted_fft)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def collect(self):
        """All spans (sorted by start) and merged counts since install()."""
        with self._lock:
            states, self._states = self._states, []
        spans = sorted((s for st in states for s in st.spans), key=lambda s: s[4])
        counts = Counter()
        for st in states:
            counts.update(st.counts)
        return spans, dict(counts)


def layer_metrics(spans, counts, steps: int) -> dict:
    """Per-layer metrics of one traced pass that advanced `steps` time steps."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, parent, thread, start, end in spans:
        p = by_id.get(parent)
        if p is not None and p[3] == thread:
            child_time[parent] += end - start
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for sid, name, parent, thread, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[sid]

    def parent_name(span):
        p = by_id.get(span[2])
        return p[1] if p is not None else None

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_per_call(name, table=total):
        return 1e3 * ratio(table[name], calls[name])

    steps_in_runs = sum(1 for s in spans if s[1] == "schemes.step" and parent_name(s) == "schemes.run")
    steps_in_fits = sum(1 for s in spans if s[1] == "schemes.step"
                        and parent_name(s) == "diagnostics.convergence_order")
    top_energy = sum(s[5] - s[4] for s in spans
                     if s[1] == "models.energy" and parent_name(s) != "models.modified_energy")
    sweep_busy = sum(s[5] - s[4] for s in spans
                     if parent_name(s) == "diagnostics.stability_sweep" and by_id[s[2]][3] != s[3])
    return {
        "grid.helmholtz_solve.calls_per_step": ratio(calls["grid.helmholtz_solve"], steps),
        "grid.helmholtz_solve.ms_per_call": ms_per_call("grid.helmholtz_solve"),
        "grid.first_derivative.calls_per_step": ratio(calls["grid.first_derivative"], steps),
        "grid.first_derivative.ms_per_call": ms_per_call("grid.first_derivative"),
        "grid.field_inits_per_step": ratio(counts.get("grid.field_inits", 0), steps),
        "grid.transforms_per_step": ratio(counts.get("grid.transforms", 0), steps),
        "grid.bytes_per_step_computed": ratio(counts.get("grid.bytes_computed", 0), steps),
        "models.nonlinearity.calls_per_step": ratio(calls["models.nonlinearity"], steps),
        "models.nonlinearity.ms_per_call": ms_per_call("models.nonlinearity"),
        "models.energy.calls_per_step": ratio(calls["models.energy"], steps),
        "models.energy.ms_per_call": ms_per_call("models.energy"),
        "models.modified_energy.self_ms_per_call": ms_per_call("models.modified_energy", self_time),
        "schemes.step.self_ms": ms_per_call("schemes.step", self_time),
        "schemes.run.self_ms_per_step": 1e3 * ratio(self_time["schemes.run"], steps_in_runs),
        "schemes.diagnostics_share": ratio(top_energy + total["models.modified_energy"], total["schemes.run"]),
        "diagnostics.monitors.ms_per_run": 1e3 * ratio(total["diagnostics.monitors"], calls["schemes.run"]),
        "diagnostics.stability_sweep.members": counts.get("diagnostics.stability_sweep.members", 0),
        "diagnostics.stability_sweep.concurrency": ratio(sweep_busy, total["diagnostics.stability_sweep"]),
        "diagnostics.convergence_order.steps": ratio(steps_in_fits, calls["diagnostics.convergence_order"]),
        "steady_states.build_periodic_orbit.ms_per_call": ms_per_call("steady_states.build_periodic_orbit"),
        "steady_states.residual.ms_per_call": ms_per_call("steady_states.residual"),
        "io.write_snapshot.ms_per_call": ms_per_call("io.write_snapshot"),
        "io.read_snapshot.ms_per_call": ms_per_call("io.read_snapshot"),
        "io.write_series_csv.ms_per_call": ms_per_call("io.write_series_csv"),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "io.bytes_read": counts.get("io.bytes_read", 0),
        "config.initial_field.ms": ms_per_call("config.initial_field"),
        "cli.main.self_ms": ms_per_call("cli.main", self_time),
    }
