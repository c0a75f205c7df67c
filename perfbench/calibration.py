"""Host-speed calibration: a fixed kernel that does not touch psg.

The benchmark host is a few cores of a shared machine whose speed drifts
by up to 2x over seconds to minutes (neighbours' load; CPU time tracks
wall time, so the process is slowed, not descheduled). A workload pass
of a few seconds cannot average that out. The harness therefore times
this kernel between passes, and between the operations of a pass that
has several long ones, and reports pass times scaled to a fixed host
speed:

    normalised seconds = sum over segments of
                         measured seconds * (REFERENCE_S / unit seconds) ** RESPONSE

where a segment is the stretch between two samples and unit seconds is
the mean of the samples at its ends, each the median of REPS timings of
one unit. Short segments follow the host's changes of speed more
closely than whole passes do.

The unit mixes the kinds of work psg's steppers do — 2D real FFTs at
n=256 over a ring of fields as large as a 2D workload's working set, a
spectral multiply, a ufunc and interpreter-level Python — and never
calls psg, so a change to psg moves the normalised time by the same
share as the measured one. The unit reacts to the host's load more
steeply than psg's passes do, by an amount that itself varies. On the
recording host (2 vCPUs, Python 3.11, numpy pocketfft), sets of five
55-second runs gave the smallest spread of wall_s over seeds at a
log-log slope (pass time against unit time) of 0.6 in one hour and 1.0
in the next; RESPONSE sits between. Recomputed from their pass times
at RESPONSE = 0.75, the three sets measured (two converge2d, one
sweep2d) spread by 0.06-0.09 of their medians, against 0.15-0.21
unscaled.
REFERENCE_S is about the unit's time there in a quiet spell, so
normalised times read as seconds on a quiet host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N = 256
REPS = 15
REFERENCE_S = 0.010
RESPONSE = 0.75
_RING = 10  # fields of 512 KiB: ~5 MiB, as a 2D n=256 workload's working set
_FFT_ROUNDS = 4
_PY_ITERATIONS = 15000


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.ring = [rng.standard_normal((N, N)) for _ in range(_RING)]
        self.next = 0
        k = np.fft.fftfreq(N) * N
        kr = np.fft.rfftfreq(N) * N
        self.inverse_helmholtz = 1.0 / (1.0 + np.add.outer(k**2, kr**2))

    def _unit(self) -> int:
        for _ in range(_FFT_ROUNDS):
            i, j = self.next, (self.next + 1) % _RING
            smoothed = np.fft.irfft2(np.fft.rfft2(self.ring[i]) * self.inverse_helmholtz, s=(N, N))
            self.ring[i] = smoothed + 0.1 * np.sin(self.ring[j])
            self.next = (self.next + 3) % _RING
        acc = 0
        for i in range(_PY_ITERATIONS):
            acc += i * i % 7
        return acc

    def sample(self) -> float:
        """Median seconds of one unit over REPS repetitions."""
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @staticmethod
    def scale(unit_seconds: float) -> float:
        """Factor that takes a time measured at this host speed to the reference speed."""
        return (REFERENCE_S / unit_seconds) ** RESPONSE


class PassTimer:
    """Times one pass in segments and scales each by the host clock samples at its ends.

    start() and stop() bracket timed work; calibrate() samples the clock
    (untimed) and scales the work timed since the last sample; split()
    does all three, for a workload to call between its operations.
    """

    def __init__(self, clock: HostClock, unit_before: float):
        self.clock = clock
        self.unit = unit_before
        self.seconds = 0.0
        self.scaled = 0.0
        self._pending = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self._pending += time.perf_counter() - self._t0

    def calibrate(self) -> None:
        after = self.clock.sample()
        self.seconds += self._pending
        self.scaled += self._pending * self.clock.scale(0.5 * (self.unit + after))
        self._pending = 0.0
        self.unit = after

    def split(self) -> None:
        self.stop()
        self.calibrate()
        self.start()
