"""How fast the CPU ran an op process, sampled from inside that process.

On a shared machine each core slows down and speeds up by +-25% within
seconds, on its own, as other tenants' work comes and goes: the same 3 s
command varies by about 15% from one run to the next, and a task timed on
one core says nothing about the other.  So the benchmark times a fixed task
of its own inside the op process, on whatever core runs it, all through the
op: a timer interrupts the process every INTERVAL_S and runs `probe`, about
0.5 ms of interpreter loop.  An op's time, less the probes' own time, is
scaled by NOMINAL_S over the median probe time of that process.

The probe allocates no object (every int it makes is a cached small int),
so neither the program's heap nor its garbage collector changes how long it
takes, and it takes the same time during the import as during the command.
The program cannot change the probe, so two versions of it are compared at
the same nominal speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# median probe time on a 2-vCPU Intel Xeon, Python 3.11.7
NOMINAL_S = 0.00045
_VALUES = [i & 63 for i in range(8000)]


def probe() -> None:
    acc = 0
    for value in _VALUES:
        acc = (acc * 3 + value) & 63


class Sampler:
    """Times `probe` every INTERVAL_S of wall time, from a SIGALRM handler."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def probe_s(self, start: float, end: float) -> float:
        """Seconds the probes took between `start` and `end`."""
        return sum(seconds for at, seconds in self.samples if start <= at < end)

    def scale(self) -> float:
        """Factor that takes this process's times to the nominal speed."""
        times = sorted(seconds for _, seconds in self.samples)
        return NOMINAL_S / times[len(times) // 2]
