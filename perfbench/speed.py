"""Host-speed probe: rescale host seconds to a reference host speed.

On a shared host the same pass can take 1.5x longer from one minute to
the next, and the process's CPU time drifts with its wall clock, so
neither tells a slower program from a busier host.  While a timed
region runs, :class:`SpeedProbe` interrupts it every
:data:`INTERVAL_S` (``SIGALRM``) and times a fixed pure-Python loop
that touches no ``repro`` code.  The median loop time over the region,
against :data:`REFERENCE_S`, is the host's slowness during that region;
:meth:`SpeedProbe.scale` divides it out of a host-seconds figure.  A
change to the program moves the rescaled figure; a busier host mostly
does not.  The probe costs about 2% of the region it samples.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Seconds between probes.
INTERVAL_S = 0.05
#: Iterations of the probe loop (about 0.8 ms on the reference host).
PROBE_ITERATIONS = 10_000
#: Median probe time on the reference host (2-vCPU x86-64 VM, Python
#: 3.11); rescaled seconds are host seconds on a host this fast.
REFERENCE_S = 0.0008


def _probe() -> float:
    started = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return perf_counter() - started


class SpeedProbe:
    """Sample host speed for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(_probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_probe())

    @property
    def slowness(self) -> float:
        """Median probe time over :data:`REFERENCE_S` (1.0 = reference)."""
        return statistics.median(self.samples) / REFERENCE_S

    def scale(self, host_seconds: float) -> float:
        """``host_seconds`` at the reference host's speed."""
        return host_seconds / self.slowness
