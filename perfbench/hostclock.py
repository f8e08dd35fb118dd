"""A clock that runs at a fixed reference speed of the host.

The benchmark runs on shared hosts whose speed drifts by a third or more over
seconds to minutes, and a pure-Python loop slows down as much as the program
does.  Process CPU time drifts with it, so it does not help.  ``HostClock``
therefore samples the host's speed while the program runs: every
``PERIOD_S`` a SIGALRM handler times one run of a fixed loop (``probe``),
which never calls the program.  Between two samples the clock advances by the
wall time times ``PROBE_REF_S / probe time``, the median probe time of the
last ``WINDOW`` samples.  A stretch in which the host runs at half speed thus
reads as half its wall time, and a program that gets faster reads faster at
any host speed.  The probes' own time is left out of the clock.

``PROBE_REF_S`` fixes the reference speed: roughly the probe's time on an
idle 2-vCPU Xeon (Sapphire Rapids) VM.  Times read from this clock are in
seconds at that speed.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

PERIOD_S = 0.04
WINDOW = 5
PROBE_REF_S = 0.002


def probe() -> None:
    """Fixed interpreted work, about 2 ms on the reference host: integer
    arithmetic, dict stores and a sort.  It creates almost no objects that
    the garbage collector tracks, so it does not shift the program's
    collections; and it imports nothing, so that starting the clock before
    ``import drinfeld`` leaves the import in the set-up."""
    s = 0
    d = dict.fromkeys(range(128), 0)
    for i in range(12000):
        s += i * i % 7
        d[i & 127] = s
    sorted(d.values())


class HostClock:
    """Install with ``start``, read with ``now``, remove with ``stop``."""

    def __init__(self):
        self.probes: list[float] = []  # every probe time, in seconds
        self._recent: deque[float] = deque(maxlen=WINDOW)
        # (clock reading, perf_counter(), rate) at the end of the last probe,
        # replaced as one object so that a probe between two reads in now()
        # cannot mix old and new values
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def _sample(self, reading: float) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.probes.append(t1 - t0)
        self._recent.append(t1 - t0)
        self._state = (reading, t1, PROBE_REF_S / statistics.median(self._recent))

    def _tick(self, signum, frame) -> None:
        self._sample(self.now())

    def start(self) -> None:
        self._sample(0.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Seconds at the reference speed since ``start``, probes left out."""
        reading, since, rate = self._state
        return reading + (perf_counter() - since) * rate

    def speed(self) -> float:
        """The host's median speed over all probes, as a share of the
        reference speed."""
        return PROBE_REF_S / statistics.median(self.probes)
