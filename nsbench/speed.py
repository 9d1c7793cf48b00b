"""Host-speed reference for the timed loop.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within a run and by up to 1.7x between runs (the median probe
of a 30 s run read 3.9 ms on one run and 6.7 ms on another), and raw job times
drift with it.  Medians inside a run cannot remove that.  So the timed loop also runs a fixed probe, pure Python with no
`nseries` code in it, about every PROBE_EVERY_S seconds, and each job's time
is scaled by NOMINAL_PROBE_MS / (the median of the probes around it).  A job
that runs while the host is 30% slow then reads as it would at nominal speed,
while a change to `nseries` moves the job times and not the probe.

The probe mixes the two kinds of work the kernel does most: a product of two
sparse polynomials with Fraction coefficients in dicts keyed by exponent
tuples, and small-integer arithmetic in a loop.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.05
NEIGHBOURS = 3  # probes taken on each side of a job when scaling it
# Median probe time on the host the bounds were set on (2 vCPUs, Python 3.11).
NOMINAL_PROBE_MS = 5.0

_LEFT = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(6)}
_RIGHT = {(i, j): Fraction(j - 3 or 1, i + 5) for i in range(6) for j in range(5)}


def _probe_work() -> int:
    product: dict[tuple[int, int], Fraction] = {}
    for (a1, a2), x in _LEFT.items():
        for (b1, b2), y in _RIGHT.items():
            key = (a1 + b1, a2 + b2)
            product[key] = product.get(key, 0) + x * y
    acc = 0
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    return len(product) + acc


class SpeedLog:
    """Probe times along one timed loop, and the scale they give a job."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        start = perf_counter()
        _probe_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def probe_if_due(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.probe()

    def local_ms(self, t: float) -> float:
        """Median of the NEIGHBOURS probes before and after time `t`."""
        i = bisect.bisect_left(self.starts, t)
        around = self.durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return statistics.median(around) * 1000.0

    def scale(self, t: float) -> float:
        """Factor that takes a time measured at `t` to nominal host speed."""
        return NOMINAL_PROBE_MS / self.local_ms(t)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1000.0
