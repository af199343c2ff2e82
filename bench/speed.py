"""Machine-speed probe used to put wall times on a common scale.

On a shared two-core VM the same op's wall time drifts by a quarter or
more between 20-second windows, with the host's load, while a fixed short
kernel timed in the same window drifts by the same factor.  The benchmark
therefore runs this probe between ops (and between set-up spawns), for
about a tenth of the measured time, and reports every time-valued metric
as ``wall * REFERENCE_S / median(probe times)``: the wall time the op would
take on a machine where the probe takes ``REFERENCE_S``.  The raw wall
times and the factor are kept in the run's detail record.

The probe mixes interpreter work and a batched LAPACK eigensolve, like the
ops it scales.  It uses no specdist code, and it binds ``numpy.linalg.eigh``
at import, before any tracing wrappers are installed.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: Probe time that defines the reference speed; close to the probe's median
#: on the two-core VM the benchmark was tuned on.
REFERENCE_S = 0.004

#: Share of each measured interval spent probing right after it.
PROBE_SHARE = 0.1
MIN_PROBES = 3

_eigh = np.linalg.eigh
_g = np.random.default_rng(0).standard_normal((256, 8, 8))
_MATS = _g @ np.swapaxes(_g, -1, -2)


def probe():
    """Time one fixed kernel (~3-4 ms here)."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    _eigh(_MATS)
    return perf_counter() - t0


class Speed:
    """Probe samples of one measurement window."""

    def __init__(self):
        self.samples = []

    def after(self, interval_s):
        """Probe for PROBE_SHARE of ``interval_s`` (at least MIN_PROBES times);
        return the seconds spent probing."""
        start, n = perf_counter(), 0
        while n < MIN_PROBES or perf_counter() - start < PROBE_SHARE * interval_s:
            self.samples.append(probe())
            n += 1
        return perf_counter() - start

    def factor(self):
        """Multiply a wall time by this to get it at the reference speed."""
        return REFERENCE_S / median(self.samples)
