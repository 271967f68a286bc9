"""A fixed pure-Python probe of how fast the host runs Python right now.

On a few cores of a shared host the speed one process gets drifts by
tens of percent over minutes, so raw op times of two runs of the same
code differ by more than a change worth catching. ``probe`` times a fixed
piece of stdlib work (rational and float arithmetic, list and dict
building, JSON text: the kinds of work the package does) that shares no
code with the package. The benchmark runs it before every op and scales
the run's times by ``speed_factor``: the host's drift cancels, while a
change to the package's own code still moves every op time in full.

``REFERENCE_S`` fixes the unit: a normalised time reads as the time the
same work takes on a host where one probe takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import gc
import json
import math
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010
# Runs of the piece of work in one probe: a probe takes about
# REFERENCE_S, short next to an op.
REPEATS = 20


def _work() -> int:
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(k, k + 1) * Fraction(3, 2 * k + 1)
    xs = [math.exp(-0.01 * i) * math.sqrt(i + 1.0) for i in range(400)]
    sums = {}
    for i, x in enumerate(xs):
        sums[i % 31] = sums.get(i % 31, 0.0) + x
    rows = [[str(Fraction(i * j + 1, j + 2)) for j in range(8)] for i in range(12)]
    return len(json.dumps({"total": str(total), "sums": sums, "rows": rows}))


def probe() -> float:
    """Seconds for one fixed piece of work, with the cyclic collector off
    so the package's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REPEATS):
            _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: list[float]) -> float:
    """REFERENCE_S over the mean probe time: multiply a time taken while
    the probes ran by it to normalise it."""
    return REFERENCE_S * len(probes) / sum(probes)
