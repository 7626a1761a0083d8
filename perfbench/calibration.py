"""Machine-speed calibration: a fixed slice of work run between cases.

On a 2-core Xeon VM whose cores other tenants also use, the speed of the
same single-threaded Python code drifts by up to a factor of 1.8 over
minutes. Timing a fixed slice of fbk-independent work right after every
case and scaling each time by NOMINAL_SLICE_MS / (slice time) cancels most
of that drift: over 20 s windows the spread of round times fell from 17% to
3% (scenarios), 13% to 2% (lift-generic) and 36% to 3% (link-files).
A case time is scaled by the slices just before and after it, set-up time
by slices run right after set-up. Scaled times are in milliseconds of a
machine on which one slice takes NOMINAL_SLICE_MS; raw times are kept in
the run record.

The slice mixes small numpy products with Python float and dict work, like
fbk itself. It must never change: changing it rescales every metric.
"""

from __future__ import annotations

import time

import numpy as np

# Typical slice time on that 2-core Xeon VM.
NOMINAL_SLICE_MS = 1.25
# Slices timed right after a set-up or an import, to scale its time.
SETUP_SLICES = 20

_A = np.arange(16.0).reshape(4, 4) / 10.0
_EYE = np.eye(4)


def reference_slice() -> float:
    total = 0.0
    table: dict[int, float] = {}
    M = _EYE
    for i in range(400):
        M = M @ _A * 0.5 + _EYE
        total += float(M[0, 0])
        for j in range(10):
            k = (i * j) & 255
            table[k] = table.get(k, 0.0) + total * 1e-9
    return total


def timed_slice() -> float:
    """Seconds one reference slice takes now, with warm caches.

    An untimed slice runs first, so that what the case before it left in
    the caches does not change the time: otherwise a change to fbk that
    touches more memory would slow the slice and rescale its own metrics.
    """
    reference_slice()
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


def scale(slice_seconds: list) -> float:
    """Factor that turns measured times into nominal-machine times."""
    return NOMINAL_SLICE_MS / (1e3 * sum(slice_seconds) / len(slice_seconds))
