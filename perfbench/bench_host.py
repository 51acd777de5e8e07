"""The host's speed, timed with a fixed piece of work the program never runs.

The benchmark's host is shared, and its speed follows the load of the
other tenants: by up to 1.8x within seconds, and by 1.3-1.6x for minutes
at a time.  Every op of the program follows it.  Before each timed op
(and each set-up spawn) the benchmark runs `calibrate`, a fixed mix of
interpreter steps and small numpy calls like the program's own.  Its time
moves with the host's speed and not with the program, so scaling a run's
times by REFERENCE_S over the run's median calibration time reports them
at one host speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the reference host speed: the one at which calibrate() takes 1 ms
REFERENCE_S = 1.0e-3

_X = np.linspace(0.0, 1.0, 64)


def calibrate() -> float:
    """Seconds taken by the fixed work, about REFERENCE_S."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200):
        acc += float(np.dot(_X, _X))
        y = i * 1.000001
        for j in range(40):
            acc += y * j
    return time.perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """A time measured while calibrate() took `samples`, times this scale,
    is that time at the reference host speed."""
    return REFERENCE_S / statistics.median(samples)
