"""Host speed: a fixed calibration kernel, timed next to the workload.

A shared machine drifts in speed by tens of percent over minutes, longer
than one run, so two runs of the same code can differ by more than a
regression worth catching. Interpreter loops and numpy int64 matrix
products, the two kinds of work in gdmux, drift largely together, though
gdmux's object-heavy paths slow more than this kernel when the machine is
busy, so the scale corrects only part of such a drift. A measuring process
times the kernel before every CALIBRATE_EVERY-th request of a stream pass,
and before each survey design's warm round trips (never inside a timed
call), as if it were one more request in that slot. run.py takes each
slot's fastest pass, as it does for the requests, and scales the run's
timings by

    REFERENCE_S / (median over the slots of their fastest kernel time),

so the end-to-end figures read as on a host where the kernel takes
REFERENCE_S. The kernel is the benchmark's own code and no change to gdmux
moves it. The raw figures and the factor are printed and kept in the run's
record.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 3.0e-3
CALIBRATE_EVERY = 8

_A = np.arange(2 * 640, dtype=np.int64).reshape(2, 640) % 7
_B = np.arange(640 * 640, dtype=np.int64).reshape(640, 640) % 5


def _kernel() -> int:
    s = 0
    for i in range(24000):
        s += i * i % 7
    return s + int(((_A @ _B) % 3).sum())


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
