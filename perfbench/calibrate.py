"""Host-speed calibration, so end-to-end times survive machine-speed drift.

On a shared host the same op can run 1.5x slower for minutes at a time while
neighbours load the cores; CPU time rises with wall time, so the drift is
host speed, not scheduling. The benchmark therefore times one calibration
pass on either side of each op and scales the op's wall time by
REFERENCE_S / mean pass time. The pass is interpreter arithmetic plus
small-array NumPy work, the mix the simulator runs; it makes no BLAS call,
whose threads stall under contention, and runs no flowcache_sim code, so a
change to the program moves the scaled time exactly as it moves the raw one.
Reported times are seconds on a host where one pass takes REFERENCE_S.
"""

import time

import numpy as np

# one pass takes 3.5-6.5 ms on a 2-core 2.0 GHz x86 host, by neighbour load
REFERENCE_S = 0.005

_LATENT = np.random.default_rng(0).standard_normal((8, 4, 6, 6))


def _interpreter_work() -> int:
    s = 0
    for i in range(30000):
        s += (i * i) % 7
    return s


def _array_work() -> np.ndarray:
    x = _LATENT.copy()
    for _ in range(150):
        v = -(x - _LATENT * 0.5) * 0.25
        x = x + v * 0.01
        float(np.abs(v).sum())
    return x


def pass_seconds() -> float:
    """Wall time of one calibration pass."""
    t0 = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - t0


def scale(seconds: float, pass_s: float) -> float:
    """``seconds`` measured next to a pass of ``pass_s``, at reference speed."""
    return seconds * REFERENCE_S / pass_s
