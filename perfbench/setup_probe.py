"""Time one benchmark set-up in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Covers importing flowcache_sim (and its CLI for the CLI workloads) plus
resolve_config and build_objects for the workload's config. Prints the
set-up seconds and then the seconds of one calibration pass (calibrate.py),
timed after the set-up so that its NumPy import is not counted twice.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports no part of flowcache_sim)

t0 = time.perf_counter()
workloads.configure(sys.argv[1], int(sys.argv[2]))
setup_s = time.perf_counter() - t0

import calibrate  # noqa: E402

calibrate.pass_seconds()   # the first pass pays one-off costs
print(setup_s, statistics.median(calibrate.pass_seconds() for _ in range(3)))
