"""Print the outputs the benchmark pins, one op per workload and seed.

Usage: python3 perfbench/pin.py SEED... > perfbench/pins.json

Regenerating pins is a reviewed act, like regenerating a golden file: the
pins hold each workload's content hash (or sweep CSV rows) at the seeds
listed, and the benchmark fails every op whose output differs from them.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

pins = {}
with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
    for name, cls in workloads.WORKLOADS.items():
        for seed in sys.argv[1:]:
            workload = cls(int(seed), Path(tmp))
            result = workload.op()
            value, traces = workload.observe(result)
            for trace in traces:
                workloads.check_invariants(trace)
            pins.setdefault(name, {})[seed] = value
print(json.dumps(pins, indent=1))
