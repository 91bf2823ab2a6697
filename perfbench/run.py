"""flowcache-sim benchmark: one workload at one seed, as a closed loop of ops.

Usage:
    python3 perfbench/run.py --workload cli-run|cli-sweep|trajectory-long
        [--seed N] [--seconds S] [--trace 0|1]

A single-threaded load generator calls the program's public entry points in
process, one op after another, until the ops have taken ``--seconds`` of
wall time (and at least MIN_OPS ops ran). Every op's output is checked
outside its timed region; an exception or a mismatch counts the op as
failed. Run from the repository root; flowcache_sim is imported from
``src/`` of that checkout and from nowhere else.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
median and tail wall time per op, delivered chunk-steps per second, set-up
time (median over fresh interpreters) and the median tracemalloc peak of
one op.
Times are scaled to reference host speed by a calibration pass timed next
to each op and each set-up (calibrate.py); the unscaled host times are
printed beside them and kept in the result file.
``--trace 1`` alternates untraced ops with ops traced by ``tracing.Tracer``
and reports the per-layer metrics plus the tracing overhead.

Thread and BLAS variables are recorded as found and never set, so the sweep
runs under the program's default pool. The last stdout line is the JSON
result; a copy with the environment and the tail's percentile goes to
``perfbench/out/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("FLOWCACHE_SIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_OPS = 21            # so the tail has at least ten samples beyond it
MIN_TRACED_OPS = 5
SETUP_RUNS = 9
PEAK_RUNS = 7          # the sweep's peak varies with how its pool interleaves


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import flowcache_sim
    except ImportError as exc:
        sys.exit(f"cannot import flowcache_sim from {ROOT / 'src'}: {exc}")
    where = Path(flowcache_sim.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        sys.exit(f"flowcache_sim imported from {where}, not from this checkout")


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.25 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def attempt(workload, i, tracer=None):
    """Run and check op ``i``; return (op seconds, failure message or None)."""
    t0 = time.perf_counter()
    try:
        with tracer.op(i) if tracer else nullcontext():
            t0 = time.perf_counter()
            result = workload.op()
            seconds = time.perf_counter() - t0
    except Exception as exc:   # a failed op is counted, not fatal
        return time.perf_counter() - t0, f"op {i}: {exc!r}"
    try:
        with tracer.op(("check", i), "check") if tracer else nullcontext():
            workload.check(result)
    except Exception as exc:
        return seconds, f"check {i}: {exc!r}"
    return seconds, None


class Ops:
    """Op durations and failures of one run.

    ``scaled`` holds the durations of ops timed next to a calibration pass,
    scaled to reference host speed (see calibrate.py).
    """

    def __init__(self):
        self.durations: list[float] = []   # successful ops only
        self.scaled: list[float] = []
        self.spent = 0.0                   # all ops, failed ones too
        self.spent_scaled = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, seconds, failure, pass_s=None) -> None:
        self.attempted += 1
        self.spent += seconds
        if pass_s is not None:
            self.spent_scaled += calibrate.scale(seconds, pass_s)
        if failure is None:
            self.durations.append(seconds)
            if pass_s is not None:
                self.scaled.append(calibrate.scale(seconds, pass_s))
        else:
            self.failures.append(failure)


def tail(durations) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of each of SETUP_RUNS fresh interpreters: (raw, scaled)."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60).stdout
        setup_s, pass_s = map(float, out.split())
        raw.append(setup_s)
        scaled.append(calibrate.scale(setup_s, pass_s))
    return raw, scaled


def peak_alloc_mb(workload, ops: Ops) -> float:
    """Median tracemalloc peak of PEAK_RUNS ops, in a pass of their own
    because tracemalloc slows the NumPy-heavy code it watches."""
    peaks = []
    for i in range(PEAK_RUNS):
        tracemalloc.start()
        try:
            seconds, failure = attempt(workload, f"peak-{i}")
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        ops.add(seconds, failure)
    return statistics.median(peaks)


def end_to_end(workload, run_seconds: float, ops: Ops) -> tuple[dict, dict]:
    setup_raw, setup = setup_seconds(workload.name, workload.seed)
    ops.add(*attempt(workload, "warm-up"))
    timed = Ops()
    before = calibrate.pass_seconds()
    while timed.spent < run_seconds or timed.attempted < MIN_OPS:
        seconds, failure = attempt(workload, timed.attempted)
        after = calibrate.pass_seconds()
        # the passes on either side of the op estimate host speed during it
        timed.add(seconds, failure, pass_s=(before + after) / 2)
        before = after
    ops.attempted += timed.attempted
    ops.failures += timed.failures
    peak = peak_alloc_mb(workload, ops)
    ok = len(timed.durations)
    walls = timed.scaled or [timed.spent_scaled / timed.attempted]
    raw = timed.durations or [timed.spent / timed.attempted]
    tail_s, pct = tail(walls)
    metrics = {
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": tail_s,
        "chunk_steps_per_s": workload.chunk_steps * ok / timed.spent_scaled,
        "setup_s": statistics.median(setup),
        "peak_alloc_mb": peak,
    }
    host = {
        "wall_s_p50": statistics.median(raw),
        "wall_s_tail": tail(raw)[0],
        "chunk_steps_per_s": workload.chunk_steps * ok / timed.spent,
        "setup_s": statistics.median(setup_raw),
    }
    notes = {name: f"host {value:.6g}" for name, value in host.items()}
    notes["wall_s_tail"] += f", p{pct:.1f} of {len(walls)} ops"
    notes["setup_s"] += f", median of {len(setup)} fresh interpreters"
    notes["chunk_steps_per_s"] += f", {workload.chunk_steps} chunk-steps per op"
    extra = {"host": host, "wall_s_tail_percentile": pct, "wall_samples": len(walls),
             "setup_host_s": setup_raw, "setup_scaled_s": setup,
             "durations_host_s": timed.durations, "durations_scaled_s": timed.scaled}
    return metrics, {"notes": notes, **extra}


def per_layer(workload_cls, seed: int, run_seconds: float, out_dir: Path,
              ops: Ops, spans_path: Path) -> tuple[dict, dict]:
    import tracing
    tracer = tracing.Tracer()
    with tracer.op("setup", "setup"):
        workload = workload_cls(seed, out_dir)
    ops.add(*attempt(workload, "warm-up"))
    plain, traced = Ops(), Ops()
    i = 0
    while (plain.spent + traced.spent < run_seconds
           or traced.attempted < MIN_TRACED_OPS):
        if i % 2:
            traced.add(*attempt(workload, i, tracer))
        else:
            plain.add(*attempt(workload, i))
        i += 1
    for side in (plain, traced):
        ops.attempted += side.attempted
        ops.failures += side.failures
    traced_ops = [s[tracing.OP] for s in tracer.spans if s[tracing.NAME] == "op"]
    metrics = tracing.layer_metrics(tracer.spans, traced_ops)
    untraced_p50 = statistics.median(plain.durations or [0.0])
    traced_p50 = statistics.median(traced.durations or [0.0])
    metrics.update({"bench.wall_s_p50_untraced": untraced_p50,
                    "bench.wall_s_p50_traced": traced_p50,
                    "bench.trace_overhead_s": traced_p50 - untraced_p50})
    tracer.write(spans_path)
    notes = {"bench.trace_overhead_s":
             f"{len(traced.durations)} traced vs {len(plain.durations)} untraced ops"}
    return metrics, {"notes": notes, "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    workload_cls = workloads.WORKLOADS[args.workload]

    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = Ops()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            declared = spec["per_layer"]
            measured, record = per_layer(workload_cls, args.seed, args.seconds,
                                         Path(tmp), ops, OUT / f"spans-{stem}.csv.gz")
            measured = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
        else:
            declared = spec["end_to_end"]
            measured, record = end_to_end(workload_cls(args.seed, Path(tmp)),
                                          args.seconds, ops)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        note = record["notes"].get(name, "")
        print(f"{name:<30} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    failed = len(ops.failures)
    print(f"{'failed_ratio':<30} {failed / ops.attempted:>14.6g} ratio  "
          f"{failed} of {ops.attempted} ops")
    for failure in ops.failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": ops.attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "failed_ratio": failed / ops.attempted, "env": env,
         "failures": ops.failures, **record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
