"""What the benchmark reads of the package must keep working.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` it lists with a
timing wrapper, and ``perfbench/workloads.py`` checks each op's traces by
iterating ``trace.records``. A rename in the package, or a change to what
``records`` yields, would otherwise only surface when ``perfbench/run.py``
runs, so these tests check both up front.
"""

import gc
import importlib.util
from pathlib import Path

from flowcache_sim import (PowerLawSchedule, ReusePolicy, SceneConfig, build_objects,
                           resolve_config, run_denoise)
from flowcache_sim.trace import ChunkStepRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def magi_fast_run(**kv):
    cfg = resolve_config(profile="magi-fast")
    cfg["kv"].update(kv)
    scene, sched, policy, kv_plan, cost, noise = build_objects(cfg)
    return run_denoise(scene, sched, policy=policy, kv=kv_plan, cost=cost,
                       noise_scale=noise)


def test_every_traced_binding_exists():
    targets = load("tracing").targets()
    assert targets
    for name, bindings, _note in targets:
        for owner, attr in bindings:
            assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"


def test_benchmark_invariant_check_reads_records():
    check_invariants = load("workloads").check_invariants
    compressed, uncompressed = magi_fast_run(), magi_fast_run(budget_chunks=None)
    assert compressed.compressions and not uncompressed.compressions
    for trace in (compressed, uncompressed):
        check_invariants(trace)


def test_records_build_one_step_at_a_time():
    # the benchmark's peak-allocation pass times the op and its check together
    scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
    trace = run_denoise(scene, PowerLawSchedule(power=1.0, steps=6), ReusePolicy(0.015, 1))
    gc.collect()
    before = sum(type(o) is ChunkStepRecord for o in gc.get_objects())
    records = iter(trace.records)   # kept alive, as a check's loop keeps it
    first = next(records)
    live = sum(type(o) is ChunkStepRecord for o in gc.get_objects()) - before
    assert live == len(first.chunks) <= scene.window
