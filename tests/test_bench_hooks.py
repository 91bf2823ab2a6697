"""What the benchmark reads of the package must keep working.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` it lists with a
timing wrapper, and ``perfbench/workloads.py`` checks each op's traces by
iterating ``trace.records``: each ``StepRecord``'s ``chunks`` (its chunk-step
rows) and ``resident_tokens``. These are the only tests that read ``records``;
they pin it to the ``steps`` and ``chunk_steps`` columns. A rename in the
package, or a change to what ``records`` yields, would otherwise only surface
when ``perfbench/run.py`` runs, so these tests check both up front.
"""

import gc
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flowcache_sim import (PowerLawSchedule, ReusePolicy, SceneConfig, armodel,
                           build_objects, import_trace, resolve_config, run_denoise)
from flowcache_sim.trace import DTYPES, StepRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).parent / "data" / "golden_magi_fast.json"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def magi_fast_run(noise_scale=0.0, **kv):
    cfg = resolve_config(profile="magi-fast")
    cfg["kv"].update(kv)
    cfg["noise_scale"] = noise_scale
    scene, sched, policy, kv_plan, cost, noise = build_objects(cfg)
    return run_denoise(scene, sched, policy=policy, kv=kv_plan, cost=cost,
                       noise_scale=noise)


def test_every_traced_binding_exists():
    targets = load("tracing").targets()
    assert targets
    for name, bindings, _note in targets:
        for owner, attr in bindings:
            assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"


def test_every_traced_armodel_binding_is_called(monkeypatch):
    # a wrapped binding that the run no longer calls would read 0 in its span
    calls = {}
    for name, bindings, _note in load("tracing").targets():
        for owner, attr in bindings:
            if owner is armodel:
                def counted(*args, _fn=getattr(armodel, attr), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(armodel, attr, counted)
                calls[name] = 0
    assert set(calls) == {"armodel.run_denoise", "armodel.perturbed_velocity",
                          "reuse.estimate_metric", "reuse.decide", "reuse.apply"}
    cfg = resolve_config(profile="magi-fast")
    cfg["noise_scale"] = 0.05
    scene, sched, policy, kv, cost, noise = build_objects(cfg)
    armodel.run_denoise(scene, sched, policy=policy, kv=kv, cost=cost, noise_scale=noise)
    assert all(calls.values()), calls


def test_traced_run_notes_every_kv_pass():
    # the importance note unpacks (queries, keys, plan) from the positional
    # arguments, so a scratch passed positionally would break it here
    tracing = load("tracing")
    tracer = tracing.Tracer()
    with tracer.op(0):
        magi_fast_run()
    notes = [s[tracing.NOTE] for s in tracer.spans if s[tracing.NAME] == "kvcache.importance"]
    assert len(notes) == 5 and all(flop > 0 and size > 0 for flop, size in notes)
    metrics = tracing.layer_metrics(tracer.spans, [0])
    assert metrics["kvcache.importance.calls"] == 5 and metrics["kvcache.compress.calls"] == 5
    assert metrics["kvcache.importance.flop"] > 0 and metrics["kvcache.importance.bytes"] > 0


def test_benchmark_invariant_check_reads_records():
    check_invariants = load("workloads").check_invariants
    compressed, uncompressed = magi_fast_run(), magi_fast_run(budget_chunks=None)
    assert compressed.compressions and not uncompressed.compressions
    for trace in (compressed, uncompressed):
        check_invariants(trace)


@pytest.mark.parametrize("trace", [lambda: magi_fast_run(noise_scale=0.05),
                                   lambda: import_trace(GOLDEN.read_text())],
                         ids=["noisy-magi-fast", "golden"])
def test_records_are_the_columns(trace):
    # what check_invariants reads: the chunk-step rows and each step's resident tokens
    trace = trace()
    records = list(trace.records)
    rows = [row for r in records for row in r.chunks]
    assert np.array(rows, DTYPES["chunk_steps"]).tobytes() == trace.chunk_steps.tobytes()
    assert sum(len(r.chunks) for r in records) == len(trace.chunk_steps)
    resident = trace.steps["kv_clean_tokens"] + trace.steps["kv_active_tokens"]
    assert max(r.resident_tokens for r in records) == resident.max()


def test_records_build_one_step_at_a_time():
    # the benchmark's peak-allocation pass times the op and its check together
    scene = SceneConfig(num_chunks=12, window=3, shape=(4, 2, 3, 3), seed=5)
    trace = run_denoise(scene, PowerLawSchedule(power=1.0, steps=6), ReusePolicy(0.015, 1))
    gc.collect()
    before = sum(type(o) is StepRecord for o in gc.get_objects())
    records = iter(trace.records)   # kept alive, as a check's loop keeps it
    first = next(records)
    assert sum(type(o) is StepRecord for o in gc.get_objects()) - before <= 1
    assert len(first.chunks) <= scene.window


@pytest.mark.parametrize("name", load("workloads").NAMES)
def test_workload_passes_its_pinned_check(name, tmp_path):
    # the harness's own check: cli-sweep's counts cli._execute calls and their
    # argument, and every pin compares output bytes or a content hash
    workload = load("workloads").WORKLOADS[name](0, tmp_path)
    assert workload.pinned is not None
    workload.check(workload.op())


def test_noisy_run_calls_perturbed_velocity_once_per_computing_step(monkeypatch):
    # the per-layer armodel.perturbed_velocity.calls metric counts this global:
    # one call per step with a computing row, carrying that step's computing rows
    calls = []
    perturbed_velocity = armodel.perturbed_velocity

    def counted(window, rows, *args):
        calls.append([(window[r].index, window[r].local_step) for r in rows])
        return perturbed_velocity(window, rows, *args)

    monkeypatch.setattr(armodel, "perturbed_velocity", counted)
    cfg = resolve_config(profile="magi-fast")
    cfg["noise_scale"] = 0.05
    scene, sched, policy, kv, cost, noise = build_objects(cfg)
    trace = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost, noise_scale=noise)
    expected, at, partial = [], 0, False
    for count in trace.steps["chunk_count"].tolist():   # each step's rows, in index order
        step = trace.chunk_steps[at:at + count]
        at += count
        computed = step[step["compute"] == 1]
        if len(computed):
            expected.append(list(zip(computed["chunk"].tolist(), computed["local_step"].tolist())))
            partial |= len(computed) < count
    assert calls == expected and partial   # some calls leave reused rows out
