import base64
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import (PROFILES, CostModel, KVPlan, PowerLawSchedule,
                           ReusePolicy, SceneConfig, build_objects, import_trace,
                           l1rel_curves, resolve_config, run_denoise, speedup,
                           trajectory)
from flowcache_sim.errors import InvalidComparison, InvalidInput
from flowcache_sim.trace import COLUMNS, DECISIONS, ChunkStepRecord, curves_csv

GOLDEN = Path(__file__).parent / "data" / "golden_magi_fast.json"


def magi_fast_run():
    scene = SceneConfig(num_chunks=10, window=4, shape=(8, 4, 6, 6), seed=0)
    sched = PowerLawSchedule(power=0.25, steps=64)
    return run_denoise(scene, sched, policy=ReusePolicy(0.015, 5))


def tiny_run(policy=ReusePolicy(0.05, 2), seed=1, **kv_kw):
    scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3), seed=seed)
    sched = PowerLawSchedule(power=0.25, steps=8)
    return run_denoise(scene, sched, policy=policy,
                       kv=KVPlan(budget_chunks=2, **kv_kw))


HUGE = "99999999999999999999"   # an int key beyond int64


def column(payload, table, name) -> np.ndarray:
    """One trace.json column, decoded (a writable copy)."""
    raw = base64.b64decode(payload[table][name], validate=True)
    return np.frombuffer(raw, COLUMNS[table][name]).copy()


def recode(table, name, change):
    """A payload mutation: decode one column, ``change`` it, encode the result
    (an array, or raw bytes)."""
    def mutate(payload):
        out = change(column(payload, table, name))
        raw = out if isinstance(out, bytes) else out.tobytes()
        payload[table][name] = base64.b64encode(raw).decode()
    return mutate


def put(index, value):
    """A column change that sets one element."""
    def change(values):
        values[index] = value
        return values
    return change


class TestExport:
    def test_round_trip_hash(self):
        trace = tiny_run()
        back = import_trace(trace.to_json())
        assert back.content_hash == trace.content_hash

    def test_round_trip_is_lossless(self):
        trace = tiny_run()
        again = import_trace(trace.to_json())
        assert again.to_json() == trace.to_json()
        # null estimates come back as None
        assert list(again.records) == list(trace.records)

    def test_non_canonical_base64_rejected(self):
        # "8=" and "9=" decode alike: they differ only in bits the padding leaves unused
        payload = json.loads(tiny_run().to_json())
        text = payload["steps"]["flops"]
        assert text.endswith("8=")
        payload["steps"]["flops"] = text[:-2] + "9="
        with pytest.raises(InvalidInput,
                           match=r"^trace\.steps\.flops is not canonical base64$"):
            import_trace(payload)

    def test_missing_field_names_its_path(self):
        payload = json.loads(tiny_run().to_json())
        del payload["steps"]["flops"]
        with pytest.raises(InvalidInput, match=r"^trace\.steps\.flops is missing$"):
            import_trace(payload)
        payload = json.loads(tiny_run().to_json())
        del payload["chunk_steps"]["metric"]
        with pytest.raises(InvalidInput,
                           match=r"^trace\.chunk_steps\.metric is missing$"):
            import_trace(payload)
        del payload["chunk_steps"]
        with pytest.raises(InvalidInput, match=r"^trace\.chunk_steps is missing$"):
            import_trace(payload)

    def test_embedded_config_is_validated(self):
        payload = json.loads(tiny_run().to_json())
        del payload["config"]["schedule"]["steps"]
        with pytest.raises(InvalidInput,
                           match=r"trace\.config\.schedule\.steps is missing"):
            import_trace(payload)
        payload = json.loads(tiny_run().to_json())
        payload["config"]["scene"]["shape"] = [4, 2, 3]
        with pytest.raises(InvalidInput, match=r"trace\.config\.scene\.shape"):
            import_trace(payload)
        payload["config"] = [1]
        with pytest.raises(InvalidInput, match=r"trace\.config\.scene is missing"):
            import_trace(payload)

    @pytest.mark.parametrize("text", ["[1]", '{"schema_version": 1',
                                      '{"schema_version": 2}',
                                      '{"schema_version": 3}'])
    def test_non_trace_text_rejected(self, text):
        with pytest.raises(InvalidInput):
            import_trace(text)

    def test_schema_v1_text_rejected(self):
        # v1: indent-1 JSON with final latents as decimal lists
        trace = tiny_run()
        payload = json.loads(trace.to_json())
        payload["schema_version"] = payload["config"]["schema_version"] = 1
        payload["final_latents"] = {str(k): v.ravel().tolist()
                                    for k, v in trace.final_latents.items()}
        with pytest.raises(InvalidInput, match="unsupported trace schema 1"):
            import_trace(json.dumps(payload, indent=1, sort_keys=True))

    def test_schema_v2_text_rejected(self):
        # v2: one JSON object per step and per chunk-step, no_op in compressions
        trace = tiny_run()
        payload = json.loads(trace.to_json())
        payload["schema_version"] = payload["config"]["schema_version"] = 2
        payload["records"] = [{**vars(r), "chunks": [vars(c) for c in r.chunks]}
                              for r in trace.records]
        del payload["steps"], payload["chunk_steps"]
        for rep in payload["compressions"]:
            rep["no_op"] = False
        with pytest.raises(InvalidInput, match="^unsupported trace schema 2$"):
            import_trace(json.dumps(payload))

    def test_truncated_final_latent_rejected(self):
        payload = json.loads(tiny_run().to_json())
        raw = base64.b64decode(payload["final_latents"]["2"])
        payload["final_latents"]["2"] = base64.b64encode(raw[:-8]).decode()
        with pytest.raises(InvalidInput,
                           match=r"^trace\.final_latents\.2 has 71 values; 72 expected$"):
            import_trace(payload)

    def test_final_latents_are_little_endian_float64_base64(self):
        trace = tiny_run()
        payload = json.loads(trace.to_json())
        assert sorted(payload["final_latents"]) == ["1", "2", "3"]
        for k, text in payload["final_latents"].items():
            assert base64.b64decode(text, validate=True) == (
                trace.final_latents[int(k)].astype("<f8").tobytes())

    def test_compact_json(self):
        text = tiny_run().to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))

    @pytest.mark.parametrize("profile,noise_scale", [
        *[(name, 0.0) for name in sorted(PROFILES)], ("magi-fast", 0.05)],
        ids=[*sorted(PROFILES), "magi-fast-noise-0.05"])
    def test_profile_round_trip(self, profile, noise_scale):
        cfg = resolve_config(profile=profile)
        cfg["noise_scale"] = noise_scale
        scene, sched, policy, kv, cost, noise = build_objects(cfg)
        trace = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost,
                            noise_scale=noise)
        text = trace.to_json()
        back = import_trace(text)
        assert back.content_hash == trace.content_hash
        assert back.to_json() == text

    @pytest.mark.parametrize("mutate,path", [
        (lambda p: p["chunk_steps"].update(compute=5),
         r"^trace\.chunk_steps\.compute must be a base64 string$"),
        (lambda p: p["chunk_steps"].update(compute=None),
         r"^trace\.chunk_steps\.compute must be a base64 string$"),
        (lambda p: p["compressions"][0].update(heads=[]),
         r"compressions\[0\]\.heads must be an object"),
        (lambda p: p.update(final_latents=[]), r"trace\.final_latents is missing"),
        (lambda p: p.pop("final_latents"), r"trace\.final_latents is missing"),
        (lambda p: p["compressions"][0].update(global_step=2**70),
         r"compressions\[0\]\.global_step must be an int64"),
        (lambda p: p["compressions"][0]["heads"]["1"].update(retained_ids=[2**70]),
         r"compressions\[0\]\.heads\.1\.retained_ids must be a list of int64s"),
        (lambda p: p["compressions"][0]["heads"].update({HUGE: {}}),
         rf"trace\.compressions\[0\]\.heads\.{HUGE} key must be an int64"),
        (lambda p: p["compressions"][0]["heads"].update({"x": {}}),
         r"trace\.compressions\[0\]\.heads\.x key must be an int64"),
        (lambda p: p["final_latents"].update({HUGE: p["final_latents"]["1"]}),
         rf"trace\.final_latents\.{HUGE} key must be an int64"),
        (lambda p: p["final_latents"].update({"2": [0.0] * 72}),
         r"trace\.final_latents\.2 must be a base64 string"),
        (lambda p: p["final_latents"].update({"2": "*" + p["final_latents"]["2"][1:]}),
         r"trace\.final_latents\.2 is not valid base64"),
        (lambda p: p["final_latents"].update({"2": " " + p["final_latents"]["2"]}),
         r"trace\.final_latents\.2 is not valid base64"),
        # unhashed fields: the hash alone would not catch these
        (lambda p: p["compressions"][0]["heads"]["0"].update(score_min=math.nan),
         r"^trace\.compressions\[0\]\.heads\.0\.score_min must be a finite number$"),
        (recode("chunk_steps", "estimate", put(1, math.inf)),
         r"^trace\.chunk_steps\.estimate must hold finite values or NaN$"),
        (recode("chunk_steps", "estimate", put(1, -math.inf)),
         r"^trace\.chunk_steps\.estimate must hold finite values or NaN$"),
        (recode("chunk_steps", "metric", put(0, math.nan)),
         r"^trace\.chunk_steps\.metric must hold finite values$"),
        (recode("chunk_steps", "metric", lambda v: v[:-1]),
         r"^trace\.chunk_steps\.metric has 23 values; 24 expected$"),
        (recode("steps", "flops", lambda v: v.tobytes()[:-3]),
         r"^trace\.steps\.flops has 125 bytes, not a multiple of 8$"),
        (lambda p: p["steps"].update(flops=" " + p["steps"]["flops"]),
         r"^trace\.steps\.flops is not valid base64$"),
        (lambda p: p["steps"].update(flops=p["steps"]["flops"][:-1]),
         r"^trace\.steps\.flops is not valid base64$"),
        (recode("chunk_steps", "compute", put(0, 2)),
         r"^trace\.chunk_steps\.compute must hold 0 or 1$"),
        (recode("steps", "chunk_count", put(0, 2)),
         r"^trace\.steps\.chunk_count must be counts that sum to the 24 "
         r"chunk-step rows$"),
        # the same sum, with step 0's count made -1
        (recode("steps", "chunk_count",
                lambda v: np.r_[-1, v[1] + v[0] + 1, v[2:]].astype(v.dtype)),
         r"^trace\.steps\.chunk_count must be counts that sum to the 24 "
         r"chunk-step rows$"),
        (lambda p: p["steps"].update(chunk_count=[1] * 16),
         r"^trace\.steps\.chunk_count must be a base64 string$"),
        (lambda p: p.update(steps=[]),
         r"^malformed trace\.steps: "),
        (lambda p: p["totals"].update(computed_steps=999),
         r"^trace\.totals\.computed_steps is 999; the records give 21$"),
        (lambda p: p["totals"].pop("total_flops"),
         r"^trace\.totals\.total_flops is missing$"),
        (lambda p: p["config"]["scene"].update(extra=1),
         r"^trace\.config\.scene\.extra is not a config field$"),
        (lambda p: p["config"].update(schema_version=7),
         r"^trace\.config\.schema_version must be 3$"),
    ], ids=["decision-int", "decision-none", "heads-list", "finals-list",
            "finals-missing", "global-step-huge", "retained-id-huge",
            "head-key-huge", "head-key-text", "finals-key-huge",
            "finals-list-latent", "finals-not-base64", "finals-space-base64",
            "score-min-nan", "estimate-inf", "estimate-minus-inf", "metric-nan",
            "column-truncated", "column-odd-bytes", "column-space-base64",
            "column-unpadded-base64", "compute-2", "chunk-count-sum",
            "chunk-count-negative", "chunk-count-list", "steps-list",
            "totals-forged", "totals-missing", "config-scene-extra",
            "config-schema-7"])
    def test_mutated_field_names_its_path(self, mutate, path):
        payload = json.loads(tiny_run().to_json())
        mutate(payload)
        with pytest.raises(InvalidInput, match=path):
            import_trace(payload)

    def test_int_valued_float_field_round_trips(self):
        # a config may give a float knob as an int; resident_bytes is then one
        scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3), seed=1)
        trace = run_denoise(scene, PowerLawSchedule(power=0.25, steps=8),
                            cost=CostModel(bytes_per_kv_token=256))
        text = trace.to_json()
        assert column(json.loads(text), "steps", "resident_bytes")[0] == (
            next(trace.records).resident_bytes)
        back = import_trace(text)
        assert back.content_hash == trace.content_hash
        assert back.to_json() == text

    def test_zero_reuse_export(self):
        trace = tiny_run(policy=ReusePolicy(0.0, 0))
        payload = json.loads(trace.to_json())
        assert set(column(payload, "chunk_steps", "compute")) == {1}
        assert payload["totals"]["reused_steps"] == 0

    def test_totals_account_every_slot(self):
        trace = tiny_run()
        slots = sum(len(r.chunks) for r in trace.records)
        assert (trace.totals.computed_steps + trace.totals.reused_steps
                == slots)

    def test_golden_fixture_byte_exact(self):
        # regenerate with FLOWCACHE_SIM_REGEN_GOLDEN=1 after a reviewed change
        trace = magi_fast_run()
        payload = trace.to_json()
        if os.environ.get("FLOWCACHE_SIM_REGEN_GOLDEN") == "1":
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(payload)
        assert GOLDEN.exists(), "golden fixture missing; regenerate"
        assert payload == GOLDEN.read_text()


class TestRecordsView:
    def test_view_of_imported_columns_matches_trajectory_events(self):
        scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3), seed=1)
        sched = PowerLawSchedule(power=0.25, steps=8)
        policy = ReusePolicy(0.05, 2)
        events = [(g, [ChunkStepRecord(chunk, local_step, DECISIONS[compute], metric,
                                       accumulator, None if math.isnan(e) else e)
                       for chunk, local_step, compute, metric, accumulator, e in rows])
                  for g, rows, _, _ in trajectory(scene, sched, policy, 0.0)]
        records = list(import_trace(run_denoise(scene, sched, policy=policy).to_json()).records)
        assert len(records) == len(events) == 16
        assert [(r.global_step, r.chunks) for r in records] == events
        estimates = [c.estimate for r in records for c in r.chunks]
        assert estimates[0] is None and None in estimates[1:]
        assert all(e is None or type(e) is float for e in estimates)


class TestSpeedup:
    def test_identity(self):
        trace = tiny_run(policy=ReusePolicy(0.0, 0))
        assert speedup(trace, trace) == 1.0

    def test_half_steps_reused_no_attention(self):
        # with attention cost zeroed, flops count computed steps only, so
        # halving computed steps doubles the speedup
        from flowcache_sim import CostModel
        scene = SceneConfig(num_chunks=2, window=1, shape=(4, 2, 3, 3), seed=5)
        sched = PowerLawSchedule(power=0.25, steps=8)
        cost = CostModel(flops_per_chunk_forward=1.0,
                         flops_per_kv_token_pair=0.0)
        baseline = run_denoise(scene, sched, policy=ReusePolicy(0.0, 0),
                               cost=cost)
        trace = run_denoise(scene, sched, policy=ReusePolicy(1e9, 0),
                            cost=cost)
        computed = trace.totals.computed_steps
        assert speedup(trace, baseline) == pytest.approx(
            baseline.totals.computed_steps / computed)

    def test_mismatched_configs_rejected(self):
        a = tiny_run(seed=1)
        b_scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3),
                              seed=2)
        b = run_denoise(b_scene, PowerLawSchedule(power=0.25, steps=8),
                        policy=ReusePolicy(0.05, 2))
        with pytest.raises(InvalidComparison):
            speedup(a, b)


class TestCurves:
    def test_single_chunk_series_shape(self):
        scene = SceneConfig(num_chunks=1, window=1, shape=(4, 2, 3, 3), seed=0)
        sched = PowerLawSchedule(power=0.25, steps=16)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.015, 5))
        curves = l1rel_curves(trace)
        assert set(curves) == {1}
        assert len(curves[1]) == 16
        progress = [p for p, _ in curves[1]]
        assert progress[0] == 0.0 and progress[-1] < 100.0

    def test_csv_contains_every_step(self):
        trace = tiny_run()
        text = curves_csv(trace)
        rows = text.strip().splitlines()
        slots = sum(len(r.chunks) for r in trace.records)
        assert len(rows) == slots + 2   # schema line + header

    def test_metric_series_non_decreasing_for_ideal_run(self):
        trace = magi_fast_run()
        for series in l1rel_curves(trace).values():
            metrics = [m for _, m in series]
            assert all(b >= a - 1e-12 for a, b in zip(metrics, metrics[1:]))


class TestDeterminism:
    def test_same_seed_same_hash(self):
        assert tiny_run(seed=7).content_hash == tiny_run(seed=7).content_hash

    def test_different_seed_different_hash(self):
        assert tiny_run(seed=7).content_hash != tiny_run(seed=8).content_hash

    def test_rerun_from_embedded_config_snapshot(self):
        from flowcache_sim import build_objects, run_denoise

        trace = tiny_run(seed=4)
        scene, sched, policy, kv, cost, noise = build_objects(trace.config)
        again = run_denoise(scene, sched, policy=policy, kv=kv, cost=cost,
                            noise_scale=noise)
        assert again.content_hash == trace.content_hash


def test_compression_never_raises_peak_bytes():
    scene = SceneConfig(num_chunks=8, window=2, shape=(4, 2, 3, 3), seed=2)
    sched = PowerLawSchedule(power=0.25, steps=16)
    compressed = run_denoise(scene, sched, policy=None,
                             kv=KVPlan(budget_chunks=3))
    unbounded = run_denoise(scene, sched, policy=None,
                            kv=KVPlan(budget_chunks=None))
    assert (compressed.totals.peak_resident_bytes
            <= unbounded.totals.peak_resident_bytes)
    assert (compressed.totals.peak_resident_tokens
            < unbounded.totals.peak_resident_tokens)


def json_paths(node, prefix=()):
    """Every key/index path below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


TINY_JSON = tiny_run().to_json()
TINY_PATHS = list(json_paths(json.loads(TINY_JSON)))
ODD_VALUES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.floats(),
    st.just(float("nan")), st.integers(2**63, 2**80), st.integers(-2**80, -2**63 - 1),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(TINY_PATHS), value=ODD_VALUES)
def test_mutated_trace_imports_or_raises_invalid_input(path, value):
    # one field set to an odd value: the same hash or InvalidInput, nothing else
    payload = json.loads(TINY_JSON)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        back = import_trace(payload)
    except InvalidInput:
        return
    assert back.content_hash == json.loads(TINY_JSON)["content_hash"]


ELEMENTS = st.one_of(   # eight little-endian bytes; a u1 column takes the first
    st.binary(min_size=8, max_size=8),
    st.floats().map(lambda x: np.float64(x).tobytes()),
    st.integers(-2**63, 2**63 - 1).map(lambda i: i.to_bytes(8, "little", signed=True)))


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from([(t, n) for t in COLUMNS for n in COLUMNS[t]]),
       index=st.integers(0, 2**16), element=ELEMENTS)
def test_mutated_column_imports_or_raises_invalid_input(where, index, element):
    # one column element set to other bytes: the same hash or InvalidInput
    def change(values):
        size = values.itemsize
        at = index % len(values) * size
        values.view("u1")[at:at + size] = np.frombuffer(element[:size], "u1")
        return values

    payload = json.loads(TINY_JSON)
    recode(*where, change)(payload)
    try:
        back = import_trace(payload)
    except InvalidInput:
        return
    assert back.content_hash == json.loads(TINY_JSON)["content_hash"]
