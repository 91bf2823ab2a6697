import base64
import csv
import functools
import gc
import hashlib
import json
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import (PROFILES, CostModel, KVPlan, PowerLawSchedule,
                           ReusePolicy, SceneConfig, build_objects, import_trace,
                           resolve_config, run_denoise, speedup, trajectory)
from flowcache_sim.config import _deep_merge
from flowcache_sim.errors import InvalidComparison, InvalidInput
from flowcache_sim.trace import (COLUMNS, DECISIONS, DTYPES, WINDOW_COLUMNS, RunTrace,
                                 curves_csv)

GOLDEN = Path(__file__).parent / "data" / "golden_magi_fast.json"


def magi_fast_run():
    scene = SceneConfig(num_chunks=10, window=4, shape=(8, 4, 6, 6), seed=0)
    sched = PowerLawSchedule(power=0.25, steps=64)
    return run_denoise(scene, sched, policy=ReusePolicy(0.015, 5))


def profile_run(profile, overrides=None):
    cfg = _deep_merge(resolve_config(profile=profile), overrides or {})
    scene, sched, policy, kv, cost, noise = build_objects(cfg)
    return run_denoise(scene, sched, policy=policy, kv=kv, cost=cost, noise_scale=noise)


@functools.cache
def forty_chunk_run():
    """Noisy magi-fast over 40 chunks: 688 steps, so ten full hash blocks of 64
    steps and a partial last one."""
    return profile_run("magi-fast", {"scene": {"num_chunks": 40}, "noise_scale": 0.05})


def tiny_run(policy=ReusePolicy(0.05, 2), seed=1, **kv_kw):
    scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3), seed=seed)
    sched = PowerLawSchedule(power=0.25, steps=8)
    return run_denoise(scene, sched, policy=policy,
                       kv=KVPlan(budget_chunks=2, **kv_kw))


HUGE = "99999999999999999999"   # an int key beyond int64
TINY = tiny_run()
V4_FIELD = r"^trace\.compressions is not a trace field$"
TINY_FRAME_JSON = tiny_run(key_granularity="frame").to_json()


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


def traced(fn):
    """``fn()``, the bytes it leaves allocated and its allocation peak, both
    above what was allocated before it (tracemalloc, after a collection)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - base, peak - base


def put(index, value):
    """A column change that sets one element."""
    def change(values):
        values[index] = value
        return values
    return change


def forge_column(table, name, change):
    """A payload mutation: write the window column ``name``, which the config
    fixes, into the file, ``change``d."""
    def mutate(payload):
        raw = change(getattr(TINY, table)[name].copy()).tobytes()
        payload[table][name] = base64.b64encode(raw).decode()
    return mutate


def v4_reports(trace) -> list[dict]:
    """The compression reports as schema v4 wrote them, ids as lists."""
    return [{**vars(c), "heads": {str(h): {"retained_ids": r.retained_ids.tolist(),
                                           "evicted_count": r.evicted_count}
                                  for h, r in c.heads.items()}}
            for c in trace.compressions]


def forge_v4(change):
    """A payload mutation: schema v4's compression list, ``change``d, written into
    the v5 file (every field it held now follows from the config and ``keep``)."""
    def mutate(payload):
        reports = v4_reports(TINY)
        change(reports)
        payload["compressions"] = reports
    return mutate


def keep_bits(payload) -> np.ndarray:
    """``keep``'s bits, padding included (a writable copy)."""
    return np.unpackbits(np.frombuffer(base64.b64decode(payload["keep"]), np.uint8))


def rekeep(change):
    """A payload mutation: ``change`` the bits of ``keep``, then pack them again."""
    def mutate(payload):
        payload["keep"] = base64.b64encode(np.packbits(change(keep_bits(payload)))).decode()
    return mutate


def flip(*indices):
    """A bit change that flips each bit at ``indices``, each found before any flips
    (a callable index reads the bits)."""
    def change(bits):
        bits[[index(bits) if callable(index) else index for index in indices]] ^= 1
        return bits
    return change


def first(value, head=0, candidates=54):
    """An index: head ``head``'s first bit of the first pass that reads ``value``."""
    return lambda bits: head * candidates + np.flatnonzero(
        bits[head * candidates:(head + 1) * candidates] == value)[0]


def off_group(bits, group=9):
    """The first bit after a group boundary that the bit before it differs from."""
    return next(i for i in range(group, 54, group) if bits[i - 1] != bits[i])


def on_frame_keys(mutate):
    """``mutate`` applied to the payload of the same run at frame key granularity."""
    def on_frame(payload):
        payload.update(json.loads(TINY_FRAME_JSON))
        mutate(payload)
    return on_frame


class TestExport:
    def test_round_trip_hash(self):
        trace = tiny_run()
        back = import_trace(trace.to_json())
        assert back.content_hash == trace.content_hash

    def test_round_trip_is_lossless(self):
        trace = tiny_run()
        again = import_trace(trace.to_json())
        assert again.to_json() == trace.to_json()
        # the columns come back bit for bit, NaN estimates too
        assert np.isnan(trace.chunk_steps["estimate"]).any()
        assert again.steps.tobytes() == trace.steps.tobytes()
        assert again.chunk_steps.tobytes() == trace.chunk_steps.tobytes()

    def test_round_trip_gives_read_only_int64_ids(self):
        trace = tiny_run()
        back = import_trace(trace.to_json())
        assert trace.compressions
        assert len(back.compressions) == len(trace.compressions)
        for rep, got in zip(trace.compressions, back.compressions):
            assert sorted(got.heads) == sorted(rep.heads)
            for h, head in rep.heads.items():
                ids = got.heads[h].retained_ids
                assert ids.dtype == np.int64 and not ids.flags.writeable
                np.testing.assert_array_equal(ids, head.retained_ids)

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
                                      '{"schema_version": 3}',
                                      '{"schema_version": 4}',
                                      '{"schema_version": 5}'])
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
        chunks = np.split(trace.chunk_steps, np.cumsum(trace.steps["chunk_count"])[:-1])
        payload["records"] = [
            {**dict(zip(COLUMNS["steps"], step)),
             "chunks": [dict(zip(COLUMNS["chunk_steps"], row)) for row in rows.tolist()]}
            for step, rows in zip(trace.steps.tolist(), chunks)]
        del payload["steps"], payload["chunk_steps"]
        payload["compressions"] = v4_reports(trace)
        for rep in payload["compressions"]:
            rep["no_op"] = False
        with pytest.raises(InvalidInput, match="^unsupported trace schema 2$"):
            import_trace(json.dumps(payload))

    def test_schema_v3_text_rejected(self):
        # v3: each compression head also carried the combined score's min, max and mean
        trace = tiny_run()
        payload = json.loads(trace.to_json())
        payload["schema_version"] = payload["config"]["schema_version"] = 3
        payload["compressions"] = v4_reports(trace)
        for rep in payload["compressions"]:
            for head in rep["heads"].values():
                head.update({f"score_{stat}": 0.0 for stat in ("min", "max", "mean")})
        with pytest.raises(InvalidInput, match="^unsupported trace schema 3$"):
            import_trace(json.dumps(payload))

    def test_schema_v4_text_rejected(self):
        # v4: every column, and each compression's fields and retained ids as JSON
        trace = tiny_run()
        payload = json.loads(trace.to_json())
        payload["schema_version"] = payload["config"]["schema_version"] = 4
        for table in COLUMNS:
            payload[table] = {name: base64.b64encode(getattr(trace, table)[name].tobytes()).decode()
                              for name in COLUMNS[table]}
        payload["compressions"] = v4_reports(trace)
        del payload["keep"]
        with pytest.raises(InvalidInput, match="^unsupported trace schema 4$"):
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
        pytest.param(lambda p: p["chunk_steps"].update(compute=5),
                     r"^trace\.chunk_steps\.compute must be a base64 string$", id="decision-int"),
        pytest.param(lambda p: p["chunk_steps"].update(compute=None),
                     r"^trace\.chunk_steps\.compute must be a base64 string$", id="decision-none"),
        pytest.param(lambda p: p.update(final_latents=[]), r"trace\.final_latents is missing",
                     id="finals-list"),
        pytest.param(lambda p: p.pop("final_latents"), r"trace\.final_latents is missing",
                     id="finals-missing"),
        pytest.param(lambda p: p["final_latents"].update({HUGE: p["final_latents"]["1"]}),
                     r"^trace\.final_latents must hold chunks 1 to 3$", id="finals-key-huge"),
        pytest.param(lambda p: p["final_latents"].update({"2": [0.0] * 72}),
                     r"trace\.final_latents\.2 must be a base64 string", id="finals-list-latent"),
        pytest.param(lambda p: p["final_latents"].update({"2": "*" + p["final_latents"]["2"][1:]}),
                     r"trace\.final_latents\.2 is not valid base64", id="finals-not-base64"),
        pytest.param(lambda p: p["final_latents"].update({"2": " " + p["final_latents"]["2"]}),
                     r"trace\.final_latents\.2 is not valid base64", id="finals-space-base64"),
        # unhashed fields: the hash alone would not catch these
        pytest.param(recode("chunk_steps", "estimate", put(1, math.inf)),
                     r"^trace\.chunk_steps\.estimate must hold finite values or NaN$",
                     id="estimate-inf"),
        pytest.param(recode("chunk_steps", "estimate", put(1, -math.inf)),
                     r"^trace\.chunk_steps\.estimate must hold finite values or NaN$",
                     id="estimate-minus-inf"),
        pytest.param(recode("chunk_steps", "metric", put(0, math.nan)),
                     r"^trace\.chunk_steps\.metric must hold finite values$", id="metric-nan"),
        pytest.param(recode("chunk_steps", "metric", lambda v: v[:-1]),
                     r"^trace\.chunk_steps\.metric has 23 values; 24 expected$",
                     id="column-truncated"),
        pytest.param(recode("steps", "flops", lambda v: v.tobytes()[:-3]),
                     r"^trace\.steps\.flops has 125 bytes, not a multiple of 8$",
                     id="column-odd-bytes"),
        pytest.param(lambda p: p["steps"].update(flops=" " + p["steps"]["flops"]),
                     r"^trace\.steps\.flops is not valid base64$", id="column-space-base64"),
        pytest.param(lambda p: p["steps"].update(flops=p["steps"]["flops"][:-1]),
                     r"^trace\.steps\.flops is not valid base64$", id="column-unpadded-base64"),
        pytest.param(recode("chunk_steps", "compute", put(0, 2)),
                     r"^trace\.chunk_steps\.compute must hold 0 or 1$", id="compute-2"),
        # a window column the config fixes, written back into the file (forged or not),
        # would be read by nothing and re-exported by nothing
        pytest.param(forge_column("steps", "chunk_count", put(0, 2)),
                     r"^trace\.steps\.chunk_count is not a trace field$", id="chunk-count-sum"),
        pytest.param(forge_column("steps", "chunk_count",
                                  lambda v: np.r_[-1, v[1] + v[0] + 1, v[2:]].astype(v.dtype)),
                     r"^trace\.steps\.chunk_count is not a trace field$",
                     id="chunk-count-negative"),
        pytest.param(lambda p: p["steps"].update(chunk_count=[1] * 16),
                     r"^trace\.steps\.chunk_count is not a trace field$", id="chunk-count-list"),
        pytest.param(forge_column("chunk_steps", "chunk", put(0, 77)),
                     r"^trace\.chunk_steps\.chunk is not a trace field$", id="chunk-off-window"),
        pytest.param(forge_column("steps", "global_step", put(5, 999)),
                     r"^trace\.steps\.global_step is not a trace field$",
                     id="global-step-off-window"),
        pytest.param(forge_column("chunk_steps", "local_step", put(3, 5)),
                     r"^trace\.chunk_steps\.local_step is not a trace field$",
                     id="local-step-off-window"),
        pytest.param(lambda p: p["steps"].update(extra=p["steps"]["flops"]),
                     r"^trace\.steps\.extra is not a trace field$", id="steps-extra-column"),
        pytest.param(lambda p: p.update(extra=1), r"^trace\.extra is not a trace field$",
                     id="top-level-extra"),
        pytest.param(lambda p: p["totals"].update(extra=1),
                     r"^trace\.totals\.extra is not a trace field$", id="totals-extra"),
        pytest.param(lambda p: p["final_latents"].pop("3"),
                     r"^trace\.final_latents must hold chunks 1 to 3$", id="finals-chunk-dropped"),
        pytest.param(lambda p: p["final_latents"].update({"4": p["final_latents"]["3"]}),
                     r"^trace\.final_latents must hold chunks 1 to 3$", id="finals-chunk-added"),
        pytest.param(lambda p: p["config"]["schedule"].update(steps=12),
                     r"^trace\.steps\.flops has 16 values; 24 expected$", id="config-more-steps"),
        # schema v4's compression fields, even unforged, in a v5 file: the config and
        # keep give each of them, so each would import unread
        pytest.param(forge_v4(lambda c: None), V4_FIELD, id="compressions-leftover"),
        pytest.param(forge_v4(lambda c: c[0].update(extra=1)), V4_FIELD, id="report-field-extra"),
        pytest.param(forge_v4(lambda c: c[0]["heads"]["0"].update(extra=1)), V4_FIELD,
                     id="head-field-extra"),
        pytest.param(forge_v4(lambda c: c[0].update(heads=[])), V4_FIELD, id="heads-list"),
        pytest.param(forge_v4(lambda c: c[0].update(global_step=2**70)), V4_FIELD,
                     id="global-step-huge"),
        pytest.param(forge_v4(lambda c: c[0].update(arriving_chunk=99)), V4_FIELD,
                     id="arriving-chunk-99"),
        pytest.param(forge_v4(lambda c: c[0].update(global_step=-5)), V4_FIELD,
                     id="compression-step-negative"),
        pytest.param(forge_v4(lambda c: c[0].update(candidate_tokens=36)), V4_FIELD,
                     id="candidates-forged"),
        *[pytest.param(forge_v4(lambda c, ids=ids: c[0]["heads"]["1"].update(retained_ids=ids)),
                       V4_FIELD, id=name)
          for name, ids in [("retained-id-huge", [2**70]), ("retained-id-float", [1.0]),
                            ("retained-ids-text", "1,2"), ("retained-id-bool", [0, True]),
                            ("retained-id-below-int64", [-2**63 - 1, 0])]],
        *[pytest.param(forge_v4(lambda c, key=key: c[0]["heads"].update({key: {}})), V4_FIELD,
                       id=name)
          for name, key in [("head-key-huge", HUGE), ("head-key-text", "x"),
                            ("head-key-underscore", "0_0"), ("head-key-space", " 1"),
                            ("head-key-zero-padded", "01"), ("head-key-arabic-indic", "\u0661")]],
        # the keep masks: one pass, two heads, 54 candidates each (108 bits in 14 bytes)
        pytest.param(rekeep(flip(first(0))),   # a candidate kept that was evicted
                     r"^trace\.keep\[0\]\[0\] must keep 36 of 54 candidates in whole groups "
                     r"of 1$", id="evicted-forged"),
        pytest.param(rekeep(flip(first(1, head=1))),   # one bit too few
                     r"^trace\.keep\[0\]\[1\] must keep 36 of 54 candidates in whole groups "
                     r"of 1$", id="retained-id-dropped"),
        pytest.param(rekeep(flip(108)),   # a candidate past the last: a padding bit
                     r"^trace\.keep must leave its padding bits clear$",
                     id="retained-id-beyond-arrivals"),
        pytest.param(rekeep(flip(first(1), first(0))),   # the count holds; the hash does not
                     r"^trace content hash mismatch after import$", id="retained-ids-swapped"),
        pytest.param(on_frame_keys(rekeep(flip(lambda b: off_group(b) - 1, off_group))),
                     r"^trace\.keep\[0\]\[0\] must keep 36 of 54 candidates in whole groups "
                     r"of 9$", id="keep-bit-off-frame-group"),
        pytest.param(rekeep(lambda b: b[:-8]), r"^trace\.keep has 13 values; 14 expected$",
                     id="keep-byte-short"),
        pytest.param(rekeep(lambda b: np.r_[b[:108], b[:54]]),
                     r"^trace\.keep has 21 values; 14 expected$", id="head-7-added"),
        pytest.param(rekeep(lambda b: b[:54]), r"^trace\.keep has 7 values; 14 expected$",
                     id="head-dropped"),
        pytest.param(rekeep(lambda b: b[:0]), r"^trace\.keep has 0 values; 14 expected$",
                     id="compression-dropped"),
        pytest.param(lambda p: p["config"]["kv"].update(budget_chunks=None),
                     r"^trace\.keep has 14 values; 0 expected$", id="compression-unbudgeted"),
        pytest.param(lambda p: p.update(keep=[1, 0]), r"^trace\.keep must be a base64 string$",
                     id="keep-list"),
        pytest.param(lambda p: p.pop("keep"), r"^trace\.keep is missing$", id="keep-missing"),
        pytest.param(lambda p: p.update(steps=[]), r"^trace\.steps must be an object$",
                     id="steps-list"),
        pytest.param(lambda p: p["totals"].update(computed_steps=999),
                     r"^trace\.totals\.computed_steps is 999; the records give 21$",
                     id="totals-forged"),
        pytest.param(lambda p: p["totals"].update(computed_steps=21.0),
                     r"^trace\.totals\.computed_steps is 21\.0; the records give 21$",
                     id="totals-float"),
        pytest.param(lambda p: p["totals"].pop("total_flops"),
                     r"^trace\.totals\.total_flops is missing$", id="totals-missing"),
        pytest.param(lambda p: p["config"]["scene"].update(extra=1),
                     r"^trace\.config\.scene\.extra is not a config field$",
                     id="config-scene-extra"),
        pytest.param(lambda p: p["config"].update(schema_version=7),
                     r"^trace\.config\.schema_version must be 5$", id="config-schema-7"),
        pytest.param(lambda p: p.update(schema_version=4), r"^unsupported trace schema 4$",
                     id="schema-4"),
        pytest.param(lambda p: p.update(schema_version=5.0), r"^unsupported trace schema 5\.0$",
                     id="schema-5-float"),
        # a second spelling of a chunk key, with its value, would overwrite it unseen
        *[pytest.param(lambda p, key=key: (finals := p["final_latents"]).update(
              {key: finals[str(int(key))]}),
           r"^trace\.final_latents must hold chunks 1 to 3$", id=name)
          for name, key in [("finals-key-underscore", "0_1"), ("finals-key-space", " 1"),
                            ("finals-key-zero-padded", "01")]],
    ])
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
            trace.steps["resident_bytes"][0])
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
        slots = trace.steps["chunk_count"].sum()
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


class TestMemory:
    """What a finished trace keeps, and what exporting it adds on top."""

    def test_finished_magi_fast_trace_keeps_under_250_kb(self):
        magi_fast_run()   # first-call caches stay out of the measurement
        trace, kept, _ = traced(magi_fast_run)
        assert len(trace.compressions) == 5
        assert kept < 250_000

    def test_to_json_peaks_under_four_times_its_output(self):
        trace = magi_fast_run()
        trace.content_hash   # cached, so only the export is measured
        text, _, peak = traced(trace.to_json)
        assert peak < 4 * len(text)   # 3.08x: 479,816 bytes for 155,578

    def test_hash_transient_stays_bounded_on_40_chunks(self):
        trace = forty_chunk_run()
        trace._compute_hash()   # first-call caches stay out of the measurement
        # blocks of 64 steps: about 43 KB; all 688 steps' 196-byte packed rows would be 135 KB
        assert traced(trace._compute_hash)[2] < 96_000


def reference_hash(trace: RunTrace) -> str:
    """The content hash packed one step at a time with ``struct``: the byte
    stream docs/trace_schema.md specifies, written out as directly as it reads."""
    h = hashlib.sha256()
    offsets = [0, *np.cumsum(trace.steps["chunk_count"]).tolist()]
    for i in range(len(trace.steps)):
        g, _, *costs = trace.steps[i].tolist()
        fmt, values = ["<q"], [g]
        for chunk, local_step, compute, metric, accumulator, _ in (
                trace.chunk_steps[offsets[i]:offsets[i + 1]].tolist()):
            decision = DECISIONS[compute].encode()
            fmt.append(f"qq{len(decision)}sdd")
            values += (chunk, local_step, decision, metric, accumulator)
        fmt.append("dqqd")
        h.update(struct.pack("".join(fmt), *values, *costs))
    for rep in trace.compressions:
        h.update(struct.pack("<qqq1s", rep.global_step, rep.arriving_chunk,
                             rep.candidate_tokens, b"0"))
        for head, body in sorted(rep.heads.items()):
            h.update(struct.pack("<q", head) + body.retained_ids.tobytes()
                     + struct.pack("<q", body.evicted_count))
    for idx in sorted(trace.final_latents):
        h.update(struct.pack("<q", idx) + trace.final_latents[idx].tobytes())
    return h.hexdigest()


class TestHashStream:
    """``content_hash`` packs its step stream from whole columns in blocks of
    steps; ``reference_hash`` packs the same stream step by step."""

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profiles_match_the_reference(self, profile, noise):
        trace = profile_run(profile, {"noise_scale": noise})
        assert trace.content_hash == reference_hash(trace)

    def test_several_blocks_and_a_partial_last_match_the_reference(self):
        trace = forty_chunk_run()
        assert len(trace.steps) == 688
        assert trace.content_hash == reference_hash(trace)

    def test_one_chunk_window_one_matches_the_reference(self):
        trace = profile_run("magi-fast", {"scene": {"num_chunks": 1, "window": 1}})
        assert set(trace.steps["chunk_count"].tolist()) == {1}
        assert trace.content_hash == reference_hash(trace)

    @settings(max_examples=40, deadline=None)
    @given(chunks=st.integers(1, 6), window=st.integers(1, 4), per_window=st.integers(1, 3),
           policy=st.sampled_from([None, *sorted(PROFILES)]),
           budget=st.one_of(st.none(), st.integers(1, 3)),
           keys=st.sampled_from(["token", "frame", "chunk"]),
           noise=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**32))
    def test_small_configs_match_the_reference(self, chunks, window, per_window, policy,
                                               budget, keys, noise, seed):
        window = min(window, chunks)
        trace = run_denoise(
            SceneConfig(num_chunks=chunks, window=window, shape=(2, 2, 2, 2), seed=seed),
            PowerLawSchedule(power=0.25, steps=window * per_window),
            policy=policy and ReusePolicy(**PROFILES[policy]["policy"]),
            kv=KVPlan(budget_chunks=budget, key_granularity=keys), noise_scale=noise)
        assert trace.content_hash == reference_hash(trace)


class TestRecordsView:
    def test_view_of_imported_columns_matches_trajectory_events(self):
        scene = SceneConfig(num_chunks=3, window=2, shape=(4, 2, 3, 3), seed=1)
        sched = PowerLawSchedule(power=0.25, steps=8)
        policy = ReusePolicy(0.05, 2)
        events = list(trajectory(scene, sched, policy, 0.0))
        back = import_trace(run_denoise(scene, sched, policy=policy).to_json())
        assert len(back.steps) == len(events) == 16
        assert back.steps["global_step"].tolist() == [g for g, *_ in events]
        assert back.steps["chunk_count"].tolist() == [len(rows) for _, rows, _, _ in events]
        rows = np.array([row for _, rows, _, _ in events for row in rows], DTYPES["chunk_steps"])
        assert back.chunk_steps.tobytes() == rows.tobytes()   # NaN estimates too
        null = np.isnan(back.chunk_steps["estimate"])
        assert null[0] and null[1:].any() and not null.all()


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


def csv_curves(trace) -> dict[int, list[tuple[float, float]]]:
    """curves.csv's per-chunk (progress %, metric) series, in step order."""
    curves: dict[int, list[tuple[float, float]]] = {}
    for row in csv.DictReader(curves_csv(trace).splitlines()[1:]):   # past the schema line
        curves.setdefault(int(row["chunk"]), []).append(
            (float(row["progress_pct"]), float(row["metric"])))
    return curves


class TestCurves:
    def test_single_chunk_series_shape(self):
        scene = SceneConfig(num_chunks=1, window=1, shape=(4, 2, 3, 3), seed=0)
        sched = PowerLawSchedule(power=0.25, steps=16)
        trace = run_denoise(scene, sched, policy=ReusePolicy(0.015, 5))
        curves = csv_curves(trace)
        assert set(curves) == {1}
        assert len(curves[1]) == 16
        progress = [p for p, _ in curves[1]]
        assert progress[0] == 0.0 and progress[-1] < 100.0

    def test_csv_contains_every_step(self):
        trace = tiny_run()
        text = curves_csv(trace)
        rows = text.strip().splitlines()
        assert len(rows) == len(trace.chunk_steps) + 2   # schema line + header

    def test_metric_series_non_decreasing_for_ideal_run(self):
        trace = magi_fast_run()
        for series in csv_curves(trace).values():
            metrics = [m for _, m in series]
            assert all(b >= a - 1e-12 for a, b in zip(metrics, metrics[1:]))


class TestDeterminism:
    def test_hash_computed_on_first_read_and_kept(self, monkeypatch):
        calls = []
        compute = RunTrace._compute_hash
        monkeypatch.setattr(RunTrace, "_compute_hash",
                            lambda trace: calls.append(trace) or compute(trace))
        assert RunTrace(config={}).content_hash == ""   # unfinished: nothing to hash
        trace = tiny_run()
        assert calls == []
        first = trace.content_hash
        assert trace.content_hash == first and len(calls) == 1
        trace.finish(trace.final_latents)   # a finish drops the cached hash
        assert trace.content_hash == first and len(calls) == 2

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
@given(where=st.sampled_from([(t, n) for t in COLUMNS for n in COLUMNS[t]
                              if n not in WINDOW_COLUMNS]),
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


FLIP_JSON = {   # two passes, two heads, 54 candidates each: 216 bits in 27 bytes
    keys: run_denoise(SceneConfig(num_chunks=4, window=2, shape=(4, 2, 3, 3), seed=3),
                      PowerLawSchedule(power=0.25, steps=8), policy=ReusePolicy(0.05, 2),
                      kv=KVPlan(budget_chunks=2, key_granularity=keys)).to_json()
    for keys in ("token", "frame", "chunk")}


@settings(max_examples=120, deadline=None)
@given(keys=st.sampled_from(sorted(FLIP_JSON)), index=st.integers(0, 215))
def test_flipped_keep_bit_raises_invalid_input(keys, index):
    # a flip moves one head's count off the budget: keep is checked, not only hashed
    payload = json.loads(FLIP_JSON[keys])
    rekeep(flip(index))(payload)
    with pytest.raises(InvalidInput, match=r"^trace\.keep\[[01]\]\[[01]\] must keep 36 of 54 "):
        import_trace(payload)


@settings(max_examples=40, deadline=None)
@given(chunks=st.integers(1, 6), window=st.integers(1, 4), per_window=st.integers(1, 3),
       keys=st.sampled_from(["token", "frame", "chunk"]),
       queries=st.sampled_from(["token", "frame"]),
       budget=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32))
def test_small_config_round_trips_byte_for_byte(chunks, window, per_window, keys, queries,
                                                budget, seed):
    window = min(window, chunks)
    trace = run_denoise(SceneConfig(num_chunks=chunks, window=window, shape=(2, 2, 2, 2),
                                    seed=seed),
                        PowerLawSchedule(power=0.25, steps=window * per_window),
                        policy=ReusePolicy(0.05, 1),
                        kv=KVPlan(budget_chunks=budget, key_granularity=keys,
                                  query_granularity=queries))
    text = trace.to_json()
    back = import_trace(text)
    assert back.content_hash == trace.content_hash
    assert back.to_json() == text
