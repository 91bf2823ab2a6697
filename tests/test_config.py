import copy
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import PROFILES, KVPlan, build_objects, resolve_config, run_denoise
from flowcache_sim.config import _BASE
from flowcache_sim.errors import InvalidConfig, InvalidInput, SimulatorError
from flowcache_sim.trace import RunTrace, _config_snapshot

TINY = copy.deepcopy(PROFILES["magi-fast"])
TINY["scene"].update(num_chunks=3, window=2, shape=[4, 2, 3, 3])
TINY["schedule"]["steps"] = 8

# every leaf of a config, as (section or None, field)
FIELDS = [(name, key) for name, body in TINY.items() if isinstance(body, dict)
          for key in body] + [(None, "noise_scale")]

# values of the wrong type or out of range for some field
BAD_VALUES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(),
    st.floats(0.1, 8.0).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.lists(st.integers(-1, 3), max_size=5))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_snapshot_inverts_build_objects(profile):
    cfg = PROFILES[profile]
    snapshot = _config_snapshot(*build_objects(cfg))
    del snapshot["schema_version"]
    assert snapshot == cfg


def test_missing_field_names_its_path():
    cfg = copy.deepcopy(TINY)
    del cfg["policy"]["warmup"]
    with pytest.raises(InvalidConfig, match=r"policy\.warmup"):
        build_objects(cfg)


@settings(max_examples=60, deadline=None)
@given(where=st.sampled_from(FIELDS), value=BAD_VALUES)
def test_one_bad_field_runs_or_raises_simulator_error(where, value):
    cfg = copy.deepcopy(TINY)
    section, key = where
    (cfg if section is None else cfg[section])[key] = value
    try:
        scene, schedule, policy, kv, cost, noise = build_objects(cfg)
        trace = run_denoise(scene, schedule, policy=policy, kv=kv, cost=cost,
                            noise_scale=noise)
    except SimulatorError:
        return
    assert isinstance(trace, RunTrace)


@pytest.mark.parametrize("path", ["nosie_scale", "kv.budget_chunk",
                                  "scene.extra", "policy.warmpu"])
def test_unknown_key_rejected(path):
    cfg = copy.deepcopy(TINY)
    *section, key = path.split(".")
    (cfg[section[0]] if section else cfg)[key] = 1
    with pytest.raises(InvalidConfig) as info:
        build_objects(cfg)
    assert str(info.value) == f"{path} is not a config field"


# one out-of-range or unknown value per check, in every section, with the error
# build_objects raises; ids name the field alone, as no two sections share one
INVALID_VALUES = [
    ("scene", "num_chunks", 0, InvalidConfig, "scene: num_chunks must be >= 1"),
    ("scene", "shape", [4, 0, 3, 3], InvalidConfig, "scene: bad latent shape (4, 0, 3, 3)"),
    ("scene", "window", 4, InvalidConfig,
     "scene: window must satisfy 1 <= window <= num_chunks"),
    ("scene", "norm_spread", 0.0, InvalidConfig, "scene: norm_spread must be positive"),
    ("scene", "norm_base", 0.0, InvalidConfig, "scene: norm_base must be positive"),
    ("policy", "epsilon", -0.1, InvalidInput, "policy: epsilon must be >= 0, got -0.1"),
    ("policy", "warmup", -1, InvalidInput, "policy: warmup must be >= 0, got -1"),
    ("schedule", "steps", 0, InvalidInput, "schedule: steps must be >= 1, got 0"),
    ("kv", "key_heads", 0, InvalidConfig, "kv: head counts and head_dim must be positive"),
    ("kv", "query_heads", 0, InvalidConfig, "kv: head counts and head_dim must be positive"),
    ("kv", "head_dim", 0, InvalidConfig, "kv: head counts and head_dim must be positive"),
    ("kv", "query_heads", 3, InvalidConfig, "kv: query_heads must be a multiple of key_heads"),
    ("kv", "budget_chunks", 0, InvalidConfig, "kv: budget_chunks must be positive or None"),
    ("kv", "mix_lambda", 1.5, InvalidInput, "kv: mix_lambda must be in [0, 1], got 1.5"),
    ("kv", "mix_lambda", -0.1, InvalidInput, "kv: mix_lambda must be in [0, 1], got -0.1"),
    ("kv", "pool_kernel", 4, InvalidInput, "kv: pool_kernel must be odd, got 4"),
    ("kv", "pool_kernel", 0, InvalidInput, "kv: pool_kernel must be odd, got 0"),
    ("kv", "query_window", 0, InvalidInput, "kv: query_window must be >= 1"),
    ("kv", "query_granularity", "pixel", InvalidConfig,
     "kv: unknown query granularity 'pixel'"),
    ("kv", "key_granularity", "pixel", InvalidConfig, "kv: unknown key granularity 'pixel'"),
    ("cost", "flops_per_kv_token_pair", -1.0, InvalidConfig,
     "cost: cost model entries must be nonnegative"),
]


@pytest.mark.parametrize("name, key, value, error, message", INVALID_VALUES,
                         ids=[f"{key}={value}" for _, key, value, *_ in INVALID_VALUES])
def test_kv_value_rejected(name, key, value, error, message):
    cfg = copy.deepcopy(TINY)
    cfg[name][key] = value
    with pytest.raises(error) as info:
        build_objects(cfg)
    assert type(info.value) is error
    assert str(info.value) == message


def test_negative_noise_scale_rejected():
    cfg = copy.deepcopy(TINY)
    cfg["noise_scale"] = -0.1
    with pytest.raises(InvalidConfig) as info:
        build_objects(cfg)
    assert str(info.value) == "noise_scale must be >= 0"


def test_unknown_profile_rejected():
    with pytest.raises(InvalidConfig) as info:
        resolve_config(profile="nope")
    assert str(info.value) == ("unknown profile 'nope'; known: baseline, magi-fast, "
                               "magi-slow, skyreels-fast, skyreels-slow")


def test_kv_plan_fields_are_the_kv_section():
    assert {f.name for f in dataclasses.fields(KVPlan)} == set(_BASE["kv"])
