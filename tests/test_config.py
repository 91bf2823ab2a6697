import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache_sim import PROFILES, build_objects, run_denoise
from flowcache_sim.errors import InvalidConfig, SimulatorError
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
