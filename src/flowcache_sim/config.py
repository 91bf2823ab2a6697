"""Run configuration: named profiles, JSON files, and object assembly.

A run config is a plain nested dict with sections scene / schedule / policy /
kv / cost plus a top-level noise_scale. Profiles carry the experiment-facing
constants; a JSON config file (or per-field overrides) is deep-merged over
the chosen profile, and ``build_objects`` checks the result.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Optional

from .armodel import CostModel, SceneConfig, total_global_steps
from .errors import InvalidConfig
from .kvcache import KVPlan
from .reuse import ReusePolicy
from .schedule import PowerLawSchedule
from .trace import SCHEMA_VERSION, _config_snapshot, read_fields, read_value

# Default power for run profiles. The reuse thresholds below only produce
# reuse when early-trajectory metrics sit under them; on a uniform grid the
# per-step relative change scales like power/steps_remaining, so a sub-linear
# schedule keeps the simulated metric range (~0.004..0.25 over 64 steps) in
# the same band the thresholds were designed for.
_PROFILE_POWER = 0.25

# the component defaults, so every field and default is stated once
_BASE: dict[str, Any] = _config_snapshot(
    SceneConfig(), PowerLawSchedule(power=_PROFILE_POWER),
    ReusePolicy(epsilon=0.015), KVPlan(), CostModel(), 0.0)
del _BASE["schema_version"]


def _deep_merge(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value
    return base


def _with(overrides: dict[str, Any]) -> dict[str, Any]:
    cfg = copy.deepcopy(_BASE)
    return _deep_merge(cfg, overrides)


PROFILES: dict[str, dict[str, Any]] = {
    "baseline": _with({"policy": {"epsilon": 0.0, "warmup": 0}}),
    "magi-slow": _with({"policy": {"epsilon": 0.01, "warmup": 5}}),
    "magi-fast": _with({"policy": {"epsilon": 0.015, "warmup": 5}}),
    "skyreels-slow": _with({
        "policy": {"epsilon": 0.1, "warmup": 4},
        "schedule": {"steps": 50},
        "scene": {"window": 5},
    }),
    "skyreels-fast": _with({
        "policy": {"epsilon": 0.15, "warmup": 4},
        "schedule": {"steps": 50},
        "scene": {"window": 5},
    }),
}


def resolve_config(profile: Optional[str] = None,
                   config_path: Optional[str] = None,
                   seed: Optional[int] = None) -> dict[str, Any]:
    """Produce the fully-resolved config dict for a run.

    Precedence: profile defaults, then config-file fields, then the seed
    flag. With neither profile nor file, the magi-fast profile applies.
    Nothing is validated here; ``build_objects`` does that.
    """
    if profile is not None and profile not in PROFILES:
        raise InvalidConfig(
            f"unknown profile {profile!r}; known: {', '.join(sorted(PROFILES))}")
    cfg = copy.deepcopy(PROFILES[profile or "magi-fast"])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise InvalidConfig(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidConfig("config file must contain a JSON object")
        _deep_merge(cfg, overrides)
    if seed is not None:
        section(cfg, "scene")["seed"] = int(seed)
    return cfg


def section(cfg: dict, name: str) -> dict:
    """The config section ``name``; InvalidConfig unless it is an object."""
    body = cfg.get(name) if isinstance(cfg, dict) else None
    if not isinstance(body, dict):
        raise InvalidConfig(f"{name} is missing or not an object")
    return body


def _known(body: dict, known, prefix: str = "") -> None:
    for key in body:
        if key not in known:
            raise InvalidConfig(f"{prefix}{key} is not a config field")


def _build(cls, cfg: dict, name: str):
    """Construct ``cls`` from section ``name``, which has only its fields."""
    body = section(cfg, name)
    _known(body, _BASE[name], f"{name}.")
    return read_fields(cls, body, name, InvalidConfig)


def build_objects(cfg: dict[str, Any]):
    """Validate a resolved config and construct the run components.

    Returns (scene, schedule, policy_or_None, kv_plan, cost_model,
    noise_scale); raises InvalidConfig naming the dotted field path when a
    field is unknown, missing or mistyped (see ``trace.FIELD_TYPES``), and
    the component's own error, prefixed with its section, when a value is out
    of range. A ``schema_version`` field must be the current one.
    """
    scene = _build(SceneConfig, cfg, "scene")
    schedule = _build(PowerLawSchedule, cfg, "schedule")
    policy = None if cfg.get("policy") is None else _build(
        ReusePolicy, cfg, "policy")
    kv = _build(KVPlan, cfg, "kv")
    cost = _build(CostModel, cfg, "cost")
    _known(cfg, {*_BASE, "schema_version"})
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidConfig(f"schema_version must be {SCHEMA_VERSION}")
    noise_scale = float(read_value(cfg.get("noise_scale", 0.0), "float",
                                   "noise_scale", InvalidConfig))
    total_global_steps(schedule, scene)   # checks steps % window
    if noise_scale < 0:
        raise InvalidConfig("noise_scale must be >= 0")
    return scene, schedule, policy, kv, cost, noise_scale
