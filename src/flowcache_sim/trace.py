"""Run tracing: per-step records, cost totals, hashing, export/import.

A trace is the unit of reproducibility: identical config and seed must hash
identically, and the hash covers everything semantically meaningful about a
run (decisions, metrics, accumulators, costs, buffer occupancy, compression
outcomes, final latents) while excluding presentation-only fields.
"""

from __future__ import annotations

import base64
import binascii
import csv
import hashlib
import io
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import InvalidComparison, InvalidInput, SimulatorError
from .kvcache import CompressionReport, HeadReport
from .numerics import FLOAT

SCHEMA_VERSION = 2
_LATENT_DTYPE = np.dtype("<f8")   # final latents in trace.json: little-endian float64


@dataclass(frozen=True)
class ChunkStepRecord:
    chunk: int
    local_step: int
    decision: str
    metric: float
    accumulator: float
    estimate: Optional[float] = None   # decision-time estimate; not hashed


@dataclass(frozen=True)
class StepRecord:
    global_step: int
    chunks: list[ChunkStepRecord]
    flops: float
    kv_clean_tokens: int
    kv_active_tokens: int
    resident_bytes: float

    @property
    def resident_tokens(self) -> int:
        return self.kv_clean_tokens + self.kv_active_tokens


@dataclass
class RunTotals:
    computed_steps: int = 0
    reused_steps: int = 0
    total_flops: float = 0.0
    peak_resident_tokens: int = 0
    peak_resident_bytes: float = 0.0

    @property
    def reuse_fraction(self) -> float:
        done = self.computed_steps + self.reused_steps
        return self.reused_steps / done if done else 0.0


def _config_snapshot(scene, schedule, policy, kv, cost, noise_scale) -> dict:
    """The run's config dict (``build_objects`` inverts it)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "scene": {**asdict(scene), "shape": list(scene.shape)},
        "schedule": asdict(schedule),
        "policy": None if policy is None else asdict(policy),
        "kv": asdict(kv),
        "cost": asdict(cost),
        "noise_scale": noise_scale,
    }


@dataclass
class RunTrace:
    config: dict
    records: list[StepRecord] = field(default_factory=list)
    compressions: list[CompressionReport] = field(default_factory=list)
    totals: RunTotals = field(default_factory=RunTotals)
    final_latents: dict[int, np.ndarray] = field(default_factory=dict)
    content_hash: str = ""

    def add_step(self, record: StepRecord) -> None:
        self.records.append(record)
        for cr in record.chunks:
            if cr.decision == "compute":
                self.totals.computed_steps += 1
            else:
                self.totals.reused_steps += 1
        self.totals.total_flops += record.flops
        self.totals.peak_resident_tokens = max(
            self.totals.peak_resident_tokens, record.resident_tokens)
        self.totals.peak_resident_bytes = max(
            self.totals.peak_resident_bytes, record.resident_bytes)

    def finish(self, final_latents: dict[int, np.ndarray]) -> None:
        self.final_latents = final_latents
        self.content_hash = self._compute_hash()

    # -- hashing -----------------------------------------------------------

    def _compute_hash(self) -> str:
        """Bitwise content hash over decisions, metrics, costs, and latents.

        The config snapshot and decision-time estimates are deliberately
        excluded: an epsilon=0 run and a run with the policy disabled differ
        only there and must hash identically.
        """
        h = hashlib.sha256()

        def f64(x: float) -> bytes:
            return struct.pack("<d", float(x))

        def i64(x: int) -> bytes:
            return struct.pack("<q", int(x))

        for rec in self.records:
            h.update(i64(rec.global_step))
            for cr in rec.chunks:
                h.update(i64(cr.chunk))
                h.update(i64(cr.local_step))
                h.update(cr.decision.encode())
                h.update(f64(cr.metric))
                h.update(f64(cr.accumulator))
            h.update(f64(rec.flops))
            h.update(i64(rec.kv_clean_tokens))
            h.update(i64(rec.kv_active_tokens))
            h.update(f64(rec.resident_bytes))
        for rep in self.compressions:
            h.update(i64(rep.global_step))
            h.update(i64(rep.arriving_chunk))
            h.update(i64(rep.candidate_tokens))
            h.update(b"0")   # the no_op flag, always false
            for head in sorted(rep.heads):
                h.update(i64(head))
                h.update(np.asarray(rep.heads[head].retained_ids,
                                    dtype=np.int64).tobytes())
                h.update(i64(rep.heads[head].evicted_count))
        for idx in sorted(self.final_latents):
            h.update(i64(idx))
            h.update(np.ascontiguousarray(self.final_latents[idx]).tobytes())
        return h.hexdigest()

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form: every record and report field, and the totals."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "records": [{**vars(r), "chunks": [dict(vars(c)) for c in r.chunks]}
                        for r in self.records],
            "compressions": [{**vars(c), "no_op": False,   # always false: every pass evicts
                              "heads": {str(h): dict(vars(r)) for h, r in c.heads.items()}}
                             for c in self.compressions],
            "totals": {**asdict(self.totals),
                       "reuse_fraction": self.totals.reuse_fraction},
            "final_latents": {
                str(k): base64.b64encode(
                    np.ascontiguousarray(v, dtype=_LATENT_DTYPE).tobytes()).decode()
                for k, v in self.final_latents.items()
            },
            "content_hash": self.content_hash,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _is_int64(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


# field annotation -> (accepts a JSON value, what the value must be), for
# config sections and trace records alike
FIELD_TYPES = {
    "int": (_is_int64, "an int64"),
    "Optional[int]": (lambda v: v is None or _is_int64(v), "an int64 or null"),
    "float": (lambda v: _is_int64(v) or isinstance(v, float) and math.isfinite(v),
              "a finite number"),
    "Optional[float]": (lambda v: v is None or FIELD_TYPES["float"][0](v),
                        "a finite number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int64, v)),
                  "a list of int64s"),
    "tuple[int, int, int, int]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 4
        and all(map(_is_int64, v)), "a list of 4 int64s"),
}


def read_value(value, kind: str, where: str, error: type = InvalidInput):
    """``value`` if it has the JSON type of annotation ``kind``, else ``error``."""
    accepts, expected = FIELD_TYPES[kind]
    if not accepts(value):
        raise error(f"{where} must be {expected}")
    return tuple(value) if kind.startswith("tuple") else value


def read_fields(cls, body: dict, where: str, error: type = InvalidInput, **given):
    """``cls`` built from the JSON object ``body`` at path ``where``: each field
    not in ``given`` with ``read_value``, and ``cls``'s own error prefixed."""
    for f in fields(cls):
        if f.name not in given:
            if f.name not in body:
                raise error(f"{where}.{f.name} is missing")
            given[f.name] = read_value(body[f.name], f.type, f"{where}.{f.name}", error)
    try:
        return cls(**given)
    except SimulatorError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _int_key(key: str, where: str) -> int:
    """An object key that names an int64 index (a head or a chunk id)."""
    try:
        index = int(key)
    except ValueError:
        index = None
    if not _is_int64(index):
        raise InvalidInput(f"{where} key must be an int64")
    return index


def _latent(text, where: str, scene) -> np.ndarray:
    """A final latent from its base64 little-endian float64 bytes."""
    if type(text) is not str:
        raise InvalidInput(f"{where} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error:
        raise InvalidInput(f"{where} is not valid base64") from None
    if len(raw) != scene.numel * _LATENT_DTYPE.itemsize:
        raise InvalidInput(f"{where} has {len(raw)} bytes; config shape "
                           f"{scene.shape} needs {scene.numel} float64 values")
    return np.frombuffer(raw, dtype=_LATENT_DTYPE).astype(FLOAT).reshape(scene.shape)


def import_trace(data: dict | str) -> RunTrace:
    """Rebuild a trace from its JSON form and verify the content hash.

    Only schema v2 is read. Bad JSON, a missing or mistyped field (see
    ``FIELD_TYPES``; head and chunk keys must be int64s), a config that
    ``build_objects`` rejects, or a final latent that is not strict base64 of
    the config shape's float64 bytes raises InvalidInput naming the path.
    """
    from .config import build_objects   # config imports armodel, which imports trace

    where = "trace"   # path of the object being read, for error messages
    try:
        if isinstance(data, str):
            data = json.loads(data)
        if data["schema_version"] != SCHEMA_VERSION:
            raise InvalidInput(f"unsupported trace schema {data['schema_version']}")
        trace = RunTrace(config=data["config"])
        try:
            scene = build_objects(data["config"])[0]
        except SimulatorError as exc:
            raise InvalidInput(f"trace.config.{exc}") from None
        for i, r in enumerate(data["records"]):
            where = f"trace.records[{i}]"
            step = read_fields(StepRecord, r, where, chunks=[])
            for j, c in enumerate(r["chunks"]):
                where = f"trace.records[{i}].chunks[{j}]"
                step.chunks.append(read_fields(ChunkStepRecord, c, where))
            trace.add_step(step)
        for i, rep in enumerate(data["compressions"]):
            where = f"trace.compressions[{i}]"
            if rep["no_op"] is not False:
                raise InvalidInput(f"{where}.no_op must be false")
            report = read_fields(CompressionReport, rep, where, heads={})
            if not isinstance(rep["heads"], dict):
                raise InvalidInput(f"{where}.heads must be an object")
            for head, body in rep["heads"].items():
                where = f"trace.compressions[{i}].heads.{head}"
                index = _int_key(head, where)
                report.heads[index] = read_fields(HeadReport, body, where)
            trace.compressions.append(report)
        finals = {}
        if not isinstance(data.get("final_latents"), dict):
            raise InvalidInput("trace.final_latents is missing or not an object")
        for k, v in data["final_latents"].items():
            where = f"trace.final_latents.{k}"
            finals[_int_key(k, where)] = _latent(v, where, scene)
        where = "trace"
        trace.finish(finals)
        content_hash = data["content_hash"]
    except KeyError as exc:
        raise InvalidInput(f"{where}.{exc.args[0]} is missing") from None
    except (TypeError, ValueError, OverflowError, struct.error) as exc:
        raise InvalidInput(f"malformed {where}: {exc}") from None
    if trace.content_hash != content_hash:
        raise InvalidInput("trace content hash mismatch after import")
    return trace


# -- derived views ----------------------------------------------------------

def l1rel_curves(trace: RunTrace) -> dict[int, list[tuple[float, float]]]:
    """Per-chunk (denoising progress %, metric) series in step order."""
    steps = trace.config["schedule"]["steps"]
    curves: dict[int, list[tuple[float, float]]] = {}
    for rec in trace.records:
        for cr in rec.chunks:
            curves.setdefault(cr.chunk, []).append(
                (100.0 * cr.local_step / steps, cr.metric))
    return curves


def curves_csv(trace: RunTrace) -> str:
    """CSV rendering of the per-chunk metric curves."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["schema_version", SCHEMA_VERSION])
    writer.writerow(["chunk", "local_step", "progress_pct", "metric",
                     "decision", "estimate"])
    steps = trace.config["schedule"]["steps"]
    for rec in trace.records:
        for cr in rec.chunks:
            writer.writerow([
                cr.chunk, cr.local_step,
                f"{100.0 * cr.local_step / steps:.6f}",
                repr(cr.metric), cr.decision,
                "" if cr.estimate is None else repr(cr.estimate)])
    return out.getvalue()


def speedup(trace: RunTrace, baseline: RunTrace) -> float:
    """Ratio of baseline model flops to this run's model flops."""
    for section in ("scene", "schedule"):
        if trace.config[section] != baseline.config[section]:
            raise InvalidComparison(f"{section} configs differ")
    return flops_speedup(trace, baseline.totals.total_flops)


def flops_speedup(trace: RunTrace, baseline_flops: float) -> float:
    """Ratio of ``baseline_flops`` to this run's model flops."""
    if trace.totals.total_flops <= 0:
        raise InvalidComparison("trace has no recorded model cost")
    return baseline_flops / trace.totals.total_flops
