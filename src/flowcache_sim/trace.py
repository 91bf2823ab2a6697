"""Run tracing: per-step records, cost totals, hashing, export/import.

A trace is the unit of reproducibility: identical config and seed must hash
identically, and the hash covers everything semantically meaningful about a
run (decisions, metrics, accumulators, costs, buffer occupancy, compression
outcomes, final latents) while excluding presentation-only fields.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import operator
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import InvalidComparison, InvalidInput, SimulatorError
from .kvcache import CompressionReport, HeadReport
from .numerics import FLOAT
from .reuse import COMPUTE, REUSE

SCHEMA_VERSION = 4
# trace.json's base64 little-endian columns and RunTrace's packed row types, one
# value per step or chunk-step; chunk_count gives each step's run of chunk-step
# rows, and compute is 1 or 0
COLUMNS = {
    "steps": {"global_step": "<i8", "chunk_count": "<i8", "flops": "<f8",
              "kv_clean_tokens": "<i8", "kv_active_tokens": "<i8",
              "resident_bytes": "<f8"},
    "chunk_steps": {"chunk": "<i8", "local_step": "<i8", "compute": "u1",
                    "metric": "<f8", "accumulator": "<f8",
                    "estimate": "<f8"},   # NaN for a null estimate
}
DTYPES = {table: np.dtype(list(columns.items())) for table, columns in COLUMNS.items()}
DECISIONS = (REUSE, COMPUTE)   # indexed by the compute flag


@dataclass(frozen=True)
class StepRecord:
    global_step: int
    chunks: list[tuple]   # the step's chunk-step rows, in COLUMNS["chunk_steps"] order
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
    reuse_fraction: float = 0.0


def add_in_order(values: list[float]) -> float:
    """``values`` added left to right from 0.0, the same bits on every Python
    (builtin ``sum`` compensates floats from 3.12; numpy reductions go pairwise)."""
    return functools.reduce(operator.add, values, 0.0)


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


@dataclass(eq=False)
class RunTrace:
    """A run's records as ``DTYPES`` rows, one per global step and one per
    chunk-step; step i owns the ``chunk_count[i]`` chunk-step rows after step i - 1's."""

    config: dict
    steps: np.ndarray = field(default_factory=lambda: np.zeros(0, DTYPES["steps"]))
    chunk_steps: np.ndarray = field(default_factory=lambda: np.zeros(0, DTYPES["chunk_steps"]))
    compressions: list[CompressionReport] = field(default_factory=list)
    totals: RunTotals = field(default_factory=RunTotals)
    final_latents: dict[int, np.ndarray] = field(default_factory=dict)
    _hash: Optional[str] = field(default="", init=False, repr=False)   # None until read

    @property
    def content_hash(self) -> str:
        """The hash, computed on the first read after ``finish`` and cached; "" before."""
        if self._hash is None:
            self._hash = self._compute_hash()
        return self._hash

    @property
    def records(self) -> Iterator[StepRecord]:
        """The steps as ``StepRecord``s, each built from its rows when reached."""
        for (g, _, *costs), rows in self._walk():
            yield StepRecord(g, rows, *costs)

    def _walk(self) -> Iterator[tuple[list, list[tuple]]]:
        """Each step's row and its chunk-step rows, so no table is ever a list."""
        offsets = [0, *np.cumsum(self.steps["chunk_count"]).tolist()]
        for i in range(len(self.steps)):
            yield self.steps[i].tolist(), self.chunk_steps[offsets[i]:offsets[i + 1]].tolist()

    def finish(self, final_latents: dict[int, np.ndarray]) -> None:
        """Derive the totals, the flops added with ``add_in_order``, but not the hash."""
        steps, done = self.steps, len(self.chunk_steps)
        computed = int(self.chunk_steps["compute"].sum())
        tokens = steps["kv_clean_tokens"] + steps["kv_active_tokens"]
        self.totals = RunTotals(computed, done - computed, add_in_order(steps["flops"].tolist()),
                                int(tokens.max(initial=0)),
                                float(steps["resident_bytes"].max(initial=0.0)),
                                (done - computed) / done if done else 0.0)
        self.final_latents = final_latents
        self._hash = None

    # -- hashing -----------------------------------------------------------

    def _compute_hash(self) -> str:
        """Bitwise content hash over decisions, metrics, costs, and latents.

        The config snapshot and decision-time estimates are deliberately
        excluded: an epsilon=0 run and a run with the policy disabled differ
        only there and must hash identically.
        """
        h = hashlib.sha256()
        for (g, _, *costs), rows in self._walk():
            fmt, values = ["<q"], [g]
            for chunk, local_step, compute, metric, accumulator, _ in rows:
                decision = DECISIONS[compute].encode()
                fmt.append(f"qq{len(decision)}sdd")
                values += (chunk, local_step, decision, metric, accumulator)
            fmt.append("dqqd")
            h.update(struct.pack("".join(fmt), *values, *costs))
        for rep in self.compressions:
            # the trailing b"0" is the former no_op flag, kept so hashes hold
            h.update(struct.pack("<qqq1s", rep.global_step, rep.arriving_chunk,
                                 rep.candidate_tokens, b"0"))
            for head, body in sorted(rep.heads.items()):
                h.update(struct.pack("<q", head) + body.retained_ids.tobytes()
                         + struct.pack("<q", body.evicted_count))
        for idx in sorted(self.final_latents):   # tobytes is in C order
            h.update(struct.pack("<q", idx) + self.final_latents[idx].tobytes())
        return h.hexdigest()

    # -- export ------------------------------------------------------------

    def to_json(self) -> str:
        """JSON form: the records as ``COLUMNS``, every report field, the totals.

        Retained ids stay arrays until the encoder reaches them, so only one
        head's ids are ever a Python list (``np.ndarray.tolist`` as ``default``).
        """
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            **{table: {name: base64.b64encode(array[name].tobytes()).decode()
                       for name in COLUMNS[table]}
               for table, array in [("steps", self.steps), ("chunk_steps", self.chunk_steps)]},
            "compressions": [{**vars(c), "heads": {str(h): dict(vars(r))
                                                   for h, r in c.heads.items()}}
                             for c in self.compressions],
            "totals": asdict(self.totals),
            "final_latents": {str(k): base64.b64encode(np.asarray(v, "<f8").tobytes()).decode()
                              for k, v in self.final_latents.items()},
            "content_hash": self.content_hash,
        }, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _is_int64(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


# field annotation -> (accepts a JSON value, what the value must be), for
# config sections and trace records alike
FIELD_TYPES = {
    "int": (_is_int64, "an int64"),
    "Optional[int]": (lambda v: v is None or _is_int64(v), "an int64 or null"),
    "float": (lambda v: _is_int64(v) or isinstance(v, float) and math.isfinite(v),
              "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "np.ndarray": (lambda v: isinstance(v, list) and {*map(type, v)} <= {int}
                   and (not v or -2**63 <= min(v) and max(v) < 2**63), "a list of int64s"),
    "tuple[int, int, int, int]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 4
        and all(map(_is_int64, v)), "a list of 4 int64s"),
}


def read_value(value, kind: str, where: str, error: type = InvalidInput):
    """``value`` if it has the JSON type of annotation ``kind``, else ``error``."""
    accepts, expected = FIELD_TYPES[kind]
    if not accepts(value):
        raise error(f"{where} must be {expected}")
    if kind == "np.ndarray":   # read-only, like the ids a compression reports
        value = np.array(value, np.int64)
        value.flags.writeable = False
        return value
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
    if not _is_int64(index) or str(index) != key:   # one spelling per index
        raise InvalidInput(f"{where} key must be an int64")
    return index


def _column(text, where: str, dtype: str, count: Optional[int]) -> np.ndarray:
    """The values of a column or final latent: strict base64 of ``dtype`` bytes,
    ``count`` values unless ``count`` is None."""
    if type(text) is not str:
        raise InvalidInput(f"{where} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:   # binascii.Error, or a non-ASCII character
        raise InvalidInput(f"{where} is not valid base64") from None
    if base64.b64encode(raw).decode() != text:   # unused trailing bits set
        raise InvalidInput(f"{where} is not canonical base64")
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise InvalidInput(f"{where} has {len(raw)} bytes, not a multiple of {size}")
    values = np.frombuffer(raw, dtype)
    if count is not None and len(values) != count:
        raise InvalidInput(f"{where} has {len(values)} values; {count} expected")
    return values


def import_trace(data: dict | str) -> RunTrace:
    """Rebuild a trace from its JSON form and verify the content hash.

    Only schema v4 is read. Input that breaks a check listed in
    docs/trace_schema.md raises InvalidInput naming its path.
    """
    from .config import build_objects   # config imports armodel, which imports trace

    where = "trace"   # path of the object being read, for error messages
    try:
        if isinstance(data, str):
            data = json.loads(data)
        if data["schema_version"] != SCHEMA_VERSION:
            raise InvalidInput(f"unsupported trace schema {data['schema_version']}")
        try:
            scene, schedule, _, kv = build_objects(data["config"])[:4]
        except SimulatorError as exc:
            raise InvalidInput(f"trace.config.{exc}") from None
        tables = []
        for table, body in [(table, data[table]) for table in COLUMNS]:
            where, count = f"trace.{table}", None
            for name, dtype in COLUMNS[table].items():
                values = _column(body[name], f"{where}.{name}", dtype, count)
                if count is None:
                    count, array = len(values), np.zeros(len(values), DTYPES[table])
                nullable = name == "estimate"
                if values.dtype.kind == "f" and not (
                        np.isfinite(values) | nullable & np.isnan(values)).all():
                    raise InvalidInput(f"{where}.{name} must hold finite values"
                                       + " or NaN" * nullable)
                array[name] = values
            tables.append(array)
        where = "trace"
        trace = RunTrace(data["config"], *tables)
        counts, rows = trace.steps["chunk_count"], len(trace.chunk_steps)
        if trace.chunk_steps["compute"].max(initial=0) > 1:
            raise InvalidInput("trace.chunk_steps.compute must hold 0 or 1")
        # each count in [0, rows], so neither the sum nor the offsets can wrap
        if counts.min(initial=0) < 0 or counts.max(initial=0) > rows or counts.sum() != rows:
            raise InvalidInput("trace.steps.chunk_count must be counts that sum "
                               f"to the {rows} chunk-step rows")
        stride, steps, n = schedule.steps // scene.window, schedule.steps, scene.num_chunks
        if rows != n * steps:   # first, so the config sizes no array beyond the input's
            raise InvalidInput(f"trace.chunk_steps has {rows} rows; the config gives {n * steps}")
        # chunk i (from 0) runs steps i * stride on; stably sorted, a step's rows go by chunk
        g = (np.arange(n)[:, None] * stride + np.arange(steps)).ravel()
        order = np.argsort(g, kind="stable")
        for table, name, want in [("steps", "global_step", np.arange(g[-1] + 1)),
                                  ("steps", "chunk_count", np.bincount(g)),
                                  ("chunk_steps", "chunk", order // steps + 1),
                                  ("chunk_steps", "local_step", order % steps)]:
            if not np.array_equal(getattr(trace, table)[name], want):
                raise InvalidInput(f"trace.{table}.{name} does not follow the config's chunk windows")
        # every arrival past the `kept` budget chunks compresses back to kept * tpc tokens
        tpc, kept = scene.tokens_per_chunk, min(kv.budget_chunks or n, n)
        if (reports := len(data["compressions"])) != n - kept:
            raise InvalidInput(f"trace.compressions has {reports} reports; the config gives "
                               f"{n - kept}")
        for i, rep in enumerate(data["compressions"]):
            where, chunk = f"trace.compressions[{i}]", kept + 1 + i
            report = read_fields(CompressionReport, rep, where, heads={})
            for name, want in [("arriving_chunk", chunk), ("candidate_tokens", (kept + 1) * tpc),
                               ("global_step", (chunk - 1) * stride + steps - 1)]:   # it finished
                if getattr(report, name) != want:
                    raise InvalidInput(f"{where}.{name} is {getattr(report, name)}; "
                                       f"the config gives {want}")
            if not isinstance(rep["heads"], dict):
                raise InvalidInput(f"{where}.heads must be an object")
            for head, body in rep["heads"].items():
                where = f"trace.compressions[{i}].heads.{head}"
                index = _int_key(head, where)
                report.heads[index] = read = read_fields(HeadReport, body, where)
                if len(ids := read.retained_ids) != kept * tpc or ids[0] < 0 or (
                        ids[-1] >= chunk * tpc or (ids[1:] <= ids[:-1]).any()
                        or read.evicted_count != tpc):
                    raise InvalidInput(f"{where} must retain {kept * tpc} ascending ids in "
                                       f"[0, {chunk * tpc}) and evict {tpc}")
            if report.heads.keys() != set(range(kv.key_heads)):
                raise InvalidInput(f"trace.compressions[{i}].heads must be heads 0 "
                                   f"to {kv.key_heads - 1}")
            trace.compressions.append(report)
        finals = {}
        if not isinstance(data.get("final_latents"), dict):
            raise InvalidInput("trace.final_latents is missing or not an object")
        for k, v in data["final_latents"].items():
            where = f"trace.final_latents.{k}"
            finals[_int_key(k, where)] = _column(v, where, "<f8", scene.numel).astype(
                FLOAT).reshape(scene.shape)
        if finals.keys() != set(range(1, n + 1)):
            raise InvalidInput(f"trace.final_latents must hold chunks 1 to {n}")
        where = "trace"
        trace.finish(finals)
        content_hash = data["content_hash"]
        where = "trace.totals"
        for name, value in asdict(trace.totals).items():
            if data["totals"][name] != value:
                raise InvalidInput(f"trace.totals.{name} is {data['totals'][name]!r}; "
                                   f"the records give {value!r}")
        where = "trace"   # the first read hashes, so an error hashing is caught below
        if trace.content_hash != content_hash:
            raise InvalidInput("trace content hash mismatch after import")
    except KeyError as exc:
        raise InvalidInput(f"{where}.{exc.args[0]} is missing") from None
    except (TypeError, ValueError, OverflowError, struct.error) as exc:
        raise InvalidInput(f"malformed {where}: {exc}") from None
    return trace


# -- derived views ----------------------------------------------------------

def curves_csv(trace: RunTrace) -> str:
    """CSV rendering of the per-chunk metric curves (no field needs quoting)."""
    rows, steps = trace.chunk_steps, trace.config["schedule"]["steps"]
    lines = [f"schema_version,{SCHEMA_VERSION}",
             "chunk,local_step,progress_pct,metric,decision,estimate"]
    lines += [f"{chunk},{local_step},{progress:.6f},{metric!r},{DECISIONS[compute]},"
              + ("" if math.isnan(estimate) else repr(estimate))
              for chunk, local_step, compute, metric, _, estimate, progress
              in zip(*(rows[name].tolist() for name in COLUMNS["chunk_steps"]),
                     (100.0 * rows["local_step"] / steps).tolist())]
    return "\r\n".join(lines) + "\r\n"


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
