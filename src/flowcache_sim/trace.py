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
from .kvcache import CompressionReport, HeadReport, group_size
from .numerics import FLOAT
from .reuse import COMPUTE, REUSE

SCHEMA_VERSION = 5
# RunTrace's packed row types, one value per step or chunk-step, and trace.json's
# base64 little-endian columns but for WINDOW_COLUMNS; chunk_count gives each
# step's run of chunk-step rows, and compute is 1 or 0
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
# the hash packs a step as its global_step, a HASH_ROW slot per chunk-step row and its
# COSTS, then keeps the slot bytes ROW_KEEP[its row's compute flag] marks, or [2] if empty
HASH_ROW = np.dtype([("chunk", "<i8"), ("local_step", "<i8"), ("decision", f"S{len(COMPUTE)}"),
                     ("metric", "<f8"), ("accumulator", "<f8")])   # 39 bytes
ROW_KEEP = np.ones((3, HASH_ROW.itemsize), bool)   # "reuse" drops its pad (decision at 16)
ROW_KEEP[0, 16 + len(REUSE):16 + len(COMPUTE)] = ROW_KEEP[2] = False
COSTS = ("flops", "kv_clean_tokens", "kv_active_tokens", "resident_bytes")
HASH_BLOCK = 64   # steps packed at once, so the hash's transient stays bounded
# the columns the config's chunk windows fix: trace.json leaves them out
WINDOW_COLUMNS = {"global_step", "chunk_count", "chunk", "local_step"}
TRACE_KEYS = {"schema_version", "config", *COLUMNS, "keep", "totals", "final_latents",
              "content_hash"}


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
        offsets = [0, *np.cumsum(self.steps["chunk_count"]).tolist()]
        for i in range(len(self.steps)):
            g, _, *costs = self.steps[i].tolist()
            yield StepRecord(g, self.chunk_steps[offsets[i]:offsets[i + 1]].tolist(), *costs)

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
        h, first = hashlib.sha256(), 0
        width = int(self.steps["chunk_count"].max(initial=0))
        packed = np.dtype([("global_step", "<i8"), ("rows", HASH_ROW, width),
                           *[(name, COLUMNS["steps"][name]) for name in COSTS]])
        for start in range(0, len(self.steps), HASH_BLOCK):
            block = self.steps[start:start + HASH_BLOCK]
            filled = np.arange(width) < block["chunk_count"][:, None]   # the rows' slots
            rows = self.chunk_steps[first:first + filled.sum()]
            first += len(rows)
            kind = np.full(filled.shape, 2)   # each slot's ROW_KEEP row
            kind[filled] = rows["compute"]
            out = np.zeros(len(block), packed)
            for name in ("global_step", *COSTS):
                out[name] = block[name]
            for name in ("chunk", "local_step", "metric", "accumulator"):
                out["rows"][name][filled] = rows[name]
            out["rows"]["decision"][filled] = np.array(DECISIONS, "S")[rows["compute"]]
            keep = np.ones((len(block), packed.itemsize), bool)
            keep[:, 8:packed.fields["flops"][1]] = ROW_KEEP[kind].reshape(len(block), -1)   # slots
            h.update(out.view(np.uint8)[keep.ravel()])
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
        """JSON form: what the config cannot fix, so ``import_trace`` rebuilds the
        window columns and every report field but the ids the keep masks select."""
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            **{table: {name: base64.b64encode(array[name].tobytes()).decode()
                       for name in COLUMNS[table] if name not in WINDOW_COLUMNS}
               for table, array in [("steps", self.steps), ("chunk_steps", self.chunk_steps)]},
            "keep": base64.b64encode(self._keep_bits()).decode(),
            "totals": asdict(self.totals),
            "final_latents": {str(k): base64.b64encode(np.asarray(v, "<f8").tobytes()).decode()
                              for k, v in self.final_latents.items()},
            "content_hash": self.content_hash,
        }, sort_keys=True, separators=(",", ":"))

    def _keep_bits(self) -> bytes:
        """``np.packbits`` of each pass's, then head's, mask over its candidates:
        the head's previous retained ids (for the first pass, every earlier
        token), then the arriving chunk's; a bit is set where the pass kept one."""
        masks, retained = [], None
        for rep in self.compressions:
            ids = np.stack([body.retained_ids for _, body in sorted(rep.heads.items())])
            heads, arrived = np.arange(len(ids))[:, None], rep.candidate_tokens - ids.shape[1]
            first = (rep.arriving_chunk - 1) * arrived   # the arriving chunk's first id
            held = np.zeros((len(ids), first + arrived), bool)
            held[heads, ids] = True
            earlier = held[:, :first] if retained is None else held[heads, retained]
            masks.append(np.hstack([earlier, held[:, first:]]))
            retained = ids
        return np.packbits(np.array(masks, bool)).tobytes()


def _is_int64(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


# field annotation -> (accepts a JSON value, what the value must be), for
# the config's fields
FIELD_TYPES = {
    "int": (_is_int64, "an int64"),
    "Optional[int]": (lambda v: v is None or _is_int64(v), "an int64 or null"),
    "float": (lambda v: _is_int64(v) or isinstance(v, float) and math.isfinite(v),
              "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
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


def read_fields(cls, body: dict, where: str, error: type = InvalidInput):
    """``cls`` built from the JSON object ``body`` at path ``where``: each field
    with ``read_value``, and ``cls``'s own error prefixed."""
    given = {}
    for f in fields(cls):
        if f.name not in body:
            raise error(f"{where}.{f.name} is missing")
        given[f.name] = read_value(body[f.name], f.type, f"{where}.{f.name}", error)
    try:
        return cls(**given)
    except SimulatorError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _column(text, where: str, dtype: str, count: int) -> np.ndarray:
    """The ``count`` values of a column: strict base64 of ``dtype`` bytes."""
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
    if len(values) != count:
        raise InvalidInput(f"{where} has {len(values)} values; {count} expected")
    return values


def _object(body, keys, where: str) -> dict:
    """``body``, a JSON object with no key outside ``keys``."""
    if not isinstance(body, dict):
        raise InvalidInput(f"{where} must be an object")
    if unknown := [key for key in body if key not in keys]:
        raise InvalidInput(f"{where}.{unknown[0]} is not a trace field")
    return body


def import_trace(data: dict | str) -> RunTrace:
    """Rebuild a trace from its JSON form and verify the content hash.

    Only schema v5 is read. The config fixes the window columns and every
    compression report but its retained ids, which the keep masks select.
    Input that breaks a check listed in docs/trace_schema.md raises
    InvalidInput naming its path.
    """
    from .config import build_objects   # config imports armodel, which imports trace

    where = "trace"   # path of the object being read, for error messages
    try:
        if isinstance(data, str):
            data = json.loads(data)
        if (version := data["schema_version"]) != SCHEMA_VERSION or type(version) is not int:
            raise InvalidInput(f"unsupported trace schema {version}")
        _object(data, TRACE_KEYS, where)
        try:
            scene, schedule, _, kv = build_objects(data["config"])[:4]
        except SimulatorError as exc:
            raise InvalidInput(f"trace.config.{exc}") from None
        stride, steps, n = schedule.steps // scene.window, schedule.steps, scene.num_chunks
        tables = []
        # the config gives each table's length; an array is sized only once the
        # input has shown that many values
        for (table, body), count in zip([(table, data[table]) for table in COLUMNS],
                                        [(n - 1) * stride + steps, n * steps]):
            where = f"trace.{table}"
            written = [name for name in COLUMNS[table] if name not in WINDOW_COLUMNS]
            _object(body, written, where)
            columns = {name: _column(body[name], f"{where}.{name}", COLUMNS[table][name], count)
                       for name in written}
            tables.append(array := np.zeros(count, DTYPES[table]))
            for name, values in columns.items():
                nullable = name == "estimate"
                if values.dtype.kind == "f" and not (
                        np.isfinite(values) | nullable & np.isnan(values)).all():
                    raise InvalidInput(f"{where}.{name} must hold finite values"
                                       + " or NaN" * nullable)
                array[name] = values
        where = "trace"
        trace = RunTrace(data["config"], *tables)
        if trace.chunk_steps["compute"].max(initial=0) > 1:
            raise InvalidInput("trace.chunk_steps.compute must hold 0 or 1")
        # chunk i (from 0) runs steps i * stride on; stably sorted, a step's rows go by chunk
        g = (np.arange(n)[:, None] * stride + np.arange(steps)).ravel()
        trace.steps["global_step"], trace.steps["chunk_count"] = np.arange(g[-1] + 1), np.bincount(g)
        trace.chunk_steps["chunk"], trace.chunk_steps["local_step"] = divmod(   # chunks from 1
            np.argsort(g, kind="stable") + steps, steps)
        if not isinstance(finals := data.get("final_latents"), dict):
            raise InvalidInput("trace.final_latents is missing or not an object")
        if finals.keys() != {str(k) for k in range(1, n + 1)}:   # one spelling per chunk
            raise InvalidInput(f"trace.final_latents must hold chunks 1 to {n}")
        finals = {k: _column(finals[str(k)], f"trace.final_latents.{k}", "<f8", scene.numel)
                  .astype(FLOAT).reshape(scene.shape) for k in range(1, n + 1)}
        # every arrival past the `kept` budget chunks compresses back to kept * tpc
        # tokens in whole key groups, each head keeping its own
        tpc, kept, heads = scene.tokens_per_chunk, min(kv.budget_chunks or n, n), kv.key_heads
        passes, candidates = n - kept, (kept + 1) * tpc
        bits = passes * heads * candidates
        raw = _column(data["keep"], "trace.keep", "u1", -(-bits // 8))
        masks = np.unpackbits(raw, count=bits).view(bool).reshape(passes, heads, candidates)
        if np.packbits(masks).tobytes() != raw.tobytes():
            raise InvalidInput("trace.keep must leave its padding bits clear")
        group = group_size(kv.key_granularity, tpc, scene.tokens_per_frame)
        groups = masks.reshape(passes, heads, candidates // group, group)
        bad = (masks.sum(axis=2) != kept * tpc) | (groups.any(3) != groups.all(3)).any(2)
        if bad.any():
            p, h = np.argwhere(bad)[0]
            raise InvalidInput(f"trace.keep[{p}][{h}] must keep {kept * tpc} of {candidates} "
                               f"candidates in whole groups of {group}")
        retained = np.broadcast_to(np.arange(kept * tpc, dtype=np.int64), (heads, kept * tpc))
        for chunk, mask in enumerate(masks, kept + 1):
            arriving = np.broadcast_to(np.arange((chunk - 1) * tpc, chunk * tpc), (heads, tpc))
            retained = np.hstack([retained, arriving])[mask].reshape(heads, kept * tpc)
            retained.flags.writeable = False
            trace.compressions.append(CompressionReport(
                (chunk - 1) * stride + steps - 1, chunk, candidates,   # the step it finished
                {h: HeadReport(retained[h], tpc) for h in range(heads)}))
        trace.finish(finals)
        content_hash = data["content_hash"]
        totals = _object(data["totals"], want := asdict(trace.totals), "trace.totals")
        where = "trace.totals"
        for name, value in want.items():
            if totals[name] != value or type(totals[name]) is not type(value):   # 21.0 for 21
                raise InvalidInput(f"trace.totals.{name} is {totals[name]!r}; "
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
    steps = trace.config["schedule"]["steps"]
    progress = [f"{100.0 * s / steps:.6f}" for s in range(steps)]   # by local step, once each
    lines = [f"schema_version,{SCHEMA_VERSION}",
             "chunk,local_step,progress_pct,metric,decision,estimate"]
    lines += [f"{chunk},{local_step},{progress[local_step]},{metric!r},{DECISIONS[compute]},"
              + ("" if math.isnan(estimate) else repr(estimate))
              for chunk, local_step, compute, metric, _, estimate
              in zip(*(trace.chunk_steps[name].tolist() for name in COLUMNS["chunk_steps"]))]
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
