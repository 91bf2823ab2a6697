"""Span tracer that wraps flowcache_sim's public functions from outside.

A wrap only takes effect where it replaces the name the caller looks up, so
each span name lists every binding its callers use (``armodel.decide``, not
``reuse.decide``; methods on their class). Spans are kept in memory as
``[name, start, end, parent, op, thread, note]`` lists and written out when
the run ends.

Self time is a span's interval minus the union of its children's intervals.
A span opened on a thread with no open span of its own (a sweep pool worker)
is parented to the innermost open span of the thread that opened the op, so
``cli`` self time excludes the simulations its pool runs. Pool spans overlap
and include time spent waiting for the interpreter lock, so per-layer times
are the wall time covered by the union of a layer's spans, never their sum.
"""

from __future__ import annotations

import csv
import gzip
import threading
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP, THREAD, NOTE = range(7)


def _importance_cost(args, kwargs, result):
    """(flop, bytes) of one importance call, from its argument shapes.

    Logits cost 2*d per query-key pair; scaling, the five softmax passes and
    the mean cost 7 per logit. Bytes are the inputs read plus the output
    written, at 8 bytes per float64.
    """
    queries, keys, config = args
    l_q, h_q, d = np.shape(queries)
    l_k, h_k, _ = np.shape(keys)
    w = min(config.query_window, l_q)
    pairs = w * h_q * l_k
    return 2 * d * pairs + 7 * pairs, 8 * (w * h_q * d + l_k * h_k * d + h_k * l_k)


def _compress_counts(args, kwargs, report):
    """(candidate tokens, retained over heads, candidates over heads)."""
    retained = sum(len(h.retained_ids) for h in report.heads.values())
    return report.candidate_tokens, retained, report.candidate_tokens * len(report.heads)


def targets():
    """(span name, [(owner, attribute)], note) for every wrapped function."""
    from flowcache_sim import armodel, cli, config, kvcache, trace

    def action(args, kwargs, result):
        return result.action

    def appended(args, kwargs, result):
        return result is None

    def size(args, kwargs, result):
        return len(result)

    return [
        ("cli", [(cli, "main")], None),
        ("config.resolve_config",
         [(cli, "resolve_config"), (config, "resolve_config")], None),
        ("config.build_objects",
         [(cli, "build_objects"), (config, "build_objects")], None),
        ("armodel.run_denoise",
         [(cli, "run_denoise"), (armodel, "run_denoise")], None),
        ("armodel.perturbed_velocity", [(armodel, "perturbed_velocity")], None),
        ("reuse.estimate_metric", [(armodel, "estimate_metric")], None),
        ("reuse.decide", [(armodel, "decide")], action),
        ("reuse.apply", [(armodel, "apply")], None),
        ("kvcache.add_clean_chunk", [(kvcache.KVBuffer, "add_clean_chunk")], appended),
        ("kvcache.compress", [(kvcache.KVBuffer, "_compress")], _compress_counts),
        ("kvcache.score_candidates", [(kvcache, "score_candidates")], None),
        ("kvcache.importance", [(kvcache, "importance")], _importance_cost),
        ("kvcache.pooled_importance", [(kvcache, "pooled_importance")], None),
        ("kvcache.redundancy_fast", [(kvcache, "redundancy_fast")], None),
        ("kvcache.select_tokens", [(kvcache, "select_tokens")], None),
        ("trace.finish", [(trace.RunTrace, "finish")], None),
        ("trace.to_json", [(trace.RunTrace, "to_json")], size),
        ("trace.curves_csv", [(cli, "curves_csv")], None),
        ("trace.import_trace", [(trace, "import_trace")], None),
    ]


class Tracer:
    """Records spans while installed; ``op`` opens the root span of one op."""

    def __init__(self):
        self.spans: list[list] = []
        self._targets = targets()
        self._local = threading.local()
        self._root = None
        self._op_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else self._root
            span = [name, 0.0, 0.0, parent, parent[OP], threading.get_ident(), None]
            self.spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id, kind: str = "op"):
        """Install the wraps and record one root span around the block."""
        originals = []
        for name, bindings, note in self._targets:
            for owner, attr in bindings:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, note))
        root = [kind, 0.0, 0.0, None, op_id, threading.get_ident(), None]
        self.spans.append(root)
        self._root, self._op_stack = root, self._stack()
        root[START] = time.perf_counter()
        try:
            yield
        finally:
            root[END] = time.perf_counter()
            self._root, self._op_stack = None, []
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write every span as gzipped CSV rows, parents by row number."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "thread", "name", "start", "end"])
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else index[id(s[PARENT])]
                out.writerow([i, parent, s[OP], s[THREAD], s[NAME],
                              repr(s[START]), repr(s[END])])


# -- interval arithmetic ------------------------------------------------------

def union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def covered(intervals) -> float:
    return sum(hi - lo for lo, hi in union(intervals))


def minus(lo: float, hi: float, holes) -> list[tuple[float, float]]:
    """The parts of [lo, hi] outside the given intervals."""
    out, at = [], lo
    for h_lo, h_hi in union(holes):
        if h_hi <= at or h_lo >= hi:
            continue
        if h_lo > at:
            out.append((at, h_lo))
        at = max(at, h_hi)
    if at < hi:
        out.append((at, hi))
    return out


# -- per-layer metrics ----------------------------------------------------------

CONFIG_SPANS = ("config.resolve_config", "config.build_objects")
# spans that the output check (root op id ("check", i)) contributes to op i
CHECK_SPANS = ("trace.import_trace",)


def layer_metrics(spans, op_ids) -> dict[str, float]:
    """Per-layer metrics, per traced op unless the name says otherwise.

    ``<span>.s`` and ``<span>.self_s`` are seconds per op covered by the
    span's intervals and self intervals; ``<span>.calls`` is calls per op.
    The config spans are timed per call, set-up calls included.
    """
    ops = set(op_ids)
    checks = {("check", i) for i in ops}
    n_ops = len(ops)
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append(s)

    per_op: dict[tuple, list] = {}
    self_per_op: dict[tuple, list] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    config_time: dict[str, list] = {}
    for s in spans:
        name = s[NAME]
        if name in CONFIG_SPANS:
            config_time.setdefault(name, []).append(s[END] - s[START])
        if s[PARENT] is None:
            continue
        if s[OP] not in ops and not (s[OP] in checks and name in CHECK_SPANS):
            continue
        calls[name] = calls.get(name, 0) + 1
        key = (name, s[OP])
        per_op.setdefault(key, []).append((s[START], s[END]))
        kids = [(c[START], c[END]) for c in children.get(id(s), ())]
        self_per_op.setdefault(key, []).extend(minus(s[START], s[END], kids))
        if s[NOTE] is not None:
            notes.setdefault(name, []).append(s[NOTE])
        if name == "kvcache.add_clean_chunk" and s[NOTE]:
            per_op.setdefault(("kvcache.append", s[OP]), []).append((s[START], s[END]))

    out: dict[str, float] = {}
    for (name, _), intervals in per_op.items():
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + covered(intervals) / n_ops
    for (name, _), intervals in self_per_op.items():
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + covered(intervals) / n_ops
    for name, count in calls.items():
        out[f"{name}.calls"] = count / n_ops
    for name, times in config_time.items():
        out[f"{name}.s"] = sum(times) / len(times)

    imp = notes.get("kvcache.importance", [])
    out["kvcache.importance.flop"] = sum(f for f, _ in imp) / n_ops
    out["kvcache.importance.bytes"] = sum(b for _, b in imp) / n_ops
    comp = notes.get("kvcache.compress", [])
    out["kvcache.candidate_tokens"] = sum(c for c, _, _ in comp) / n_ops
    head_cands = sum(c for _, _, c in comp)
    out["kvcache.retained_ratio"] = (
        sum(r for _, r, _ in comp) / head_cands if head_cands else 0.0)
    actions = notes.get("reuse.decide", [])
    out["reuse.reuse_ratio"] = (
        sum(a == "reuse" for a in actions) / len(actions) if actions else 0.0)
    out["trace.to_json.bytes"] = sum(notes.get("trace.to_json", [])) / n_ops
    out["cli.sims_per_op"] = calls.get("armodel.run_denoise", 0) / n_ops
    return out
