"""Fixed-budget KV buffer with joint importance-redundancy scoring.

``KVPlan`` is the run's ``kv`` config section; the buffer is built from it.
The buffer holds the clean region only: the keys of finished chunks, capped
at the plan's budget per head. Clean chunks append uncompressed until the
region would overflow; from then on every arrival triggers a compression
that retains the top-scoring tokens per head. Chunks still denoising never
enter the buffer; the run counts their tokens.

Scoring combines two per-head distributions over the candidate tokens:
importance (attention mass received from recent query tokens, max-pooled for
robustness) and redundancy (mean cosine similarity to the other cached keys,
penalized); neither reads values, so none are kept. Queries are asked for
only when a compression scores them, optionally mean-pooled per frame.
Selection keeps the ``budget`` highest-scoring tokens per head, optionally at
frame or chunk granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateInput, InvalidConfig, InvalidInput
from .numerics import FLOAT, maxpool1d, softmax_, stable_topk

# Blocked accumulation bound for the fast redundancy kernel; keeps peak
# transient allocation at O(block * H * d + H * L) instead of O(H * L^2).
_REDUNDANCY_BLOCK = 512


@dataclass(frozen=True)
class KVPlan:
    """The run's ``kv`` section: buffer geometry, budget and scoring settings."""

    key_heads: int = 2
    query_heads: int = 4
    head_dim: int = 16
    budget_chunks: Optional[int] = 5   # None disables compression
    mix_lambda: float = 0.07          # weight on importance vs redundancy
    pool_kernel: int = 5              # odd max-pool width over token scores
    query_window: int = 50            # trailing query tokens used for importance
    query_granularity: str = "token"  # token | frame
    key_granularity: str = "token"    # token | frame | chunk

    def __post_init__(self):
        if not 0.0 <= self.mix_lambda <= 1.0:
            raise InvalidInput(f"mix_lambda must be in [0, 1], got {self.mix_lambda}")
        if self.pool_kernel < 1 or self.pool_kernel % 2 == 0:
            raise InvalidInput(f"pool_kernel must be odd, got {self.pool_kernel}")
        if self.query_window < 1:
            raise InvalidInput("query_window must be >= 1")
        if self.query_granularity not in ("token", "frame"):
            raise InvalidConfig(f"unknown query granularity {self.query_granularity!r}")
        if self.key_granularity not in ("token", "frame", "chunk"):
            raise InvalidConfig(f"unknown key granularity {self.key_granularity!r}")
        if self.key_heads < 1 or self.query_heads < 1 or self.head_dim < 1:
            raise InvalidConfig("head counts and head_dim must be positive")
        if self.query_heads % self.key_heads != 0:
            raise InvalidConfig("query_heads must be a multiple of key_heads")
        if self.budget_chunks is not None and self.budget_chunks < 1:
            raise InvalidConfig("budget_chunks must be positive or None")


def importance(queries: np.ndarray, keys: np.ndarray, plan: KVPlan) -> np.ndarray:
    """Per-head attention mass over historical tokens, rows summing to 1.

    ``queries`` is (L_q, H_q, d) and ``keys`` is (L_k, H_k, d); query heads
    are grouped contiguously onto key heads (H_q must be a multiple of H_k).
    Only the trailing ``query_window`` query rows contribute. For each key
    head the scaled dot-product rows are softmaxed over the key axis and
    averaged over the contributing query rows.
    """
    queries = np.asarray(queries, dtype=FLOAT)
    keys = np.asarray(keys, dtype=FLOAT)
    if queries.ndim != 3 or keys.ndim != 3:
        raise InvalidInput("queries and keys must be rank-3 (tokens, heads, dim)")
    l_q, h_q, d_q = queries.shape
    l_k, h_k, d_k = keys.shape
    if d_q != d_k:
        raise InvalidInput(f"head dim mismatch {d_q} vs {d_k}")
    if l_q < 1:
        raise InvalidInput("need at least one query row")
    if h_q < 1 or h_k < 1:
        raise InvalidInput(f"need a query and a key head, got {h_q} and {h_k}")
    if h_q % h_k != 0:
        raise InvalidInput(f"query heads {h_q} not divisible by key heads {h_k}")
    group = h_q // h_k
    w = min(plan.query_window, l_q)
    # (w, h_q, d) -> (h_k, w * group, d), window rows outermost within a head
    window = (queries[-w:].reshape(w, h_k, group, d_q)
              .transpose(1, 0, 2, 3).reshape(h_k, w * group, d_q))
    # one key head at a time: the peak holds one head's (w * group, l_k)
    # logits, and each head's GEMM is the one a batched matmul runs (same bits)
    keys_t = keys.transpose(1, 2, 0)
    out = np.empty((h_k, l_k), dtype=FLOAT)
    for h in range(h_k):
        logits = np.matmul(window[h], keys_t[h])
        logits /= np.sqrt(d_k)
        out[h] = softmax_(logits, axis=-1).mean(axis=0)
        del logits   # freed before the next head's are allocated
    return out


def pooled_importance(imp: np.ndarray, plan: KVPlan) -> np.ndarray:
    """Max-pool each head's importance row for robustness to spiky scores."""
    imp = np.asarray(imp, dtype=FLOAT)
    if imp.ndim != 2:
        raise InvalidInput("importance must be (heads, tokens)")
    return maxpool1d(imp, plan.pool_kernel)


def redundancy_fast(keys: np.ndarray) -> np.ndarray:
    """Redundancy without the LxL matrix: mean-key dot products per token.

    The column mean of the zero-diagonal cosine matrix equals the dot product
    of each unit key with the mean of all unit keys, minus the token's own
    self-similarity contribution (exactly 1/L after row normalization). The
    mean unit keys of all heads accumulate blockwise, so peak transient memory
    stays O(block * H * d + H * L); results match verify.redundancy_naive within 1e-9.
    """
    keys = np.asarray(keys, dtype=FLOAT)
    if keys.ndim != 3:
        raise InvalidInput("keys must be rank-3 (tokens, heads, dim)")
    l_k, h_k, d = keys.shape
    if l_k < 2:
        raise InvalidInput("redundancy needs at least two tokens")
    norms = np.sqrt(np.einsum("lhd,lhd->lh", keys, keys))   # (L, H)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm key row")
    mean_unit = np.zeros((h_k, d), dtype=FLOAT)
    for start in range(0, l_k, _REDUNDANCY_BLOCK):
        block = keys[start:start + _REDUNDANCY_BLOCK]
        mean_unit += (block / norms[start:start + _REDUNDANCY_BLOCK, :, None]).sum(axis=0)
    mean_unit /= l_k
    # einsum reads the strided keys without a copy; C order makes each head's
    # softmax sum contiguous, so the head count cannot change its order
    col_mean = np.einsum("lhd,hd->hl", keys, mean_unit, order="C")   # (H, L)
    col_mean /= norms.T
    col_mean -= 1.0 / l_k
    return softmax_(col_mean, axis=-1)


def combined_score(pooled_imp: np.ndarray, redundancy: np.ndarray,
                   mix_lambda: float) -> np.ndarray:
    """lambda * pooled importance - (1 - lambda) * redundancy, per head."""
    if not 0.0 <= mix_lambda <= 1.0:
        raise InvalidInput(f"lambda must be in [0, 1], got {mix_lambda}")
    pooled_imp = np.asarray(pooled_imp, dtype=FLOAT)
    redundancy = np.asarray(redundancy, dtype=FLOAT)
    if pooled_imp.shape != redundancy.shape:
        raise InvalidInput("score shapes differ")
    return mix_lambda * pooled_imp - (1.0 - mix_lambda) * redundancy


def granularity_aggregate(scores: np.ndarray, group_size: int) -> np.ndarray:
    """Mean-aggregate token scores into contiguous groups of ``group_size``."""
    scores = np.asarray(scores, dtype=FLOAT)
    if group_size < 1:
        raise InvalidConfig(f"group size must be >= 1, got {group_size}")
    if scores.shape[-1] % group_size != 0:
        raise InvalidConfig(
            f"{scores.shape[-1]} tokens not divisible by group size {group_size}")
    grouped = scores.reshape(*scores.shape[:-1], -1, group_size)
    return grouped.mean(axis=-1)


def select_tokens(score_row: np.ndarray, budget_tokens: int, key_granularity: str,
                  frame_size: int, chunk_size: int) -> np.ndarray:
    """Positions retained by one head's scores under the token budget.

    Token, frame and chunk granularity mean-aggregate scores into groups of
    1, ``frame_size`` and ``chunk_size`` tokens, pick whole groups (budget
    interpreted as floor(budget / group size) groups), and retain every
    member token of the chosen groups. Returned positions are ascending.
    """
    group = {"token": 1, "frame": frame_size, "chunk": chunk_size}.get(key_granularity)
    if group is None:
        raise InvalidConfig(f"unknown key granularity {key_granularity!r}")
    coarse = granularity_aggregate(score_row, group)
    n_groups = min(budget_tokens // group, coarse.size)
    if n_groups < 1:
        raise InvalidConfig(
            f"budget {budget_tokens} below one {key_granularity} of {group} tokens")
    picked = stable_topk(coarse, n_groups)
    members = picked[:, None] * group + np.arange(group)[None, :]
    return members.reshape(-1)


@dataclass
class HeadReport:
    retained_ids: list[int]
    evicted_count: int
    score_min: float
    score_max: float
    score_mean: float


@dataclass
class CompressionReport:
    """Record of one compression pass; ``RunTrace.to_dict`` writes its JSON."""

    global_step: int
    arriving_chunk: int
    candidate_tokens: int
    heads: dict[int, HeadReport] = field(default_factory=dict)


class KVBuffer:
    """Compressed clean region of the key cache, under the plan's budget.

    Holds the tokens of finished chunks as dense token-major arrays: keys
    (L, H, d) and global token ids (L, H). Every compression keeps the same
    count for each head, so the region stays dense; row i of head h is that
    head's i-th retained token, in ascending id order. Chunks still
    denoising are not stored here: their occupancy is a token count that
    ``run_denoise`` keeps, and a run without a budget keeps no buffer.
    The budget is ``plan.budget_chunks`` whole chunks. ``frame_tokens`` is
    the frame size: the group that frame key granularity selects and the
    rows that frame query granularity mean-pools.
    """

    def __init__(self, plan: KVPlan, tokens_per_chunk: int, frame_tokens: int):
        if min(tokens_per_chunk, frame_tokens) < 1:
            raise InvalidConfig("buffer dimensions must be positive")
        if plan.budget_chunks is None:
            raise InvalidConfig("a KV buffer needs budget_chunks")
        self.plan = plan
        self.tokens_per_chunk = tokens_per_chunk
        self.budget_tokens = plan.budget_chunks * tokens_per_chunk
        self.frame_tokens = frame_tokens
        self._keys = np.empty((0, plan.key_heads, plan.head_dim), dtype=FLOAT)
        self._ids = np.empty((0, plan.key_heads), dtype=np.int64)

    @property
    def clean_tokens(self) -> int:
        return int(self._ids.shape[0])

    def retained_ids(self, head: int) -> np.ndarray:
        return self._ids[:, head].copy()

    def add_clean_chunk(self, chunk_index: int, keys: np.ndarray,
                        queries: Callable[[], np.ndarray],
                        global_step: int) -> Optional[CompressionReport]:
        """Fold a finished chunk's keys into the clean region.

        Appends while the clean region fits the budget; once an arrival
        overflows it, the merged candidate set is compressed on every arrival,
        scored against the query rows ``queries()`` returns. Returns the
        compression report, or None during the fill phase, which never
        calls ``queries``.
        """
        if keys.shape != (self.tokens_per_chunk, *self._keys.shape[1:]):
            raise InvalidInput(f"bad key shape {keys.shape}")
        base = (chunk_index - 1) * self.tokens_per_chunk
        new_ids = base + np.arange(self.tokens_per_chunk, dtype=np.int64)
        self._keys = np.concatenate([self._keys, keys])
        self._ids = np.concatenate(
            [self._ids, np.broadcast_to(new_ids[:, None], keys.shape[:2])])
        if self.clean_tokens <= self.budget_tokens:
            return None
        return self._compress(chunk_index, queries, global_step)

    def _compress(self, chunk_index: int, queries: Callable[[], np.ndarray],
                  global_step: int) -> CompressionReport:
        """Score the over-budget clean region and keep the budget per head."""
        plan = self.plan
        n_cand = self.clean_tokens
        query_rows = queries()
        if plan.query_granularity == "frame":
            query_rows = pool_queries_by_frame(query_rows, self.frame_tokens)
        scores = score_candidates(query_rows, self._keys, plan)
        keep = np.stack(
            [select_tokens(row, self.budget_tokens, plan.key_granularity,
                           self.frame_tokens, self.tokens_per_chunk)
             for row in scores], axis=1)                 # (kept, H)
        heads = np.arange(plan.key_heads)
        self._keys = self._keys[keep, heads]
        self._ids = self._ids[keep, heads]
        report = CompressionReport(
            global_step=global_step, arriving_chunk=chunk_index,
            candidate_tokens=n_cand)
        for h, row in enumerate(scores):
            report.heads[h] = HeadReport(
                retained_ids=self._ids[:, h].tolist(),
                evicted_count=n_cand - keep.shape[0],
                score_min=float(row.min()), score_max=float(row.max()),
                score_mean=float(row.mean()))
        return report


def score_candidates(queries: np.ndarray, keys: np.ndarray,
                     plan: KVPlan) -> np.ndarray:
    """Combined (heads, L) score of a candidate key set, all heads at once."""
    imp = importance(queries, keys, plan)
    pooled = pooled_importance(imp, plan)
    red = redundancy_fast(keys)
    return combined_score(pooled, red, plan.mix_lambda)


def pool_queries_by_frame(queries: np.ndarray, frame_size: int) -> np.ndarray:
    """Mean-pool query rows into per-frame query vectors (frame granularity)."""
    queries = np.asarray(queries, dtype=FLOAT)
    if queries.shape[0] % frame_size != 0:
        raise InvalidConfig(
            f"{queries.shape[0]} query rows not divisible by frame size {frame_size}")
    return queries.reshape(-1, frame_size, *queries.shape[1:]).mean(axis=1)
