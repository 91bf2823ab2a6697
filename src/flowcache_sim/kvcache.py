"""Fixed-budget KV buffer with joint importance-redundancy scoring.

``KVPlan`` is the run's ``kv`` config section; the buffer is built from it.
The buffer holds the clean region only: the keys of finished chunks, capped
at the plan's budget per head. Clean chunks append uncompressed until the
region would overflow; from then on every arrival triggers a compression
that retains the top-scoring tokens per head, in arrays that last the run.
Chunks still denoising never enter the buffer; the run counts their tokens.

Scoring combines two per-head distributions over the candidate tokens:
importance (attention mass received from recent query tokens, max-pooled for
robustness) and redundancy (mean cosine similarity to the other cached keys,
penalized); neither reads values, so none are kept. Importance takes a GEMM,
an ``exp`` and a GEMV per key head, redundancy two contractions and an ``exp``;
both softmaxes run in place, unshifted, as logits and cosine means are bounded.
The buffer turns the plan's granularities into group sizes once: 1 token, a frame
or a chunk. A compression asks for the query window's rows only, each query
group's rows mean-pooled into one; selection keeps the ``budget`` highest-scoring
tokens per head in whole key groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateInput, InternalError, InvalidConfig, InvalidInput
from .numerics import FLOAT, maxpool1d, stable_topk

@dataclass(frozen=True)
class KVPlan:
    """The run's ``kv`` section: buffer geometry, budget and scoring settings."""

    key_heads: int = 2
    query_heads: int = 4
    head_dim: int = 16
    budget_chunks: Optional[int] = 5   # None disables compression
    mix_lambda: float = 0.07          # weight on importance vs redundancy
    pool_kernel: int = 5              # odd max-pool width over token scores
    query_window: int = 50            # trailing query rows for importance: tokens, or
                                      # pooled frames at frame query granularity
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


def importance(queries: np.ndarray, keys: np.ndarray, plan: KVPlan, *,
               scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-head attention mass over historical tokens, rows summing to 1.

    ``queries`` is (L_q, H_q, d) and ``keys`` is (L_k, H_k, d); query heads
    are grouped contiguously onto key heads (H_q must be a multiple of H_k).
    Only the trailing ``query_window`` query rows contribute, prescaled by 1/sqrt(d).
    Per key head, the logits rows (one GEMM, in ``scratch`` if it fits them) are
    softmaxed over the keys and averaged: ``exp`` in place, unshifted, then one GEMV
    that weights each row by 1 / (its sum * the row count). Unit or zero keys and
    unit queries or means of them keep the buffer's logits in [-1/sqrt(d), 1/sqrt(d)];
    a logit above about 709.8 or a row all below about -708 raises ``InvalidInput``.
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
    if l_k < 1:
        raise InvalidInput("need at least one key row")
    if h_q < 1 or h_k < 1:
        raise InvalidInput(f"need a query and a key head, got {h_q} and {h_k}")
    if h_q % h_k != 0:
        raise InvalidInput(f"query heads {h_q} not divisible by key heads {h_k}")
    group = h_q // h_k
    w = min(plan.query_window, l_q)
    rows = w * group
    # (w, h_q, d) -> (h_k, w * group, d), window rows outermost within a head; scaled
    # out of place, as the reshape may view the caller's queries
    window = (queries[-w:].reshape(w, h_k, group, d_q)
              .transpose(1, 0, 2, 3).reshape(h_k, rows, d_q)) / np.sqrt(d_k)
    # one key head at a time into one (w * group, l_k) logits array: a head's whole
    # GEMM is the one a batched matmul runs (same bits); blocks of its rows are not
    if scratch is None or scratch.size < rows * l_k:
        scratch = np.empty(rows * l_k, dtype=FLOAT)
    logits = scratch[:rows * l_k].reshape(rows, l_k)
    out = np.empty((h_k, l_k), dtype=FLOAT)
    for h in range(h_k):
        np.matmul(window[h], keys[:, h].T, out=logits)
        np.exp(logits, out=logits)   # softmax is shift-invariant: no row max
        sums = logits.sum(axis=1)   # finite iff every entry is; if at least tiny, so is 1/sums
        if not np.isfinite(sums).all():
            raise InvalidInput("softmax produced a non-finite value")
        if sums.min() < np.finfo(FLOAT).tiny:
            raise InvalidInput("softmax row sum vanished (a row of logits all below about -708)")
        np.dot(1.0 / (sums * rows), logits, out=out[h])
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
    mean unit keys of all heads are one contraction of the keys with their
    reciprocal norms, so transient memory stays O(H * L). The means are cosines in
    [-1 - 1/L, 1], so each head's softmax is an unshifted ``exp`` in place, a row sum
    (non-finite: ``InvalidInput``) and a divide, within 1e-9 of verify.redundancy_naive.
    """
    keys = np.asarray(keys, dtype=FLOAT)
    if keys.ndim != 3:
        raise InvalidInput("keys must be rank-3 (tokens, heads, dim)")
    l_k = keys.shape[0]
    if l_k < 2:
        raise InvalidInput("redundancy needs at least two tokens")
    norms = np.sqrt(np.einsum("lhd,lhd->lh", keys, keys))   # (L, H)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm key row")
    mean_unit = np.einsum("lhd,lh->hd", keys, 1.0 / norms) / l_k
    # einsum reads the strided keys without a copy; C order makes each head's
    # softmax sum contiguous, so the head count cannot change its order
    col_mean = np.einsum("lhd,hd->hl", keys, mean_unit, order="C")   # (H, L)
    col_mean /= norms.T
    col_mean -= 1.0 / l_k
    np.exp(col_mean, out=col_mean)   # of at most e: no row max
    sums = col_mean.sum(axis=1, keepdims=True)   # finite iff every entry is
    if not np.isfinite(sums).all():
        raise InvalidInput("redundancy produced a non-finite value")
    col_mean /= sums
    return col_mean


def select_tokens(score_row: np.ndarray, budget_tokens: int, group: int) -> np.ndarray:
    """Positions retained by one head's scores under the token budget.

    Scores are mean-aggregated into contiguous groups of ``group`` tokens (1, a
    frame or a chunk), the top floor(budget / group) groups are picked and
    every member token of them is retained. Returned positions are ascending.
    """
    score_row = np.asarray(score_row, dtype=FLOAT)
    if score_row.ndim != 1 or group < 1 or score_row.size % group:
        raise InvalidInput(f"need a 1-D score row of whole {group}-token groups, "
                           f"got shape {score_row.shape}")
    n_groups = min(budget_tokens // group, score_row.size // group)
    if n_groups < 1:
        raise InvalidConfig(f"budget {budget_tokens} below one group of {group} tokens")
    means = score_row.reshape(-1, group).mean(axis=1) if group > 1 else score_row   # x/1 == x
    picked = stable_topk(means, n_groups)
    return (picked[:, None] * group + np.arange(group)).reshape(-1)


def group_size(granularity: str, tokens_per_chunk: int, frame_tokens: int) -> int:
    """Tokens in one group at ``granularity``: 1, a frame or a chunk."""
    return {"token": 1, "frame": frame_tokens, "chunk": tokens_per_chunk}[granularity]


@dataclass(eq=False)   # array fields: compare them with np.array_equal
class HeadReport:
    retained_ids: np.ndarray   # read-only int64, ascending; may view a shared table
    evicted_count: int


@dataclass
class CompressionReport:
    """Record of one compression pass; trace.json keeps only its keep masks."""

    global_step: int
    arriving_chunk: int
    candidate_tokens: int
    heads: dict[int, HeadReport] = field(default_factory=dict)


class KVBuffer:
    """Compressed clean region of the key cache, under the plan's budget.

    Holds the tokens of finished chunks as dense token-major arrays: keys
    (L, H, d) and global token ids (L, H). Every compression keeps the same
    count for each head, so the region stays dense; row i of head h is that
    head's i-th retained token, in ascending id order. Keys are written in place into
    ``budget + tokens_per_chunk`` rows; compressions score and gather them in one scratch,
    sized at the first for a head's logits and the candidates' keys. Chunks still
    denoising are not stored here: their occupancy is a token count that
    ``run_denoise`` keeps, and a run without a budget keeps no buffer.
    The budget is ``plan.budget_chunks`` whole chunks. The plan's granularities
    become group sizes here, once, by ``group_size``. Selection keeps whole key
    groups, and each query group's rows are mean-pooled into one, so the query
    window counts query groups.
    """

    def __init__(self, plan: KVPlan, tokens_per_chunk: int, frame_tokens: int):
        if min(tokens_per_chunk, frame_tokens) < 1 or tokens_per_chunk % frame_tokens:
            raise InvalidConfig("buffer dimensions must be positive, a chunk whole frames")
        if plan.budget_chunks is None:
            raise InvalidConfig("a KV buffer needs budget_chunks")
        self.plan = plan
        self.tokens_per_chunk = tokens_per_chunk
        self.budget_tokens = plan.budget_chunks * tokens_per_chunk
        self.key_group = group_size(plan.key_granularity, tokens_per_chunk, frame_tokens)
        self.query_group = group_size(plan.query_granularity, tokens_per_chunk, frame_tokens)
        self._arrived = 0   # the last arrival's chunk index
        self._keys = np.empty((self.budget_tokens + tokens_per_chunk, plan.key_heads,
                               plan.head_dim), dtype=FLOAT)   # rows past clean_tokens unused
        self._scratch = None
        self._ids = np.empty((0, plan.key_heads), dtype=np.int64)

    @property
    def clean_tokens(self) -> int:
        return int(self._ids.shape[0])

    def add_clean_chunk(self, chunk_index: int, keys: np.ndarray,
                        queries: Callable[[int], np.ndarray],
                        global_step: int) -> Optional[CompressionReport]:
        """Fold a finished chunk's (tokens, heads, dim) ``keys`` into the clean region.

        Appends while the clean region fits the budget; once an arrival
        overflows it, the merged candidate set is compressed on every arrival,
        scored against the query rows of the last ``n`` tokens, which
        ``queries(n)`` returns: ``n`` covers the query window in whole query
        groups. Chunk indices start at 1 and ascend, so the token ids do. Returns
        the compression report, or None during the fill phase, which never calls
        ``queries``.
        """
        if chunk_index <= self._arrived:
            raise InvalidInput(f"chunk_index {chunk_index} must be above {self._arrived}")
        n = self.clean_tokens
        if keys.shape != (self.tokens_per_chunk, *self._keys.shape[1:]):
            raise InvalidInput(f"bad key shape {keys.shape}")
        self._arrived = chunk_index
        base = (chunk_index - 1) * self.tokens_per_chunk
        new_ids = base + np.arange(self.tokens_per_chunk, dtype=np.int64)
        self._keys[n:n + self.tokens_per_chunk] = keys
        self._ids = np.concatenate(
            [self._ids, np.broadcast_to(new_ids[:, None], keys.shape[:2])])
        del keys   # not held across the compression
        if self.clean_tokens <= self.budget_tokens:
            return None
        return self._compress(chunk_index, queries, global_step)

    def _compress(self, chunk_index: int, queries: Callable[[int], np.ndarray],
                  global_step: int) -> CompressionReport:
        """Score the over-budget clean region and keep the budget per head."""
        plan, group = self.plan, self.query_group
        n_cand = self.clean_tokens
        query_rows = queries(min(plan.query_window, self.tokens_per_chunk // group) * group)
        if group > 1:   # one mean row per group; token granularity makes no copy
            query_rows = query_rows.reshape(-1, group, *query_rows.shape[1:]).mean(axis=1)
        if self._scratch is None:   # every later compression has the same shapes
            rows = min(plan.query_window, len(query_rows)) * query_rows.shape[1] // plan.key_heads
            self._scratch = np.empty(max(rows, self._keys[0].size) * len(self._keys), FLOAT)
        scores = score_candidates(query_rows, self._keys[:n_cand], plan, scratch=self._scratch)
        keep = np.stack(
            [select_tokens(row, self.budget_tokens, self.key_group) for row in scores],
            axis=1)                                      # (kept, H)
        if keep.min() < 0 or keep.max() >= n_cand:   # take's clip mode would hide it
            raise InternalError("selected a position outside the candidates")
        # row keep[i, h] of head h into the scratch (mode "raise" would buffer all of out)
        heads, d = np.arange(plan.key_heads), plan.head_dim
        gathered = self._scratch[:keep.size * d].reshape(*keep.shape, d)
        np.take(self._keys.reshape(-1, d), keep * len(heads) + heads, 0, gathered, "clip")
        self._keys[:len(keep)] = gathered
        self._ids = self._ids[keep, heads]
        self._ids.flags.writeable = False   # the report below views its columns
        return CompressionReport(global_step, chunk_index, n_cand, {
            h: HeadReport(self._ids[:, h], n_cand - len(keep)) for h in heads.tolist()})


def score_candidates(queries: np.ndarray, keys: np.ndarray, plan: KVPlan, *,
                     scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Combined (heads, L) score of a candidate key set, all heads at once."""
    pooled = pooled_importance(importance(queries, keys, plan, scratch=scratch), plan)
    return plan.mix_lambda * pooled - (1.0 - plan.mix_lambda) * redundancy_fast(keys)
