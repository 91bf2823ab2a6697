"""Synthetic autoregressive chunked denoiser.

A scene is a sequence of chunks with known clean latents, so the optimal
velocity field has a closed form and every run is exactly reproducible from
(config, seed). Chunks enter denoising staggered by steps/window global
steps (at most ``window`` active at once) and each performs ``steps`` local
denoising steps. ``trajectory`` runs that denoising and never touches the KV
buffer; ``run_denoise`` reads its events, feeds finished chunks' projected
keys into the buffer, and accounts occupancy and cost.

The expensive transformer forward is replaced by a cost model: a computed
chunk-step is charged a fixed forward cost plus an attention cost
proportional to query tokens times resident KV tokens; reused steps are
free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidConfig, InvalidInput, Singularity
from .kvcache import KVBuffer, KVPlan
from .numerics import FLOAT, l1_norm
from .reuse import (COMPUTE, ChunkReuseState, Decision, ReusePolicy, apply,
                    decide, estimate_metric)
from .schedule import PowerLawSchedule
from .trace import DTYPES, RunTrace, _config_snapshot

# seed-stream tags, so every random draw has a stable address
_TAG_NOISE = 1
_TAG_CLEAN = 2
_TAG_VEL_NOISE = 3
_TAG_PROJ = 4


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene: chunk count, window, latent shape, norm profile."""

    num_chunks: int = 10
    window: int = 4
    shape: tuple[int, int, int, int] = (8, 4, 6, 6)   # (channels, time, h, w)
    seed: int = 0
    norm_spread: float = 0.25
    norm_base: float = 0.02   # mean |element| of the first chunk's clean latent

    def __post_init__(self):
        if self.num_chunks < 1:
            raise InvalidConfig("num_chunks must be >= 1")
        if not 1 <= self.window <= self.num_chunks:
            raise InvalidConfig("window must satisfy 1 <= window <= num_chunks")
        if len(self.shape) != 4 or any(n < 1 for n in self.shape):
            raise InvalidConfig(f"bad latent shape {self.shape}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.norm_spread <= 0:
            raise InvalidConfig("norm_spread must be positive")
        if self.norm_base <= 0:
            raise InvalidConfig("norm_base must be positive")

    @property
    def numel(self) -> int:
        return int(np.prod(self.shape))

    @property
    def tokens_per_chunk(self) -> int:
        _, s, h, w = self.shape
        return s * h * w

    @property
    def tokens_per_frame(self) -> int:
        _, _, h, w = self.shape
        return h * w

    def clean_norm(self, chunk_index: int) -> float:
        """Target L1 norm of chunk ``chunk_index``'s clean latent (1-based)."""
        spread = self.norm_spread * (chunk_index - 1) / self.num_chunks
        return self.norm_base * self.numel * (1.0 + spread)


@dataclass(frozen=True)
class CostModel:
    """Abstract cost accounting for the simulated forward pass."""

    flops_per_chunk_forward: float = 1.0
    flops_per_kv_token_pair: float = 1e-6
    bytes_per_kv_token: float = 256.0   # 2 stores (K and V; only K kept) * heads * dim * 4B

    def __post_init__(self):
        if min(self.flops_per_chunk_forward, self.flops_per_kv_token_pair,
               self.bytes_per_kv_token) < 0:
            raise InvalidConfig("cost model entries must be nonnegative")

    def step_flops(self, computed: int, tokens_per_chunk: int,
                   resident_before: int) -> float:
        """Charge of one global step in which ``computed`` chunks compute.

        Each pays the forward plus attention of its tokens over the tokens
        resident as the step starts; reused chunks are free. Summed chunk by
        chunk, forward first, so every caller gets the same float order.
        """
        flops = 0.0
        for _ in range(computed):
            flops += self.flops_per_chunk_forward
            flops += self.flops_per_kv_token_pair * tokens_per_chunk * resident_before
        return flops


@dataclass
class ChunkState:
    """One chunk's latent, ground truth, denoising progress and reuse state."""

    index: int                       # 1-based
    clean_latent: np.ndarray         # ground-truth endpoint of denoising
    latent: np.ndarray               # current state, noise when the window opens
    latent_norm: float = 0.0         # L1 norm of latent, taken with it
    local_step: int = 0              # the chunk is clean once this is steps
    reuse: ChunkReuseState = field(default_factory=ChunkReuseState)


def smooth_profile(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded band-limited 1-D profile (a few low-frequency sinusoids)."""
    x = np.linspace(0.0, 1.0, n)
    out = np.zeros(n, dtype=FLOAT)
    for f in (1, 2, 3):
        out += rng.normal() * np.sin(2.0 * np.pi * f * x + rng.uniform(0, 2 * np.pi))
    return out


def make_clean_latent(scene: SceneConfig, chunk_index: int) -> np.ndarray:
    """Smooth low-rank clean latent scaled to the scene's per-chunk norm."""
    rng = np.random.default_rng([scene.seed, chunk_index, _TAG_CLEAN])
    out = np.zeros(scene.shape, dtype=FLOAT)
    for _ in range(2):
        profiles = [smooth_profile(n, rng) for n in scene.shape]
        out += np.einsum("a,b,c,d->abcd", *profiles)
    total = np.abs(out).sum()
    if total == 0.0:  # measure-zero; regenerate deterministically
        out += 1.0
        total = out.size
    return out * (scene.clean_norm(chunk_index) / total)


def make_initial_noise(scene: SceneConfig, chunk_index: int) -> np.ndarray:
    """Standard normal starting state, seeded per (scene seed, chunk)."""
    rng = np.random.default_rng([scene.seed, chunk_index, _TAG_NOISE])
    return rng.standard_normal(scene.shape)


def active_window(chunk_index: int, schedule: PowerLawSchedule,
                  scene: SceneConfig) -> tuple[int, int]:
    """Global-step interval [start, end) during which a chunk denoises.

    Chunk i enters at (i - 1) * steps / window and stays for exactly
    ``steps`` global steps; ``steps`` must divide evenly by the window.
    """
    if not 1 <= chunk_index <= scene.num_chunks:
        raise InvalidInput(f"chunk index {chunk_index} out of range")
    if schedule.steps % scene.window != 0:
        raise InvalidConfig(f"schedule.steps={schedule.steps} not divisible "
                            f"by scene.window={scene.window}")
    stride = schedule.steps // scene.window
    start = (chunk_index - 1) * stride
    return start, start + schedule.steps


def total_global_steps(schedule: PowerLawSchedule, scene: SceneConfig) -> int:
    return active_window(scene.num_chunks, schedule, scene)[1]


def ideal_velocity(chunk: ChunkState, t: float,
                   schedule: PowerLawSchedule) -> np.ndarray:
    """Optimal velocity field: -(sigma'/sigma)(latent - clean) = -(p/t)(...).

    Not scanned here: the caller's checked ``l1_norm`` of the result is the check.
    """
    if t <= 0:
        raise Singularity(f"velocity undefined at t={t}")
    rate = schedule.log_derivative_ratio(t)
    return -rate * (chunk.latent - chunk.clean_latent)


def perturbed_velocity(chunk: ChunkState, t: float, schedule: PowerLawSchedule,
                       noise_scale: float, seed: int) -> np.ndarray:
    """Ideal velocity plus a seeded perturbation of relative L1 size noise_scale.

    Deterministic for fixed (seed, chunk index, local step), independent of
    any reuse decisions taken so far. With noise, the norm of the ideal
    velocity is its finiteness check; without, the caller's norm is.
    """
    if noise_scale < 0:
        raise InvalidInput("noise_scale must be >= 0")
    base = ideal_velocity(chunk, t, schedule)
    if noise_scale == 0.0:
        return base
    rng = np.random.default_rng([seed, chunk.index, chunk.local_step, _TAG_VEL_NOISE])
    g = rng.standard_normal(base.shape)
    g_norm = np.abs(g).sum()
    if g_norm == 0.0:
        return base
    return base + (noise_scale * l1_norm(base, "ideal_velocity") / g_norm) * g


def _projection_weights(scene: SceneConfig, plan: KVPlan) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (heads, channels, dim) key and query maps from latent channels."""
    rng = np.random.default_rng([scene.seed, _TAG_PROJ])
    c = scene.shape[0]
    scale = 1.0 / math.sqrt(c)
    w_key = rng.standard_normal((plan.key_heads, c, plan.head_dim)) * scale
    # value weights, unread: standard_normal is a ziggurat, so a skip moves w_query and all hashes
    rng.standard_normal((plan.key_heads, c, plan.head_dim))
    w_query = rng.standard_normal((plan.query_heads, c, plan.head_dim)) * scale
    return w_key, w_query


def _project(latent: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-head (tokens, heads, dim) rows of ``latent`` under the map ``w``.

    Rows are l2-normalized per token so attention logits have a usable scale
    regardless of latent magnitude; an all-zero token stays zero.
    """
    c = latent.shape[0]
    rows = np.einsum("tc,hcd->thd", latent.reshape(c, -1).T, w)
    norms = np.sqrt(np.einsum("thd,thd->th", rows, rows))
    norms[norms == 0.0] = 1.0
    return rows / norms[:, :, None]


def trajectory(scene: SceneConfig, schedule: PowerLawSchedule,
               policy: Optional[ReusePolicy], noise_scale: float) -> Iterator[tuple]:
    """Drive every chunk from noise to clean, yielding one event per step.

    The KV buffer never reads or writes a latent, so the trajectory (reuse
    decisions, Euler steps) runs here without KV state and ``run_denoise``
    derives the KV accounting from its events. Chunk i (0-based) is active
    exactly while ``i <= g // (steps // window) < i + window``.

    Step g yields ``(g, rows, finished, query_latent)``: the active chunks'
    ``trace.COLUMNS["chunk_steps"]`` rows in index order (compute flag, NaN
    for no estimate), the chunks that became clean at g, and the latent of
    the newest chunk still active after g (or None).
    A chunk's state is made when its window opens and dropped once yielded
    as finished, so at most ``window`` chunk states are live.
    """
    global_steps = total_global_steps(schedule, scene)   # checks steps % window
    stride = schedule.steps // scene.window
    dt = schedule.dt
    active: list[ChunkState] = []

    for g in range(global_steps):
        rows, finished, query_latent = [], [], None
        if g % stride == 0 and g // stride < scene.num_chunks:
            index = g // stride + 1
            chunk = ChunkState(index=index, clean_latent=make_clean_latent(scene, index),
                               latent=make_initial_noise(scene, index))
            chunk.latent_norm = l1_norm(chunk.latent, "initial_noise")
            active.append(chunk)
        for chunk in active:
            state = chunk.reuse
            if policy is None:
                estimate = None
                decision = Decision(COMPUTE, None, 0.0)
            else:
                estimate = estimate_metric(state, dt, chunk.latent_norm)
                decision = decide(policy, state, chunk.local_step, estimate)
            chunk.latent, metric = apply(
                decision, state, chunk.latent, chunk.latent_norm, dt,
                lambda: perturbed_velocity(chunk, schedule.time_at(chunk.local_step),
                                           schedule, noise_scale, scene.seed))
            # one reduction per new latent: next step's norm and this step's check
            chunk.latent_norm = l1_norm(chunk.latent, "euler_step")
            rows.append((chunk.index, chunk.local_step, decision.action == COMPUTE, metric,
                         state.accumulator, math.nan if estimate is None else estimate))
            chunk.local_step += 1
            if chunk.local_step == schedule.steps:
                finished.append(chunk)
            else:
                query_latent = chunk.latent
        yield g, rows, finished, query_latent
        del active[:len(finished)]   # the oldest chunks finish first


def run_denoise(scene: SceneConfig, schedule: PowerLawSchedule,
                policy: Optional[ReusePolicy] = None,
                kv: Optional[KVPlan] = None,
                cost: Optional[CostModel] = None,
                noise_scale: float = 0.0) -> RunTrace:
    """Run the trajectory; its trace holds the chunk-step rows as yielded, the
    config snapshot, KV use and cost (computed chunks counted by their flags).

    ``policy=None`` disables the reuse machinery entirely (every step
    computes); an epsilon=0 policy takes the same decisions and produces a
    bitwise-identical trace. ``kv.budget_chunks=None`` disables compression:
    no buffer is kept and finished chunks add their tokens uncompressed.
    Otherwise each finished chunk's keys enter the buffer with a callable
    projecting the queries of the newest still-active chunk (or its own),
    which the buffer calls only when it compresses. At most ``window``
    chunk states are live; a finished chunk keeps only its latent.
    """
    kv = kv or KVPlan()
    cost = cost or CostModel()
    tokens_per_chunk = scene.tokens_per_chunk
    buffer = None
    if kv.budget_chunks is not None:
        w_key, w_query = _projection_weights(scene, kv)
        buffer = KVBuffer(kv, tokens_per_chunk, scene.tokens_per_frame)
    # every chunk takes steps local steps, so both tables are sized exactly
    trace = RunTrace(_config_snapshot(scene, schedule, policy, kv, cost, noise_scale),
                     np.zeros(total_global_steps(schedule, scene), DTYPES["steps"]),
                     np.zeros(scene.num_chunks * schedule.steps, DTYPES["chunk_steps"]))
    clean_tokens = row = 0
    final_latents: dict[int, np.ndarray] = {}

    for g, rows, finished, query_latent in trajectory(scene, schedule, policy, noise_scale):
        step_flops = cost.step_flops(sum(compute for _, _, compute, *_ in rows), tokens_per_chunk,
                                     clean_tokens + len(rows) * tokens_per_chunk)

        for chunk in finished:
            final_latents[chunk.index] = chunk.latent
            if buffer is None:
                clean_tokens += tokens_per_chunk
                continue
            query_source = chunk.latent if query_latent is None else query_latent
            report = buffer.add_clean_chunk(
                chunk.index, _project(chunk.latent, w_key),
                lambda: _project(query_source, w_query), g)
            if report is not None:
                trace.compressions.append(report)
            clean_tokens = buffer.clean_tokens

        active_tokens = (len(rows) - len(finished)) * tokens_per_chunk
        trace.steps[g] = (g, len(rows), step_flops, clean_tokens, active_tokens,
                          float(clean_tokens + active_tokens) * cost.bytes_per_kv_token)
        trace.chunk_steps[row:row + len(rows)] = rows
        row += len(rows)

    trace.finish(final_latents)
    return trace


def recompute_flops(trace: RunTrace, scene: SceneConfig, cost: CostModel) -> float:
    """Total flops of the trace's epsilon-0 twin, which computes every chunk-step.

    Exact without simulating the twin: the chunks active at a step follow
    from the window arithmetic, and the clean region after each arrival
    holds a count the budget fixes (a compression keeps ``min(budget, n)``
    tokens or ``budget // group`` whole groups, whatever it scores). So each
    step's resident tokens are the trace's own; only the computed count
    differs. Summed in ``run_denoise``'s order, the total is bit-identical.
    """
    tokens_per_chunk = scene.tokens_per_chunk
    total, clean_tokens = 0.0, 0
    steps = trace.steps
    for active, clean in zip(steps["chunk_count"].tolist(),
                             steps["kv_clean_tokens"].tolist()):
        total += cost.step_flops(active, tokens_per_chunk,
                                 clean_tokens + active * tokens_per_chunk)
        clean_tokens = clean
    return total
