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

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegenerateInput, InvalidConfig, InvalidInput
from .kvcache import KVBuffer, KVPlan
from .numerics import FLOAT, l1_norm, l1_norms
from .reuse import COMPUTE, Decision, ReusePolicy, apply, decide, estimate_metric
from .schedule import PowerLawSchedule, euler_step
from .trace import DTYPES, RunTrace, _config_snapshot, add_in_order

# seed-stream tags, so every random draw has a stable address; velocity noise's
# SeedSequence words come from velocity_noise_seeds, once per chunk
_TAG_NOISE = 1
_TAG_CLEAN = 2
_TAG_VEL_NOISE = 3
_TAG_PROJ = 4
# linspace(0, 1, n), made once per axis length and only read
_unit_grid = functools.cache(functools.partial(np.linspace, 0.0, 1.0))


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

    def step_flops(self, steps: np.ndarray, computed: np.ndarray,
                   tokens_per_chunk: int) -> list[float]:
        """Every step's charge from a ``DTYPES["steps"]`` table where ``computed[i]`` of step
        i's chunks compute: each pays the forward plus attention of its tokens over the
        tokens resident as the step starts (step i - 1's clean tokens plus step i's chunks');
        reused chunks are free. Added chunk by chunk, forward first, in Python numbers, so
        an int cost's product stays exact."""
        charges, clean = [], 0
        for active, count, next_clean in zip(steps["chunk_count"].tolist(), computed.tolist(),
                                             steps["kv_clean_tokens"].tolist()):
            resident, flops = clean + active * tokens_per_chunk, 0.0
            for _ in range(count):
                flops += self.flops_per_chunk_forward
                flops += self.flops_per_kv_token_pair * tokens_per_chunk * resident
            charges.append(flops)
            clean = next_clean
        return charges


@dataclass
class ChunkState:
    """One chunk's latent, ground truth, denoising progress, reuse state (the
    rule's ``accumulator`` and its cached velocity's norm) and, in a run with
    velocity noise, its ``velocity_noise_seeds`` table."""

    index: int                       # 1-based
    clean_latent: np.ndarray         # ground-truth endpoint of denoising
    latent: np.ndarray               # current state (a row of trajectory's latent table)
    latent_norm: float = 0.0         # L1 norm of latent, taken with it
    local_step: int = 0              # the chunk is clean once this is steps
    accumulator: float = 0.0         # the reuse rule's f, as of the last decision
    velocity_norm: Optional[float] = None   # of the cached velocity; None before one
    noise_seeds: Optional[np.ndarray] = None   # (steps, 4) uint64, or None


def smooth_profiles(sizes: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded band-limited 1-D profiles of the given sizes (a few low-frequency
    sinusoids each), drawn in turn and evaluated in one pass over their grids."""
    draws = np.fromiter((v for _ in range(3 * len(sizes))   # 2 pi * random: uniform(0, 2 pi)
                         for v in (rng.normal(), 2.0 * np.pi * rng.random())), FLOAT)
    amp, phase = np.repeat(draws.reshape(-1, 3, 2), sizes, axis=0).T   # by frequency
    x = np.concatenate([_unit_grid(n) for n in sizes])
    out = sum(amp[f - 1] * np.sin(2.0 * np.pi * f * x + phase[f - 1]) for f in (1, 2, 3))
    return np.split(out, np.cumsum(sizes)[:-1])


def make_clean_latent(scene: SceneConfig, chunk_index: int) -> np.ndarray:
    """Smooth low-rank clean latent scaled to the scene's per-chunk norm."""
    rng = np.random.default_rng([scene.seed, chunk_index, _TAG_CLEAN])
    profiles = smooth_profiles(scene.shape * 2, rng)
    out = np.zeros(scene.shape, dtype=FLOAT)
    for a, b, c, d in (profiles[:4], profiles[4:]):   # outer products, in einsum's order
        out += a[:, None, None, None] * b[:, None, None] * c[:, None] * d
    total = np.abs(out).sum()
    if total == 0.0:   # measure-zero; no scaling reaches the chunk's norm
        raise DegenerateInput(f"chunk {chunk_index}'s clean latent is all zeros")
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


def ideal_velocity(chunk: ChunkState, t: float, schedule: PowerLawSchedule,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Optimal velocity field: -(sigma'/sigma)(latent - clean) = -(p/t)(...).

    Into ``out`` if given; a t <= 0 raises ``Singularity`` before ``out`` is written.
    Not scanned here: the caller's checked norm is the check.
    """
    ratio = schedule.log_derivative_ratio(t)
    return np.multiply(np.subtract(chunk.latent, chunk.clean_latent, out=out), -ratio, out=out)


def velocity_noise_seeds(seed: int, index: int | Sequence[int], steps: int) -> np.ndarray:
    """(steps, 4) uint64 rows, row s equal to ``SeedSequence([seed, index, s,
    _TAG_VEL_NOISE]).generate_state(4, np.uint64)``: numpy's fixed mixing
    (``numpy/random/bit_generator.pyx``, pool size 4) as uint32 array ops
    over every step at once; for a sequence of indices of one word count, a table each."""
    seed, indices = operator.index(seed), [operator.index(i) for i in np.ravel(index)]
    words = [[n >> k & 0xFFFFFFFF for n in (seed, i)   # little-endian 32-bit words
              for k in range(0, max(n.bit_length(), 1), 32)] for i in indices]
    if min(seed, operator.index(steps), *indices) < 0 or len({*map(len, words)}) != 1:
        raise InvalidInput(f"seed, index and steps must be >= 0, and indices one word count; "
                           f"got {seed}, {index}, {steps}")   # numpy ints pass, floats do not
    entropy = np.full((len(words[0]) + 2, len(indices), steps), _TAG_VEL_NOISE, np.uint32)
    entropy[:-2], entropy[-2] = np.array(words).T[..., None], np.arange(steps)
    entropy = entropy.reshape(len(entropy), -1)   # a row per word, a column per (index, step)
    extra = len(entropy) - 4   # words past the pool go through the extra-entropy loop
    # INIT_A * MULT_A**k for hashmix call k, wrapping as uint32
    hash_a = np.cumprod([0x43B0D7E5] + [0x931E8875] * (16 + 4 * extra), dtype=np.uint32)[:, None]

    def hashmix(value, k, n):   # calls k..k+n-1, one per row
        value = (value ^ hash_a[k:k + n]) * hash_a[k + 1:k + n + 1]
        return value ^ value >> 16

    def mix(x, y):   # MIX_MULT_L, MIX_MULT_R
        out = x * 0xCA01F9DD - y * 0x4973F715
        return out ^ out >> 16

    pool = hashmix(entropy[:4], 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for i in range(extra):
        pool = mix(pool, hashmix(entropy[4 + i], 16 + 4 * i, 4))
    hash_b = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)[:, None]   # INIT_B, MULT_B
    state = (np.tile(pool, (2, 1)) ^ hash_b[:-1]) * hash_b[1:]
    state ^= state >> 16
    state = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return state.reshape(*np.shape(index), steps, 4)


@functools.cache
def _seed_words() -> type:
    """An ISeedSequence handing PCG64 one precomputed row, so numpy still does
    PCG64's seeding; made on first use, as ``numpy.random`` is slow to import."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass(frozen=True)
    class SeedWords(ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return SeedWords


def _check_noise_scale(noise_scale: float) -> None:
    if not 0.0 <= noise_scale < math.inf:   # nan fails too
        raise InvalidInput(f"noise_scale must be finite and >= 0, got {noise_scale}")


def perturbed_velocity(window: Sequence[ChunkState], rows: list[int],
                       schedule: PowerLawSchedule, noise_scale: float,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """The model's velocity of each chunk ``window[r]``, r in ``rows``, at its local step,
    into row r of ``out`` (zeros shaped like the window if None); other rows are not read.

    Per row, ``ideal_velocity`` plus, for noise_scale > 0, the normals of ``default_rng([seed,
    index, local_step, 3])`` from the chunk's ``noise_seeds``, in index order, scaled to relative
    L1 size noise_scale. The ideal rows' norms come from one ``l1_norms`` (of ``out`` itself when
    every row computes), which fails a non-finite one; no other scan."""
    _check_noise_scale(noise_scale)
    out = np.zeros((len(window), *window[0].latent.shape)) if out is None else out
    for r in rows:
        ideal_velocity(window[r], schedule.time_at(window[r].local_step), schedule, out[r])
    if noise_scale == 0.0 or not rows:
        return out
    norms = l1_norms(out if rows == list(range(len(out))) else out[rows], "ideal_velocity")
    g = np.empty(out.shape[1:])   # one row's draw at a time
    for r, norm in zip(rows, norms):
        chunk = window[r]
        if chunk.noise_seeds is None or len(chunk.noise_seeds) <= chunk.local_step:
            raise InvalidInput(f"chunk {chunk.index}: no noise seeds for step {chunk.local_step}")
        words = _seed_words()(chunk.noise_seeds[chunk.local_step])
        np.random.Generator(np.random.PCG64(words)).standard_normal(out=g)
        g_norm = np.abs(g).sum()
        if g_norm != 0.0:   # an all-zero draw leaves the ideal velocity
            g *= noise_scale * norm / g_norm
            out[r] += g
    return out


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


def _project(latent: np.ndarray, w: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Per-head (tokens, heads, dim) rows of ``latent`` under the map ``w``, of its
    last ``n`` tokens only if ``n`` is given (the same bits as those rows of all).

    One GEMM of all tokens with the heads' maps side by side, then the last ``n``
    rows (a GEMM of fewer rows can give other bits), l2-normalized per token into a
    fresh array that frees the full product, so attention logits have a usable
    scale regardless of latent magnitude; an all-zero token stays zero.
    """
    c = latent.shape[0]
    rows = latent.reshape(c, -1).T @ w.transpose(1, 0, 2).reshape(c, -1)
    rows = rows[-(n or len(rows)):].reshape(-1, w.shape[0], w.shape[2])
    norms = np.sqrt(np.einsum("thd,thd->th", rows, rows))
    norms[norms == 0.0] = 1.0
    return rows / norms[:, :, None]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def trajectory(scene: SceneConfig, schedule: PowerLawSchedule,
               policy: Optional[ReusePolicy], noise_scale: float) -> Iterator[tuple]:
    """Drive every chunk from noise to clean, yielding one event per step.

    The KV buffer never reads or writes a latent, so the trajectory (reuse
    decisions, Euler steps) runs here without KV state and ``run_denoise``
    derives the KV accounting from its events. Chunk i (0-based) is active
    exactly while ``i <= g // (steps // window) < i + window``.

    Step g yields ``(g, rows, finished, query_latent)``: the active chunks'
    ``trace.COLUMNS["chunk_steps"]`` rows in index order (compute flag, NaN
    for no estimate), an ``(index, latent)`` pair for each chunk that became clean
    at g and, if any, a copy of the latent of the newest chunk still active after g
    (else None). Yielded latents are read-only and hold no chunk state, so
    ``list(trajectory(...))`` is a recording that ``run_denoise`` can replay for
    any KV plan. A chunk's state is made when its window opens and dropped as it
    finishes, so at most ``window`` chunk states are live; its latent is its row of a
    table whose rows end as the final latents. Decisions are per chunk; one ``perturbed_velocity``
    call per step covers the computing rows, ``apply`` records the chunks' reuse state, and
    norms and Euler steps take all active rows.
    """
    global_steps = total_global_steps(schedule, scene)   # checks steps % window
    stride, dt = schedule.steps // scene.window, schedule.dt
    table = np.empty((scene.num_chunks, *scene.shape), FLOAT)
    velocities = np.empty((0, *scene.shape))   # a row per active chunk, in index order
    active: list[ChunkState] = []

    for g in range(global_steps):
        rows, finished = [], []   # the last step's finished chunks are freed before this step
        if g % stride == 0 and g // stride < scene.num_chunks:
            index = g // stride + 1
            if noise_scale > 0 and (index - 1) % scene.window == 0:   # a window's tables at once
                tables = iter(velocity_noise_seeds(scene.seed, range(
                    index, min(index + scene.window, scene.num_chunks + 1)), schedule.steps))
            latent = table[index - 1]
            latent[...] = make_initial_noise(scene, index)
            active.append(ChunkState(
                index, make_clean_latent(scene, index), latent, l1_norm(latent, "initial_noise"),
                noise_seeds=next(tables) if noise_scale > 0 else None))
            velocities = np.concatenate((velocities, np.zeros((1, *scene.shape))))
        decisions = [Decision(COMPUTE, None, 0.0) if policy is None else
                     decide(policy, chunk.accumulator, chunk.local_step,
                            estimate_metric(chunk.velocity_norm, dt, chunk.latent_norm))
                     for chunk in active]
        computing = [i for i, decision in enumerate(decisions) if decision.action == COMPUTE]
        if computing:   # the model's velocity, into the computing rows
            perturbed_velocity(active, computing, schedule, noise_scale, velocities)
        metrics = apply(decisions, active, velocities, dt)
        latents = table[active[0].index - 1:active[-1].index]
        euler_step(latents, velocities, dt, out=latents)
        # one reduction gives the new latents' check and norms
        for chunk, decision, metric, norm in zip(active, decisions, metrics,
                                                 l1_norms(latents, "euler_step")):
            rows.append((chunk.index, chunk.local_step, decision.action == COMPUTE, metric,
                         decision.accumulator,
                         math.nan if decision.estimate is None else decision.estimate))
            chunk.latent_norm, chunk.local_step = norm, chunk.local_step + 1
            if chunk.local_step == schedule.steps:   # no later step writes its row
                finished.append((chunk.index, _read_only(chunk.latent)))
        del active[:len(finished)], chunk   # the oldest finish first; chunk may be one
        velocities = velocities[len(finished):].copy() if finished else velocities
        yield (g, rows, finished,
               _read_only(active[-1].latent.copy()) if active and finished else None)


def run_denoise(scene: SceneConfig, schedule: PowerLawSchedule,
                policy: Optional[ReusePolicy] = None,
                kv: Optional[KVPlan] = None,
                cost: Optional[CostModel] = None,
                noise_scale: float = 0.0,
                events: Optional[Iterable[tuple]] = None) -> RunTrace:
    """Run the trajectory; its trace holds the chunk-step rows as yielded, the
    config snapshot, KV use and the cost ``cost.step_flops`` prices from them.

    ``events`` defaults to ``trajectory(scene, schedule, policy, noise_scale)``; a
    recording of it (a list) replays under any KV plan and cost, which never reach it.

    ``policy=None`` disables the reuse machinery entirely (every step
    computes); an epsilon=0 policy takes the same decisions and produces a
    bitwise-identical trace. ``kv.budget_chunks=None`` disables compression:
    no buffer is kept and finished chunks add their tokens uncompressed.
    Otherwise each finished chunk's keys enter the buffer with a callable
    projecting the last n tokens' queries of the newest still-active chunk
    (or its own), which the buffer calls only when it compresses. At most
    ``window`` chunk states are live; the final latents are read-only rows of one table.
    """
    _check_noise_scale(noise_scale)   # before any draw, the projection weights' too
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

    events = trajectory(scene, schedule, policy, noise_scale) if events is None else events
    for g, rows, finished, query_latent in events:
        for index, latent in finished:
            final_latents[index] = latent
            if buffer is None:
                clean_tokens += tokens_per_chunk
                continue
            query_source = latent if query_latent is None else query_latent
            report = buffer.add_clean_chunk(
                index, _project(latent, w_key), lambda n: _project(query_source, w_query, n), g)
            if report is not None:
                trace.compressions.append(report)
            clean_tokens = buffer.clean_tokens

        active_tokens = (len(rows) - len(finished)) * tokens_per_chunk
        trace.steps[g] = (g, len(rows), 0.0, clean_tokens, active_tokens,
                          float(clean_tokens + active_tokens) * cost.bytes_per_kv_token)
        trace.chunk_steps[row:row + len(rows)] = rows
        row += len(rows)
        query_latent = finished = None   # freed now, not after the next step

    counts = trace.steps["chunk_count"]   # each at least 1, so reduceat sums each step's flags
    trace.steps["flops"] = cost.step_flops(trace.steps, np.add.reduceat(
        trace.chunk_steps["compute"], np.cumsum(counts) - counts, dtype=np.int64), tokens_per_chunk)
    trace.finish(final_latents)
    return trace


def recompute_flops(trace: RunTrace, scene: SceneConfig, cost: CostModel) -> float:
    """Total flops of the trace's epsilon-0 twin, which computes every chunk-step.

    Exact without simulating the twin: the chunks active at a step follow
    from the window arithmetic, and the clean region after each arrival
    holds a count the budget fixes (a compression keeps ``min(budget, n)``
    tokens or ``budget // group`` whole groups, whatever it scores). So the
    twin's step table is the trace's own but for the flops, and pricing it with
    every chunk computing, then adding as ``RunTrace.finish`` does, is bit-identical.
    """
    steps = trace.steps
    return add_in_order(cost.step_flops(steps, steps["chunk_count"], scene.tokens_per_chunk))
