"""Self-contained verification suites with independent oracles.

Each suite re-derives expected behavior through a brute-force or
closed-form oracle that shares no code with the implementation path it
checks, runs on fixed seeds, and reports measured slack against its
tolerance. The CLI surfaces these as ``verify --suite NAME``.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .armodel import (ChunkState, ideal_velocity, perturbed_velocity, smooth_profiles,
                      velocity_noise_seeds)
from .errors import DegenerateInput, InvalidInput
from .kvcache import KVPlan, importance, redundancy_fast
from .numerics import FLOAT, l1_norm, maxpool1d, stable_topk
from .reuse import COMPUTE, REUSE, ReusePolicy, decide
from .schedule import PowerLawSchedule


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{mark}] {self.name}: measured={self.measured:.6g} "
                f"tol={self.tolerance:.6g}{extra}")


# ---------------------------------------------------------------------------
# kernels: elementary ops against scalar-loop / extended-precision oracles

def _l1_oracle(x: np.ndarray) -> float:
    total = 0.0
    for v in x.ravel():
        total += abs(float(v))
    return total


def _oracle_softmax(x: np.ndarray) -> np.ndarray:
    # extended precision on x86 long double, cast back at the end
    hp = x.astype(np.longdouble)
    hp = hp - hp.max()
    e = np.exp(hp)
    return (e / e.sum()).astype(FLOAT)


def _maxpool_oracle(x: np.ndarray, kernel: int) -> np.ndarray:
    radius = kernel // 2
    out = np.empty_like(x)
    for j in range(x.size):
        lo, hi = max(0, j - radius), min(x.size, j + radius + 1)
        out[j] = x[lo:hi].max()
    return out


def _importance_oracle(queries: np.ndarray, keys: np.ndarray,
                       window: int) -> np.ndarray:
    # one softmax per (query row, query head) pair, averaged per key head
    group = queries.shape[1] // keys.shape[1]
    out = np.zeros(keys.shape[1::-1])
    for h in range(keys.shape[1]):
        pairs = [q[h * group + g] for q in queries[-window:] for g in range(group)]
        for q in pairs:
            out[h] += _oracle_softmax(np.array(
                [q @ k / np.sqrt(q.size) for k in keys[:, h]]))
        out[h] /= len(pairs)
    return out


def _topk_oracle(scores: np.ndarray, k: int) -> list[int]:
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def suite_kernels(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    draws = np.random.default_rng(42).random(1000)
    results.append(CheckResult(
        "l1_norm vs scalar-loop oracle (1000 uniforms, seed 42)",
        *_close(l1_norm(draws), _l1_oracle(draws), 1e-9)))

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 128))
        kernel = int(rng.choice([1, 3, 5, 7]))
        x = rng.normal(size=n) - 2.0   # all-negative regions stress padding
        worst = max(worst, float(np.abs(
            maxpool1d(x, kernel) - _maxpool_oracle(x, kernel)).max()))
        m = rng.normal(size=(int(rng.integers(2, 6)), n)) - 2.0
        expected = np.stack([_maxpool_oracle(row, kernel) for row in m])
        worst = max(worst, float(np.abs(maxpool1d(m, kernel) - expected).max()))
    results.append(CheckResult(
        "maxpool1d vs window-scan oracle (50 random vectors, "
        "50 row-wise matrices)",
        worst == 0.0, worst, 0.0))

    worst = 0.0
    for group, l_q, window in ((1, 12, 5), (2, 12, 5), (1, 3, 8), (2, 3, 8)):
        queries = rng.normal(size=(l_q, 2 * group, 8))
        keys = rng.normal(size=(24, 2, 8))
        got = importance(queries, keys, KVPlan(query_window=window))
        worst = max(worst, float(np.abs(
            got - _importance_oracle(queries, keys, window)).max()))
    results.append(CheckResult(
        "importance vs explicit-loop oracle (GQA groups 1 and 2, "
        "windows 5 < l_q and 8 > l_q)", worst <= 1e-12, worst, 1e-12))

    mismatches = 0
    scores = rng.random(4096)
    scores[rng.integers(0, 4096, size=500)] = 0.5   # force ties
    if list(stable_topk(scores, 128)) != _topk_oracle(scores, 128):
        mismatches += 1
    for _ in range(50):
        n = int(rng.integers(2, 64))
        s = rng.integers(0, 5, size=n).astype(FLOAT)  # heavy ties
        k = int(rng.integers(1, n + 1))
        if list(stable_topk(s, k)) != _topk_oracle(s, k):
            mismatches += 1
    results.append(CheckResult(
        "stable_topk vs full-sort oracle incl. ties (51 instances)",
        mismatches == 0, float(mismatches), 0.0))

    worst, mismatches = 0.0, 0
    schedule = PowerLawSchedule(power=float(rng.uniform(0.25, 3.0)), steps=16)
    for a_seed in (seed, 2**32 - 1, 2**32 + seed, int(rng.integers(2**63))):
        first = int(rng.integers(1, 100))   # a window's tables, as trajectory takes them
        tables = velocity_noise_seeds(a_seed, range(first, first + 3), schedule.steps)
        window = [ChunkState(first + k, *rng.normal(scale=k + 1.0, size=(2, 8, 4, 6, 6)),
                             noise_seeds=tables[k]) for k in range(3)]
        for step in range(schedule.steps):
            for k, chunk in enumerate(window):   # each row at its own local step
                chunk.local_step = (step + 5 * k) % schedule.steps
            rows, before = [k for k in range(3) if k != step % 4], rng.normal(size=(3, 8, 4, 6, 6))
            got = perturbed_velocity(window, rows, schedule, 0.1, before.copy())
            for k, chunk in enumerate(window):   # reused rows stay as they were
                t = schedule.time_at(chunk.local_step)
                base = -(schedule.power / t) * (chunk.latent - chunk.clean_latent)
                worst = max(worst, float(np.abs(ideal_velocity(chunk, t, schedule) - base).max()))
                g = np.random.default_rng([a_seed, chunk.index, chunk.local_step, 3])
                g = g.standard_normal(base.shape)
                expected = (base + (0.1 * float(np.abs(base).sum()) / np.abs(g).sum()) * g
                            if k in rows else before[k])
                mismatches += not np.array_equal(got[k], expected)
    results.append(CheckResult(
        "ideal_velocity vs closed form -(p/t)(x - clean) (192 states, 4 seeds)",
        worst == 0.0, worst, 0.0, detail="max elementwise difference"))
    results.append(CheckResult(
        "velocity noise vs numpy default_rng([seed, chunk, step, 3]) draws (64 windows of 3 "
        "chunks, some rows reused, seeds up to 2**63)", mismatches == 0, float(mismatches), 0.0))
    return results


# ---------------------------------------------------------------------------
# theorem: per-chunk metric series is non-decreasing along denoising

def _smooth_unit(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    out = np.zeros(shape, dtype=FLOAT)
    for _ in range(2):
        out += np.einsum("a,b,c,d->abcd", *smooth_profiles(shape, rng))
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out + 1.0


def relative_l1(velocity: np.ndarray, dt: float, latent: np.ndarray) -> float:
    """||velocity * dt||_1 / ||latent||_1, in arithmetic not shared with ``reuse``."""
    if velocity.shape != latent.shape:
        raise InvalidInput(f"shape mismatch {velocity.shape} vs {latent.shape}")
    if dt <= 0:
        raise InvalidInput(f"dt must be positive, got {dt}")
    latent_norm = float(np.abs(latent).sum())
    if latent_norm == 0.0:
        raise DegenerateInput("relative_l1 against a zero-norm latent")
    return float(np.abs(velocity).sum()) * dt / latent_norm


def theorem_metric_series(power: float, steps: int, chunk_seed: int,
                          shape=(8, 4, 6, 6)) -> np.ndarray:
    """Metric at every grid point of the closed-form denoising trajectory.

    States follow the interpolation path exactly (the path the converged
    velocity field transports), with the clean latent scaled into the
    regime where the noise term dominates the state norm at every grid
    point; there the hyperbolic decay of sigma'/sigma drives the series.
    """
    schedule = PowerLawSchedule(power=power, total_time=1.0, steps=steps)
    rng = np.random.default_rng([chunk_seed, 11])
    noise = rng.standard_normal(shape)
    sigma_min = schedule.sigma(schedule.total_time / steps)
    amplitude = 0.25 * sigma_min * np.abs(noise).min()
    clean = amplitude * _smooth_unit(shape, rng)
    chunk = ChunkState(index=1, clean_latent=clean, latent=noise)
    diff = noise - clean
    metrics = np.empty(steps, dtype=FLOAT)
    for j, ls in enumerate(range(steps)):
        t = schedule.time_at(ls)
        chunk.latent = clean + schedule.sigma(t) * diff
        v = ideal_velocity(chunk, t, schedule)
        metrics[j] = relative_l1(v, schedule.dt, chunk.latent)
    return metrics


def suite_theorem(seed: int = 0, chunks: int = 16) -> list[CheckResult]:
    results = []
    for power in (1.0, 2.0):
        for steps in (64, 256):
            worst = -np.inf
            for c in range(1, chunks + 1):
                series = theorem_metric_series(power, steps, seed * 1000 + c)
                worst = max(worst, float(np.max(series[:-1] - series[1:])))
            results.append(CheckResult(
                f"metric series non-decreasing, power={power} steps={steps} "
                f"({chunks} chunks)",
                worst <= 1e-9, worst, 1e-9,
                detail="max adjacent-pair decrease"))
    return results


# ---------------------------------------------------------------------------
# corollary: chunks with distinct clean norms separate at every shared t

def suite_corollary(seed: int = 0, chunks: int = 8,
                    steps: int = 64) -> list[CheckResult]:
    shape = (8, 4, 6, 6)
    numel = int(np.prod(shape))
    schedule = PowerLawSchedule(power=1.0, total_time=1.0, steps=steps)
    shared_noise = np.random.default_rng([seed, 0, 21]).standard_normal(shape)

    cleans, diffs = [], []
    for c in range(1, chunks + 1):
        rng = np.random.default_rng([seed, c, 22])
        clean = _smooth_unit(shape, rng)
        clean *= 0.2 * numel * (1.0 + 0.6 * (c - 1) / chunks) / np.abs(clean).sum()
        cleans.append(clean)
        diffs.append(shared_noise - clean)
    # render the "update magnitude invariant across chunks" assumption
    target = float(np.mean([np.abs(d).sum() for d in diffs]))
    diffs = [d * (target / np.abs(d).sum()) for d in diffs]

    interior = range(1, steps)   # grid indices with t strictly inside (0, T)
    metrics = np.empty((chunks, steps - 1), dtype=FLOAT)
    for ci in range(chunks):
        chunk = ChunkState(index=ci + 1, clean_latent=cleans[ci], latent=shared_noise)
        for j, i in enumerate(interior):
            t = schedule.total_time * i / steps
            chunk.latent = cleans[ci] + schedule.sigma(t) * diffs[ci]
            v = ideal_velocity(chunk, t, schedule)
            metrics[ci, j] = relative_l1(v, schedule.dt, chunk.latent)

    norms = [np.abs(c).sum() for c in cleans]
    min_gap = np.inf
    pairs = 0
    for i in range(chunks):
        for j in range(i + 1, chunks):
            if abs(norms[i] - norms[j]) / max(norms[i], norms[j]) < 0.05:
                continue
            pairs += 1
            rel = (np.abs(metrics[i] - metrics[j])
                   / np.maximum(np.abs(metrics[i]), np.abs(metrics[j])))
            min_gap = min(min_gap, float(rel.min()))
    return [CheckResult(
        f"cross-chunk metric separation at every interior grid point "
        f"({pairs} pairs with >=5% norm gap)",
        min_gap > 1e-6, min_gap, 1e-6,
        detail="min relative gap; must exceed tol")]


# ---------------------------------------------------------------------------
# policy: decision engine vs a direct interpreter of the reuse rule

def _interpret_reuse_rule(metrics, epsilon, warmup):
    # ten-line reference: f == 0 means compute; x is None when no estimate exists
    decisions = []
    f = 0.0
    for i, x in enumerate(metrics):
        if i < warmup:
            f = 0.0
        elif x is None or x <= 0.0 or f + x > epsilon:
            f = 0.0
        else:
            f = f + x
        decisions.append(COMPUTE if f == 0.0 else REUSE)
    return decisions


def engine_decisions(metrics, epsilon, warmup):
    policy = ReusePolicy(epsilon=epsilon, warmup=warmup)
    f, out = 0.0, []
    for i, x in enumerate(metrics):
        decision = decide(policy, f, i, None if x is None else float(x))
        f = decision.accumulator
        out.append(decision.action)
    return out


def suite_policy(seed: int = 0, streams: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(streams):
        n = int(rng.integers(1, 129))
        epsilon = float(rng.uniform(0.001, 0.3))
        warmup = int(rng.integers(0, 9))
        metrics = rng.uniform(1e-6, 2.0 * epsilon, size=n)
        if (engine_decisions(metrics, epsilon, warmup)
                != _interpret_reuse_rule(metrics, epsilon, warmup)):
            mismatches += 1
    # 0.25 + 0.25 lands exactly on epsilon 0.5 (reuse); then a zero, a missing estimate
    boundary = [[0.3, 0.25, 0.25, 0.1], [0.3, 0.1, 0.0, 0.1], [0.3, 0.1, None, 0.1]]
    misses = sum(engine_decisions(m, 0.5, 1) != _interpret_reuse_rule(m, 0.5, 1)
                 for m in boundary)
    return [CheckResult(
        f"decision engine vs direct rule interpreter ({streams} streams)",
        mismatches == 0, float(mismatches), 0.0),
        CheckResult("decision engine vs interpreter at exact boundaries (sum on "
                    "epsilon, zero estimate, missing estimate)", misses == 0, float(misses), 0.0)]


# ---------------------------------------------------------------------------
# kvequiv: fast redundancy kernel vs the materialized reference

def redundancy_naive(keys: np.ndarray) -> np.ndarray:
    """Reference redundancy: materialize the full cosine matrix per head.

    Rows are l2-normalized, the LxL similarity matrix is formed with a zeroed
    diagonal, columns are averaged over the token axis, and the means are
    softmaxed into a per-head distribution by the extended-precision oracle.
    """
    keys = np.asarray(keys, dtype=FLOAT)
    if keys.ndim != 3:
        raise InvalidInput("keys must be rank-3 (tokens, heads, dim)")
    l_k = keys.shape[0]
    if l_k < 2:
        raise InvalidInput("redundancy needs at least two tokens")
    out = np.empty((keys.shape[1], l_k), dtype=FLOAT)
    for h in range(keys.shape[1]):
        keys_h = keys[:, h, :]
        norms = np.sqrt(np.einsum("ld,ld->l", keys_h, keys_h))
        if np.any(norms == 0.0):
            raise DegenerateInput("zero-norm key row")
        unit = keys_h / norms[:, None]
        sim = unit @ unit.T
        np.fill_diagonal(sim, 0.0)
        out[h] = _oracle_softmax(sim.sum(axis=0) / l_k)
    return out


def suite_kvequiv(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    for _ in range(instances):
        l_k = int(rng.integers(2, 513))
        heads = int(rng.integers(1, 9))
        d = int(rng.integers(2, 65))
        keys = rng.normal(size=(l_k, heads, d))
        worst = max(worst, float(np.abs(
            redundancy_fast(keys) - redundancy_naive(keys)).max()))
    results.append(CheckResult(
        f"redundancy fast vs naive, {instances} random instances "
        "(L<=512, d<=64, heads<=8)",
        worst < 1e-9, worst, 1e-9, detail="max elementwise difference"))

    l_k, d = 4096, 128
    keys = rng.normal(size=(l_k, 1, d))
    naive_footprint = float(l_k * l_k * 8)

    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    redundancy_fast(keys)
    fast_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    ratio = fast_peak / naive_footprint
    results.append(CheckResult(
        "fast-path peak transient allocation vs L^2 footprint "
        f"(L={l_k}, d={d})",
        ratio < 0.02, ratio, 0.02,
        detail=f"fast peak {fast_peak / 1e6:.2f} MB vs "
               f"naive L^2 {naive_footprint / 1e6:.2f} MB"))

    t0 = time.perf_counter()
    fast_out = redundancy_fast(keys)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive_out = redundancy_naive(keys)
    naive_s = time.perf_counter() - t0
    results.append(CheckResult(
        f"fast-path wall time vs naive (L={l_k}, d={d})",
        fast_s < 0.25 * naive_s, fast_s / naive_s, 0.25,
        detail=f"fast {fast_s * 1e3:.1f} ms, naive {naive_s * 1e3:.1f} ms"))
    results.append(CheckResult(
        f"fast vs naive agreement at L={l_k}, d={d}",
        float(np.abs(fast_out - naive_out).max()) < 1e-9,
        float(np.abs(fast_out - naive_out).max()), 1e-9))
    return results


# ---------------------------------------------------------------------------

SUITES = {
    "kernels": suite_kernels,
    "theorem": suite_theorem,
    "corollary": suite_corollary,
    "policy": suite_policy,
    "kvequiv": suite_kvequiv,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise InvalidInput(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name](seed=seed)


def _close(actual: float, expected: float, tol: float) -> tuple[bool, float, float]:
    diff = abs(actual - expected)
    return diff <= tol, diff, tol
