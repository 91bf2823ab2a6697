"""Per-chunk reuse policy: metric accumulation, warmup, threshold recompute.

Each chunk owns an accumulator ``f`` that sums the estimated relative-L1
change since its last computed step. A step recomputes when the chunk is
inside its warmup window, when no cached velocity exists yet, or when the
accumulated change would exceed the threshold; otherwise the cached velocity
is reused and the accumulator grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateInput, InternalError, InvalidInput
from .numerics import l1_norm
from .schedule import euler_step

COMPUTE = "compute"
REUSE = "reuse"


@dataclass(frozen=True)
class ReusePolicy:
    """Threshold and warmup length for the per-chunk reuse rule."""

    epsilon: float
    warmup: int = 5

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidInput(f"epsilon must be >= 0, got {self.epsilon}")
        if self.warmup < 0:
            raise InvalidInput(f"warmup must be >= 0, got {self.warmup}")


@dataclass
class ChunkReuseState:
    """Mutable per-chunk cache state owned by a single run."""

    accumulator: float = 0.0
    cached_velocity: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Decision:
    action: str                      # COMPUTE or REUSE
    estimate: Optional[float]        # metric estimate available at decision time
    accumulator: float               # post-decision value of f


def relative_l1(velocity: np.ndarray, dt: float, latent: np.ndarray) -> float:
    """||velocity * dt||_1 / ||latent||_1, the per-step relative change."""
    if velocity.shape != latent.shape:
        raise InvalidInput(f"shape mismatch {velocity.shape} vs {latent.shape}")
    if dt <= 0:
        raise InvalidInput(f"dt must be positive, got {dt}")
    denom = l1_norm(latent)
    if denom == 0.0:
        raise DegenerateInput("relative_l1 against a zero-norm latent")
    return l1_norm(velocity) * dt / denom


def estimate_metric(state: ChunkReuseState, dt: float, latent: np.ndarray) -> Optional[float]:
    """Estimate the current step's metric from the last computed velocity.

    Returns None when no velocity has been computed yet (only possible while
    a chunk's warmup forces computation anyway).
    """
    if state.cached_velocity is None:
        return None
    return relative_l1(state.cached_velocity, dt, latent)


def decide(policy: ReusePolicy, state: ChunkReuseState, local_step: int,
           estimate: Optional[float]) -> Decision:
    """Apply the accumulate-and-threshold rule for one chunk step.

    Branches, in order:
      1. warmup (local_step < warmup): compute, f resets to 0;
      2. no estimate available or accumulated change above epsilon: compute,
         f resets to 0;
      3. otherwise reuse, f grows by the estimate.
    A zero estimate also forces computation so that every reuse strictly
    increases f (and epsilon = 0 therefore never reuses).
    """
    if local_step < policy.warmup:
        return Decision(COMPUTE, estimate, 0.0)
    if estimate is None or estimate <= 0.0:
        return Decision(COMPUTE, estimate, 0.0)
    grown = state.accumulator + estimate
    if grown > policy.epsilon:
        return Decision(COMPUTE, estimate, 0.0)
    return Decision(REUSE, estimate, grown)


def apply(decision: Decision, state: ChunkReuseState, latent: np.ndarray, dt: float,
          compute_velocity: Callable[[], np.ndarray]) -> tuple[np.ndarray, float]:
    """Advance the latent one step under ``decision``.

    Compute: invoke the model, cache the velocity, step with it. Reuse: step
    with the cached velocity and the current dt. Returns the new latent and
    the metric to record (true metric on compute, estimate on reuse).
    """
    if decision.action == COMPUTE:
        velocity = compute_velocity()
        metric = relative_l1(velocity, dt, latent)
        state.cached_velocity = velocity
    else:
        if state.cached_velocity is None:
            raise InternalError("reuse decision with no cached velocity")
        velocity = state.cached_velocity
        if decision.estimate is None:
            raise InternalError("reuse decision with no estimate")
        metric = decision.estimate
    state.accumulator = decision.accumulator
    return euler_step(latent, velocity, dt), metric
