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
    velocity_norm: float = 0.0       # L1 norm of cached_velocity, set with it


@dataclass(frozen=True)
class Decision:
    action: str                      # COMPUTE or REUSE
    estimate: Optional[float]        # metric estimate available at decision time
    accumulator: float               # post-decision value of f


def _relative(velocity_norm: float, dt: float, latent_norm: float) -> float:
    """||velocity * dt||_1 / ||latent||_1 from the two L1 norms."""
    if dt <= 0:
        raise InvalidInput(f"dt must be positive, got {dt}")
    if latent_norm == 0.0:
        raise DegenerateInput("relative_l1 against a zero-norm latent")
    return velocity_norm * dt / latent_norm


def estimate_metric(state: ChunkReuseState, dt: float, latent_norm: float) -> Optional[float]:
    """Estimate the current step's metric from the last computed velocity.

    Reads the velocity norm stored with it and the latent's ``latent_norm``.
    Returns None when no velocity has been computed yet (only possible while
    a chunk's warmup forces computation anyway).
    """
    if state.cached_velocity is None:
        return None
    return _relative(state.velocity_norm, dt, latent_norm)


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


def apply(decision: Decision, state: ChunkReuseState, latent: np.ndarray, latent_norm: float,
          dt: float, compute_velocity: Callable[[], np.ndarray]) -> tuple[np.ndarray, float]:
    """Advance the latent one step under ``decision``.

    Compute: invoke the model, cache the velocity and its checked L1 norm,
    step with it. Reuse: step with the cached velocity and the current dt.
    Returns the new latent, which the caller's norm checks, and the metric
    to record (true metric on compute, estimate on reuse).
    """
    if decision.action == COMPUTE:
        velocity = compute_velocity()
        norm = l1_norm(velocity, "ideal_velocity")
        metric = _relative(norm, dt, latent_norm)
        state.cached_velocity, state.velocity_norm = velocity, norm
    else:
        if state.cached_velocity is None:
            raise InternalError("reuse decision with no cached velocity")
        velocity = state.cached_velocity
        if decision.estimate is None:
            raise InternalError("reuse decision with no estimate")
        metric = decision.estimate
    state.accumulator = decision.accumulator
    return euler_step(latent, velocity, dt), metric
