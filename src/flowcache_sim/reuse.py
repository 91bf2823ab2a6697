"""Per-chunk reuse policy: metric accumulation, warmup, threshold recompute.

Each chunk owns an accumulator ``f`` that sums the estimated relative-L1
change since its last computed step. A step recomputes when the chunk is
inside its warmup window, when no cached velocity exists yet, or when the
accumulated change would exceed the threshold; otherwise the cached velocity
is reused and the accumulator grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateInput, InternalError, InvalidInput
from .numerics import l1_norms
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
    velocity_norm: Optional[float] = None   # of the cached velocity; None before one


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
    if state.velocity_norm is None:
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


def apply(decisions: Sequence[Decision], states: Sequence[ChunkReuseState],
          latents: np.ndarray, latent_norms: Sequence[float], velocities: np.ndarray,
          dt: float, compute_velocity: Callable[[list[int]], object]) -> list[float]:
    """Advance a window of latents one step in place, row i under ``decisions[i]``.

    Compute: one ``compute_velocity(rows)`` call writes the computing rows' model velocities
    into ``velocities`` and their checked L1 norms are cached. Reuse: the row keeps its
    velocity. Returns each row's metric (true on compute, the estimate on reuse).
    """
    computing = [i for i, decision in enumerate(decisions) if decision.action == COMPUTE]
    if computing:
        compute_velocity(computing)
        norms = l1_norms(velocities, "ideal_velocity")   # reused rows' are already cached
    metrics = []
    for i, (decision, state) in enumerate(zip(decisions, states)):
        if decision.action == COMPUTE:
            state.velocity_norm = norms[i]
            metrics.append(_relative(norms[i], dt, latent_norms[i]))
        elif state.velocity_norm is None or decision.estimate is None:
            raise InternalError("reuse decision with no cached velocity or no estimate")
        else:
            metrics.append(decision.estimate)
        state.accumulator = decision.accumulator
    euler_step(latents, velocities, dt, out=latents)
    return metrics
