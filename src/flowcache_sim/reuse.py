"""Per-chunk reuse policy: metric accumulation, warmup, threshold recompute.

Each chunk owns an accumulator ``f`` that sums the estimated relative-L1
change since its last computed step. A step recomputes when the chunk is
inside its warmup window, when no cached velocity exists yet, or when the
accumulated change would exceed the threshold; otherwise the cached velocity
is reused and the accumulator grows. The rule reads and returns floats; the
chunk's ``accumulator`` and ``velocity_norm`` live on ``armodel.ChunkState``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInput, InternalError, InvalidInput
from .numerics import l1_norms

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


@dataclass(frozen=True)
class Decision:
    action: str                      # COMPUTE or REUSE
    estimate: Optional[float]        # metric estimate available at decision time
    accumulator: float               # post-decision value of f


def estimate_metric(velocity_norm: Optional[float], dt: float,
                    latent_norm: float) -> Optional[float]:
    """||velocity * dt||_1 / ||latent||_1 from the velocity's and the latent's L1 norms.

    None when no velocity has been computed yet (``velocity_norm`` is None), which
    is only possible while a chunk's warmup forces computation anyway.
    """
    if velocity_norm is None:
        return None
    if dt <= 0:
        raise InvalidInput(f"dt must be positive, got {dt}")
    if latent_norm == 0.0:
        raise DegenerateInput("relative_l1 against a zero-norm latent")
    return velocity_norm * dt / latent_norm


def decide(policy: ReusePolicy, accumulator: float, local_step: int,
           estimate: Optional[float]) -> Decision:
    """Apply the accumulate-and-threshold rule for one chunk step, f being
    ``accumulator`` before it.

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
    grown = accumulator + estimate
    if grown > policy.epsilon:
        return Decision(COMPUTE, estimate, 0.0)
    return Decision(REUSE, estimate, grown)


def apply(decisions: Sequence[Decision], chunks: Sequence, velocities: np.ndarray,
          dt: float) -> list[float]:
    """Record one step of a window of chunks, ``chunks[i]`` under ``decisions[i]``.

    Compute: row i of ``velocities`` holds the chunk's fresh velocity, whose checked L1
    norm is cached on ``chunks[i].velocity_norm``. Reuse: the row keeps its cached
    velocity. Every chunk's ``accumulator`` takes its decision's. Returns each row's
    metric (true on compute, the estimate on reuse); ``velocities`` is only read.
    """
    if any(decision.action == COMPUTE for decision in decisions):
        norms = l1_norms(velocities, "ideal_velocity")   # reused rows' are already cached
    metrics = []
    for i, (decision, chunk) in enumerate(zip(decisions, chunks)):
        if decision.action == COMPUTE:
            chunk.velocity_norm = norms[i]
            metrics.append(estimate_metric(norms[i], dt, chunk.latent_norm))
        elif chunk.velocity_norm is None or decision.estimate is None:
            raise InternalError("reuse decision with no cached velocity or no estimate")
        else:
            metrics.append(decision.estimate)
        chunk.accumulator = decision.accumulator
    return metrics
