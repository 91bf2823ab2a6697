"""Power-law noise schedule, discrete time grid, and the first-order update."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, Singularity
from .numerics import FLOAT


@dataclass(frozen=True)
class PowerLawSchedule:
    """Noise level sigma(t) = (t / total_time) ** power on a uniform grid.

    The grid has ``steps + 1`` points total_time * i / steps, traversed from
    total_time down to 0 during denoising. The velocity is only ever
    evaluated at t >= total_time / steps, so the t = 0 singularity of the
    log-derivative is never touched.
    """

    power: float
    total_time: float = 1.0
    steps: int = 64

    def __post_init__(self):
        if self.power <= 0:
            raise InvalidInput(f"power must be positive, got {self.power}")
        if self.total_time <= 0:
            raise InvalidInput(f"total_time must be positive, got {self.total_time}")
        if self.steps < 1:
            raise InvalidInput(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.total_time / self.steps

    def sigma(self, t: float) -> float:
        """Noise level in [0, 1]; errors outside the [0, total_time] domain."""
        if not 0 <= t <= self.total_time:
            raise InvalidInput(f"t={t} outside [0, {self.total_time}]")
        return float((t / self.total_time) ** self.power)

    def log_derivative_ratio(self, t: float) -> float:
        """sigma'(t) / sigma(t), which reduces to power / t."""
        if t <= 0:
            raise Singularity(f"log-derivative ratio diverges at t={t}")
        return self.power / t

    def time_at(self, local_step: int) -> float:
        """Timestep value before executing local step ``local_step`` (0-based)."""
        if not 0 <= local_step < self.steps:
            raise InvalidInput(f"local_step={local_step} outside [0, {self.steps})")
        return self.total_time * (self.steps - local_step) / self.steps


def euler_step(x: np.ndarray, v: np.ndarray, dt: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """x + v * dt elementwise, into ``out`` if given; dt is the positive step magnitude.

    Not scanned here: the caller's checked ``l1_norm`` of the result is the check.
    """
    x = np.asarray(x, dtype=FLOAT)
    v = np.asarray(v, dtype=FLOAT)
    if x.shape != v.shape:
        raise InvalidInput(f"shape mismatch {x.shape} vs {v.shape}")
    if dt <= 0:
        raise InvalidInput(f"dt must be positive, got {dt}")
    return np.add(x, v * dt, out=out)
