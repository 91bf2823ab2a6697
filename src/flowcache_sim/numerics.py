"""Dense numeric kernels shared by every other module.

All kernels operate on float64 numpy arrays, are pure functions of their
inputs, and are deterministic for a fixed input. Inputs are validated to be
finite; kernels that could overflow guard against producing NaN/Inf.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

FLOAT = np.float64


def _ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{what} produced a non-finite value")
    return arr


def l1_norm(x: np.ndarray) -> float:
    """Sum of absolute values over all elements."""
    x = np.asarray(x, dtype=FLOAT)
    if x.size == 0:
        raise InvalidInput("l1_norm of an empty tensor")
    total = float(np.abs(x).sum())
    if not np.isfinite(total):
        raise InvalidInput("l1_norm overflowed")
    return total


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``, into a fresh array.

    Uses max-subtraction so inputs with magnitude up to ~1e3 neither overflow
    nor underflow to a zero denominator. Output entries are positive and sum
    to 1 along ``axis`` within 1e-12.
    """
    return softmax_(np.array(x, dtype=FLOAT), axis)


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax`` in place: overwrite float64 ``x`` (same bits), return it."""
    if not isinstance(x, np.ndarray) or x.dtype != FLOAT:
        raise InvalidInput("softmax_ needs a float64 array")
    if x.ndim == 0 or not (-x.ndim <= axis < x.ndim):
        raise InvalidInput(f"axis {axis} invalid for shape {x.shape}")
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return _ensure_finite(x, "softmax")


def maxpool1d(x: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving 1-D max pool with an odd kernel, along the last axis.

    Window of width ``kernel`` is centered at each position; out-of-range
    positions are ignored (equivalent to -inf padding), so all-negative
    inputs pool correctly. Leading axes are pooled independently (row-wise).
    Output shape equals input shape and every output element dominates the
    corresponding input element.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim < 1:
        raise InvalidInput("maxpool1d expects at least one axis")
    if kernel < 1 or kernel % 2 == 0:
        raise InvalidInput(f"kernel must be odd and positive, got {kernel}")
    if kernel == 1:
        return x.copy()
    radius = kernel // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(radius, radius)],
                    constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=-1)
    return windows.max(axis=-1)


def stable_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in ascending index order.

    Ties break toward the lower index, which makes every selection
    deterministic and lets a full stable sort serve as an oracle.
    """
    scores = np.asarray(scores, dtype=FLOAT)
    if scores.ndim != 1:
        raise InvalidInput("stable_topk expects a 1-D score vector")
    if not 0 < k <= scores.size:
        raise InvalidInput(f"k={k} out of range for {scores.size} scores")
    # stable sort on negated scores: equal scores keep ascending index order
    order = np.argsort(-scores, kind="stable")[:k]
    order.sort()
    return order
