"""Dense numeric kernels shared by every other module.

All kernels operate on float64 numpy arrays, are pure functions of their
inputs, and are deterministic for a fixed input. Inputs are validated to be
finite; kernels that could overflow guard against producing NaN/Inf. The KV
scores' softmaxes live in ``kvcache``: their bounded inputs need no max shift.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput

FLOAT = np.float64


def l1_norms(rows: np.ndarray, what: str = "l1_norm") -> list[float]:
    """Sum of absolute values of each ``rows[i]``, summed on its own (the bits
    of ``l1_norm(rows[i])``); also the finiteness check of ``rows``, as a sum is
    finite only when every element is. Raises ``InvalidInput`` naming ``what``."""
    if rows.size == 0:
        raise InvalidInput("l1_norm of an empty tensor")
    totals = np.abs(rows.reshape(len(rows), -1)).sum(axis=1).tolist()
    if not all(map(math.isfinite, totals)):
        raise InvalidInput(f"{what} produced a non-finite value")
    return totals


def l1_norm(x: np.ndarray, what: str = "l1_norm") -> float:
    """Sum of absolute values over all elements, checked as ``l1_norms`` checks."""
    return l1_norms(np.asarray(x, dtype=FLOAT)[None], what)[0]


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
    if x.shape[-1] == 0:
        raise InvalidInput("maxpool1d of an empty row")
    if kernel < 1 or kernel % 2 == 0:
        raise InvalidInput(f"kernel must be odd and positive, got {kernel}")
    # max is exact: one shifted np.maximum per side and offset gives the same bits
    out = x.copy()
    for s in range(1, min(kernel // 2, x.shape[-1] - 1) + 1):
        np.maximum(out[..., :-s], x[..., s:], out=out[..., :-s])
        np.maximum(out[..., s:], x[..., :-s], out=out[..., s:])
    return out


def stable_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest finite scores, in ascending index order.

    Ties break toward the lower index, which makes every selection deterministic;
    a full stable sort, ``verify``'s oracle, gives the ids this partition does.
    """
    scores = np.asarray(scores, dtype=FLOAT)
    if scores.ndim != 1:
        raise InvalidInput("stable_topk expects a 1-D score vector")
    if not 0 < k <= scores.size:
        raise InvalidInput(f"k={k} out of range for {scores.size} scores")
    if not np.isfinite(scores).all():   # a partition would rank NaN above every score
        raise InvalidInput("stable_topk needs finite scores")
    top = np.partition(scores, scores.size - k)[scores.size - k:]   # the k largest, top[0] least
    ties = scores == top[0]   # partition, ties filled by index: as many as top holds, lowest first
    return np.flatnonzero((scores > top[0]) | (ties & (np.cumsum(ties) <= (top == top[0]).sum())))
