"""Exponentially weighted moving statistics.

Implements exactly the estimator of §5.3: with span ``s`` the decay is
``alpha = 2 / (s + 1)``, weights ``w_i = (1 - alpha)**i`` (most recent value
heaviest) and

    y_t = sum_i w_i * x_{t-i} / sum_i w_i

i.e. the ``adjust=True`` convention of common data-analysis tools the paper
cites. The moving standard deviation uses the same weights
(``sqrt(E_w[x^2] - E_w[x]^2)``, the biased weighted variance).

Every function works along the last axis, so a ``(series, slots)`` matrix
is as many independent series in one call. The recursion
``num_t = x_t + (1-alpha) * num_{t-1}`` is evaluated in vectorized blocks:
within a block the cumulative sums are computed with a single scaling
trick, and only the carry crosses block boundaries, so long series stay
fast and numerically safe. ``cumsum`` along the last axis is a sequential
accumulate, so each row of a matrix sees the same float operations as the
1-D call on that row and the results are bit-equal.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 512


def _ewm_numerators(x: np.ndarray, alpha: float) -> np.ndarray:
    """num_t = sum_{i<=t} (1-alpha)^(t-i) * x_i along the last axis,
    computed blockwise."""
    decay = 1.0 - alpha
    n = x.shape[-1]
    if decay <= 0.0:
        return x.astype(np.float64)
    # Keep decay**-block below ~1e87 so the scaling trick cannot overflow.
    block = int(min(_BLOCK, max(1.0, 200.0 / -np.log(decay))))
    out = np.empty(x.shape, dtype=np.float64)
    carry = np.zeros(x.shape[:-1] + (1,), dtype=np.float64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        chunk = x[..., lo:hi].astype(np.float64)
        k = hi - lo
        # within the block: num_t = decay^t * cumsum(x_i / decay^i) + decay^(t+1) * carry
        powers = decay ** np.arange(k)
        scaled = np.cumsum(chunk / powers, axis=-1)
        out[..., lo:hi] = powers * scaled + powers * decay * carry
        carry = out[..., hi - 1:hi]
    return out


def ewm_mean(x: np.ndarray, span: int) -> np.ndarray:
    """Exponentially weighted moving average along the last axis, with the
    paper's span convention (``alpha = 2 / (span + 1)``, adjust=True)."""
    if span < 1:
        raise ValueError(f"span must be >= 1: {span}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] == 0:
        return x.copy()
    alpha = 2.0 / (span + 1.0)
    num = _ewm_numerators(x, alpha)
    # every row shares the one denominator sequence
    den = _ewm_numerators(np.ones(x.shape[-1]), alpha)
    return num / den


def ewm_mean_std(x: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """EWM mean and standard deviation along the last axis, with shared
    weights.

    The variance is the biased weighted variance
    ``E_w[x^2] - (E_w[x])^2``, floored at zero against rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    mean = ewm_mean(x, span)
    mean_sq = ewm_mean(x * x, span)
    var = mean_sq - mean * mean
    # Cancellation noise: a constant series must yield exactly zero SD.
    var[var < 1e-12 * np.maximum(mean_sq, 1e-300)] = 0.0
    return mean, np.sqrt(np.maximum(var, 0.0))
