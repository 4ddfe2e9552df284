"""EWMA-based traffic anomaly detection (§5.3).

A value is anomalous when it exceeds the exponentially weighted moving
average of the series *up to the previous slot* by more than
``threshold × SD`` (2.5 by default), where the SD is the matching
exponentially weighted standard deviation. Comparing against the stats of
the previous slot keeps a spike from masking itself.

The paper requires a full 24-hour window (288 five-minute slots) before the
first detection; slots before that are never flagged.

Detection works along the last axis: a ``(series, slots)`` matrix is
scanned as that many independent series in one call, with the same float
operations per row as a 1-D call (see :mod:`repro.stats.ewma`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ewma import ewm_mean_std


@dataclass(frozen=True)
class AnomalyConfig:
    """Detector parameters; defaults mirror §5.3.

    ``min_value`` is an absolute floor: a slot can only alarm when its raw
    value reaches it. On sampled data this is essential — a single sampled
    packet over a silent history exceeds any SD-relative bound, and without
    a floor every isolated sample would count as a level-5 anomaly. The
    paper's observation that thresholds as extreme as 10 SD give "very
    stable results" reflects the same property: real anomalies clear any
    sane floor by orders of magnitude.
    """

    span: int = 288          # 24 h of 5-minute slots
    threshold: float = 2.5   # multiples of the moving SD
    min_window: int = 288    # no detection before a full window
    min_value: float = 4.0   # absolute floor for an anomalous slot

    def __post_init__(self) -> None:
        if self.span < 1:
            raise ValueError(f"span must be >= 1: {self.span}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive: {self.threshold}")
        if self.min_window < 1:
            raise ValueError(f"min_window must be >= 1: {self.min_window}")
        if self.min_value < 0:
            raise ValueError(f"min_value must be >= 0: {self.min_value}")


class EWMAAnomalyDetector:
    """Flags anomalous slots in time series (one per row of the input)."""

    def __init__(self, config: AnomalyConfig | None = None):
        self.config = config or AnomalyConfig()

    def detect(self, series: np.ndarray) -> np.ndarray:
        """Boolean mask of anomalous slots along the last axis.

        A slot ``t`` is anomalous when
        ``x_t > mean_{t-1} + threshold * sd_{t-1}`` and ``t >= min_window``.
        Flat series (SD of zero) only flag strictly positive jumps above
        the mean, so a constant series never alarms.

        A slot also needs ``x_t >= min_value``, so a series without such a
        value at a slot ``>= min_window`` cannot alarm: its row stays
        all-False and skips the EWMA.  Rows are independent, so the others
        come out bit for bit as in one scan of the whole matrix.
        """
        x = np.asarray(series, dtype=np.float64)
        flags = np.zeros(x.shape, dtype=bool)
        first = self.config.min_window  # >= 1
        if x.shape[-1] <= first:
            return flags
        rows = x.reshape(-1, x.shape[-1])
        live = np.flatnonzero(
            (rows[:, first:] >= self.config.min_value).any(axis=1))
        x = rows[live]
        mean, sd = ewm_mean_std(x, self.config.span)
        prev_mean, prev_sd = mean[:, first - 1:-1], sd[:, first - 1:-1]
        current = x[:, first:]
        exceeds = current > prev_mean + self.config.threshold * prev_sd
        # With sd == 0 the bound degenerates to "x > mean": require a real
        # jump (strictly above a flat history) to avoid float-noise alarms.
        flat = prev_sd == 0.0
        exceeds &= ~flat | (current > prev_mean * (1.0 + 1e-9) + 1e-9)
        exceeds &= current >= self.config.min_value
        flags.reshape(rows.shape)[live, first:] = exceeds
        return flags

    def detect_multi(self, features: np.ndarray) -> np.ndarray:
        """Per-feature detection over a ``(slots, features)`` matrix.

        Returns a boolean matrix of the same shape; the per-slot *anomaly
        level* of §5.3 is its row-wise sum.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"expected 2-D (slots, features), got {features.shape}")
        return self.detect(np.ascontiguousarray(features.T)).T

    def anomaly_level(self, features: np.ndarray) -> np.ndarray:
        """Number of simultaneously anomalous features per slot."""
        return self.detect_multi(features).sum(axis=1)
