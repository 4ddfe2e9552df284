"""Maximum-likelihood estimation of the control/data-plane clock offset
(§3.1, Fig. 2).

All measurement devices at the IXP synchronise over NTP, but the two data
sets may still disagree by a small offset. The estimator slides the
data-plane timestamps of *dropped* packets against the control-plane
blackhole-announcement intervals: at the true offset, the share of dropped
packets that fall inside an announced interval of a covering blackhole
prefix is maximal. That overlap share, as a function of the trial offset,
is the likelihood curve of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.dataplane.timeline import IntervalSet
from repro.errors import AnalysisError
from repro.net.ip import IPv4Prefix


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of the offset scan: the likelihood curve and its peak."""

    offsets: np.ndarray          # trial offsets (seconds, control minus data)
    overlap_share: np.ndarray    # share of dropped packets explained
    best_offset: float
    best_share: float
    total_packets: int

    def as_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.offsets.tolist(), self.overlap_share.tolist()))


def estimate_time_offset(
    dropped_times_by_prefix: Mapping[IPv4Prefix, np.ndarray],
    announced_intervals: Mapping[IPv4Prefix, IntervalSet],
    offsets: np.ndarray | None = None,
) -> OffsetEstimate:
    """Scan candidate offsets and locate the maximum-overlap offset.

    ``dropped_times_by_prefix`` maps each blackhole prefix to the data-plane
    timestamps of packets dropped while destined into it;
    ``announced_intervals`` holds the control-plane announcement intervals
    per prefix. ``offsets`` defaults to a ±2 s scan in 40 ms steps (the
    paper resolves a -0.04 s offset).
    """
    if offsets is None:
        offsets = np.arange(-2.0, 2.0 + 1e-9, 0.04)
    offsets = np.asarray(offsets, dtype=np.float64)
    if len(offsets) == 0:
        raise AnalysisError("no trial offsets given")

    total = sum(len(t) for t in dropped_times_by_prefix.values())
    if total == 0:
        raise AnalysisError("no dropped packets to align")

    # A sample farther than this from every edge of its interval set is
    # on the same side of all of them at every trial offset (1 s of slack
    # covers the rounding of ``times + offset``), so it is counted once,
    # unshifted; only the samples near an edge are scanned per offset.
    reach = float(np.abs(offsets).max()) + 1.0
    matched = np.zeros(len(offsets), dtype=np.int64)
    for prefix, times in dropped_times_by_prefix.items():
        intervals = announced_intervals.get(prefix)
        if intervals is None or len(intervals) == 0:
            continue
        times = np.asarray(times, dtype=np.float64)
        edges = intervals.edges
        right = np.searchsorted(edges, times)
        gap_before = times - edges[np.maximum(right - 1, 0)]
        gap_after = edges[np.minimum(right, len(edges) - 1)] - times
        near = (((right > 0) & (gap_before <= reach))
                | ((right < len(edges)) & (gap_after <= reach)))
        matched += int(intervals.contains(times[~near]).sum())
        # Shift data-plane times onto the control-plane clock.
        shifted = times[near] + offsets[:, None]
        matched += intervals.contains(shifted.reshape(-1)).reshape(
            shifted.shape).sum(axis=1)

    share = matched / total
    # On plateaus (several offsets explain the same share) prefer the
    # offset closest to zero: clocks are NTP-synchronised, so the smallest
    # consistent offset is the most likely one.
    best_share_value = share.max()
    candidates = np.flatnonzero(share == best_share_value)
    best = int(candidates[np.argmin(np.abs(offsets[candidates]))])
    return OffsetEstimate(
        offsets=offsets,
        overlap_share=share,
        best_offset=float(offsets[best]),
        best_share=float(share[best]),
        total_packets=total,
    )
