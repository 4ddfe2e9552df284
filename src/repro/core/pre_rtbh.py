"""§5.2–5.3: traffic before RTBH events (Figs 11–13, Table 2).

For every RTBH event the 72 hours before the first announcement (the
*pre-RTBH event*) are aggregated into 5-minute slots with five features —
packets, flows, unique source IPs, unique destination ports, non-TCP
flows — and scanned with the EWMA anomaly detector (24 h span, 2.5 SD).
Events are classified into: no sampled data at all / data but no anomaly /
data with an anomaly within 10 minutes of the first announcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.stats.anomaly import AnomalyConfig, EWMAAnomalyDetector

SLOT = 300.0                 # 5-minute slots
PRE_WINDOW = 72 * 3_600.0    # 72 hours
N_SLOTS = int(PRE_WINDOW / SLOT)
FEATURE_NAMES = ("packets", "flows", "src_ips", "dst_ports", "non_tcp_flows")


def slot_features(packets: np.ndarray, window_start: float,
                  n_slots: int = N_SLOTS, slot: float = SLOT) -> np.ndarray:
    """The §5.3 feature matrix, ``(n_slots, 5)``.

    ``packets`` must already be restricted to the traffic of interest.
    Uniques (flows, sources, ports) are counted per slot.
    """
    features = np.zeros((n_slots, len(FEATURE_NAMES)), dtype=np.float64)
    if len(packets) == 0:
        return features
    slots = ((packets["time"] - window_start) // slot).astype(np.int64)
    valid = (slots >= 0) & (slots < n_slots)
    packets = packets[valid]
    slots = slots[valid]
    if len(packets) == 0:
        return features
    order = np.argsort(slots, kind="stable")
    packets, slots = packets[order], slots[order]
    bounds = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    bounds = np.r_[bounds, len(slots)]
    flow_key = (
        packets["src_ip"].astype(np.uint64) * np.uint64(2654435761)
        ^ (packets["dst_ip"].astype(np.uint64) << np.uint64(16))
        ^ (packets["src_port"].astype(np.uint64) << np.uint64(32))
        ^ (packets["dst_port"].astype(np.uint64) << np.uint64(48))
        ^ packets["protocol"].astype(np.uint64)
    )
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        s = slots[lo]
        chunk = packets[lo:hi]
        keys = flow_key[lo:hi]
        features[s, 0] = hi - lo
        features[s, 1] = len(np.unique(keys))
        features[s, 2] = len(np.unique(chunk["src_ip"]))
        features[s, 3] = len(np.unique(chunk["dst_port"]))
        non_tcp = chunk["protocol"] != 6
        features[s, 4] = len(np.unique(keys[non_tcp])) if non_tcp.any() else 0
    return features


class PreRTBHClass(str, Enum):
    NO_DATA = "no-data"
    DATA_NO_ANOMALY = "data-no-anomaly"
    DATA_ANOMALY = "data-anomaly"


@dataclass(frozen=True)
class PreRTBHEvent:
    """Per-event pre-window summary."""

    event_id: int
    classification: PreRTBHClass
    slots_with_data: int
    total_packets: int
    #: (minutes before the event start, anomaly level) per anomalous slot
    anomalies: Tuple[Tuple[float, int], ...] = ()
    #: per-feature last-slot / window-mean ratios (NaN when undefined)
    amplification_factors: Tuple[float, ...] = ()
    last_slot_is_max: bool = False

    @property
    def has_anomaly_within(self) -> Dict[str, bool]:
        return {
            "10min": any(off <= 10.0 for off, _ in self.anomalies),
            "1h": any(off <= 60.0 for off, _ in self.anomalies),
        }


@dataclass
class PreRTBHClassification:
    """Corpus-wide results: Table 2 plus the Fig. 11–13 inputs."""

    events: List[PreRTBHEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def class_shares(self) -> Dict[PreRTBHClass, float]:
        """Table 2: the three-class split (anomaly = within 10 min)."""
        n = len(self.events)
        if n == 0:
            raise AnalysisError("no events classified")
        counts = {c: 0 for c in PreRTBHClass}
        for event in self.events:
            counts[event.classification] += 1
        return {c: counts[c] / n for c in PreRTBHClass}

    def anomaly_share_within(self, minutes: float) -> float:
        """Share of all events with an anomaly at most ``minutes`` before."""
        n = len(self.events)
        hits = sum(any(off <= minutes for off, _ in e.anomalies)
                   for e in self.events)
        return hits / n if n else 0.0

    def slots_with_data_histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 11: cumulative #events with ≤ k data slots (k on x)."""
        slots = np.array([e.slots_with_data for e in self.events
                          if e.classification is not PreRTBHClass.NO_DATA])
        if len(slots) == 0:
            return np.array([0]), np.array([0])
        ks = np.arange(0, slots.max() + 1)
        cumulative = np.array([(slots <= k).sum() for k in ks])
        return ks, cumulative

    def anomaly_offsets_levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 12: (minutes-before, level) pairs over all events."""
        offsets, levels = [], []
        for event in self.events:
            for off, level in event.anomalies:
                offsets.append(off)
                levels.append(level)
        return np.array(offsets), np.array(levels)

    def amplification_factor_summary(self) -> Dict[str, float]:
        """Fig. 13: last-slot amplification factors."""
        factors = []
        max_hits = 0
        considered = 0
        for event in self.events:
            if not event.amplification_factors:
                continue
            finite = [f for f in event.amplification_factors if np.isfinite(f)]
            if not finite:
                continue
            considered += 1
            factors.append(max(finite))
            max_hits += event.last_slot_is_max
        if not factors:
            raise AnalysisError("no events with a populated last slot")
        arr = np.array(factors)
        return {
            "events_with_last_slot_data": considered,
            "median_factor": float(np.median(arr)),
            "p90_factor": float(np.quantile(arr, 0.90)),
            "max_factor": float(arr.max()),
            "share_last_slot_is_max": max_hits / considered,
        }


def classify_pre_rtbh_events(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    detector: EWMAAnomalyDetector | None = None,
    anomaly_horizon_min: float = 10.0,
) -> PreRTBHClassification:
    """Run the full §5.2–5.3 pipeline over all events."""
    detector = detector or EWMAAnomalyDetector(AnomalyConfig())
    result = PreRTBHClassification()
    corpus_start = data.start_time if len(data) else 0.0
    for event in events:
        result.events.append(classify_single_event(
            data, event, detector, corpus_start=corpus_start,
            anomaly_horizon_min=anomaly_horizon_min))
    return result


def classify_single_event(
    data: DataPlaneCorpus,
    event: RTBHEvent,
    detector: EWMAAnomalyDetector,
    *,
    corpus_start: float,
    anomaly_horizon_min: float = 10.0,
) -> PreRTBHEvent:
    """Classify one event's 72 h pre-window.

    The result depends only on data *before* ``event.start`` (and the
    fixed ``corpus_start``), so the streaming engine classifies each
    event exactly once — at the watermark where it first appears — and
    the outcome never changes as the corpus grows.
    """
    window_start = event.start - PRE_WINDOW
    window = data.window_packets(event.prefix, [(window_start, event.start)])
    total = len(window)
    if total == 0:
        return PreRTBHEvent(
            event_id=event.event_id,
            classification=PreRTBHClass.NO_DATA,
            slots_with_data=0, total_packets=0,
        )
    features = slot_features(window, window_start)
    flags = detector.detect_multi(features)
    # Slots before the corpus began are *artificially* zero; they must
    # not serve as detection history. Re-apply the full-window rule
    # relative to the first real slot.
    first_real = int(max(0.0, np.ceil((corpus_start - window_start) / SLOT)))
    if first_real > 0:
        cutoff = min(first_real + detector.config.min_window, N_SLOTS)
        flags[:cutoff] = False
    levels = flags.sum(axis=1)
    anomalous = np.flatnonzero(levels > 0)
    anomalies = tuple(
        (float((N_SLOTS - s) * SLOT / 60.0), int(levels[s])) for s in anomalous
    )
    slots_with_data = int((features[:, 0] > 0).sum())
    # Fig. 13: relative rise of the final 5-minute slot
    means = features.mean(axis=0)
    last = features[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(means > 0, last / means, np.nan)
    has_recent = any(off <= anomaly_horizon_min for off, _ in anomalies)
    return PreRTBHEvent(
        event_id=event.event_id,
        classification=(PreRTBHClass.DATA_ANOMALY if has_recent
                        else PreRTBHClass.DATA_NO_ANOMALY),
        slots_with_data=slots_with_data,
        total_packets=total,
        anomalies=anomalies,
        amplification_factors=tuple(float(f) for f in factors),
        last_slot_is_max=bool(last[0] > 0 and last[0] >= features[:, 0].max()),
    )
