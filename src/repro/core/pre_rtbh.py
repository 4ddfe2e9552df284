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
from repro.corpus.data import DataPlaneCorpus, WindowRows
from repro.errors import AnalysisError
from repro.stats.anomaly import AnomalyConfig, EWMAAnomalyDetector

SLOT = 300.0                 # 5-minute slots
PRE_WINDOW = 72 * 3_600.0    # 72 hours
N_SLOTS = int(PRE_WINDOW / SLOT)
FEATURE_NAMES = ("packets", "flows", "src_ips", "dst_ports", "non_tcp_flows")


#: Rows a pre-window batch may gather before it is classified: the
#: packets of its windows plus ``N_SLOTS`` feature slots per event with
#: data.  Bounds the batch's packet rows and its ``(events·5, N_SLOTS)``
#: detector matrix alike.
_BATCH_ROWS = 1 << 15


def window_slot_features(packets: np.ndarray, window: np.ndarray,
                         window_starts: np.ndarray, n_slots: int = N_SLOTS,
                         slot: float = SLOT) -> np.ndarray:
    """The §5.3 features of many windows at once, ``(windows, 5, n_slots)``.

    Row ``i`` of ``packets`` belongs to window ``window[i]``, which starts at
    ``window_starts[window[i]]``; rows outside their window's ``n_slots``
    slots are ignored.  Packets are counted per (window, slot) with one
    ``bincount``; each unique count (flows, sources, ports, non-TCP flows)
    sorts one ``(window·slot, value)`` key and counts its runs.
    """
    window_starts = np.asarray(window_starts, dtype=np.float64)
    n_cells = len(window_starts) * n_slots
    features = np.zeros((len(window_starts), len(FEATURE_NAMES), n_slots),
                        dtype=np.float64)
    if len(packets) == 0:
        return features
    window = np.asarray(window, dtype=np.int64)
    slots = ((packets["time"] - window_starts[window]) // slot).astype(np.int64)
    cell = window * n_slots + slots
    valid = (slots >= 0) & (slots < n_slots)
    if not valid.all():
        packets, cell = packets[valid], cell[valid]
        if len(packets) == 0:
            return features
    cell = cell.astype(np.uint64)
    flow_key = (
        packets["src_ip"].astype(np.uint64) * np.uint64(2654435761)
        ^ (packets["dst_ip"].astype(np.uint64) << np.uint64(16))
        ^ (packets["src_port"].astype(np.uint64) << np.uint64(32))
        ^ (packets["dst_port"].astype(np.uint64) << np.uint64(48))
        ^ packets["protocol"].astype(np.uint64)
    )
    # dense flow ids fit the low 32 bits next to the cell
    _, flow_id = np.unique(flow_key, return_inverse=True)
    flow_id = flow_id.reshape(-1).astype(np.uint64)
    non_tcp = packets["protocol"] != 6
    cell_hi = cell << np.uint64(32)

    def distinct(keys: np.ndarray) -> np.ndarray:
        keys = np.sort(keys)
        runs = keys[np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        cells = np.r_[keys[:1], runs] >> np.uint64(32)
        return np.bincount(cells.astype(np.intp), minlength=n_cells)

    counts = (
        np.bincount(cell.astype(np.intp), minlength=n_cells),
        distinct(cell_hi | flow_id),
        distinct(cell_hi | packets["src_ip"].astype(np.uint64)),
        distinct(cell_hi | packets["dst_port"].astype(np.uint64)),
        distinct(cell_hi[non_tcp] | flow_id[non_tcp]),
    )
    for j, count in enumerate(counts):
        features[:, j, :] = count.reshape(-1, n_slots)
    return features


def slot_features(packets: np.ndarray, window_start: float,
                  n_slots: int = N_SLOTS, slot: float = SLOT) -> np.ndarray:
    """The §5.3 feature matrix of one window, ``(n_slots, 5)``.

    ``packets`` must already be restricted to the traffic of interest.
    Uniques (flows, sources, ports) are counted per slot.
    """
    return window_slot_features(
        packets, np.zeros(len(packets), dtype=np.int64), [window_start],
        n_slots, slot)[0].T


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


def pre_window_rows(data: DataPlaneCorpus,
                    events: Sequence[RTBHEvent]) -> WindowRows:
    """Every event's pre-window rows, one gather per event."""
    return data.window_rows([e.prefix for e in events],
                            [[(e.start - PRE_WINDOW, e.start)] for e in events])


def classify_pre_rtbh_events(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    detector: EWMAAnomalyDetector | None = None,
    anomaly_horizon_min: float = 10.0,
    *,
    rows: WindowRows | None = None,
) -> PreRTBHClassification:
    """Run the full §5.2–5.3 pipeline over all events, in event order.

    Pre-windows come from ``rows`` (:func:`pre_window_rows`), or else
    one :meth:`~repro.corpus.data.DataPlaneCorpus.window_packets` call
    each, as the streaming reducer gathers them.  Consecutive events
    are cut into batches of about ``_BATCH_ROWS`` rows; a batch's rows
    are one gather of ``rows`` (or its windows concatenated), flat in
    event order, and one call computes its features and runs the
    detector.
    An event's result depends only on data *before* ``event.start`` (and
    the fixed corpus start), so the streaming engine classifies each event
    exactly once — at the watermark where it first appears — and the
    outcome never changes as the corpus grows.
    """
    detector = detector or EWMAAnomalyDetector(AnomalyConfig())
    corpus_start = data.start_time if len(data) else 0.0
    counts = [] if rows is None else rows.counts.tolist()
    windows: List[np.ndarray] = []
    result = PreRTBHClassification()
    lo = n_rows = 0
    for i, event in enumerate(events):
        if rows is None:
            windows.append(data.window_packets(
                event.prefix, [(event.start - PRE_WINDOW, event.start)]))
            counts.append(len(windows[-1]))
        if counts[i]:
            n_rows += counts[i] + N_SLOTS
        if n_rows >= _BATCH_ROWS or i == len(events) - 1:
            records = (np.concatenate(windows) if rows is None else
                       rows.packets.take(rows.rows[rows.offsets[lo]:
                                                   rows.offsets[i + 1]]))
            result.events.extend(_classify_batch(
                events[lo:i + 1], np.array(counts[lo:i + 1], dtype=np.int64),
                records, detector, corpus_start, anomaly_horizon_min))
            lo, n_rows, windows = i + 1, 0, []
    return result


def _classify_batch(
    events: Sequence[RTBHEvent],
    counts: np.ndarray,
    records: np.ndarray,
    detector: EWMAAnomalyDetector,
    corpus_start: float,
    anomaly_horizon_min: float,
) -> List[PreRTBHEvent]:
    """Classify consecutive events whose pre-windows hold ``counts``
    rows each, flat and in event order in ``records``."""
    with_data = counts > 0
    window_starts = np.array([event.start - PRE_WINDOW for event in events])[
        with_data]
    features = window_slot_features(
        records, np.repeat(np.arange(len(window_starts)), counts[with_data]),
        window_starts)
    flags = detector.detect(
        features.reshape(-1, N_SLOTS)).reshape(features.shape)
    # Slots before the corpus began are *artificially* zero; they must
    # not serve as detection history. Re-apply the full-window rule
    # relative to the first real slot.
    first_real = np.maximum(np.ceil((corpus_start - window_starts) / SLOT),
                            0.0).astype(np.int64)
    cutoff = np.where(first_real > 0,
                      np.minimum(first_real + detector.config.min_window,
                                 N_SLOTS), 0)
    flags &= np.arange(N_SLOTS) >= cutoff[:, None, None]
    levels = flags.sum(axis=1)
    slots_with_data = (features[:, 0, :] > 0).sum(axis=1)
    # Fig. 13: relative rise of the final 5-minute slot
    means = features.mean(axis=2)
    last = features[:, :, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(means > 0, last / means, np.nan)
    last_is_max = (last[:, 0] > 0) & (last[:, 0] >= features[:, 0, :].max(
        axis=1, initial=0.0))

    out: List[PreRTBHEvent] = []
    b = 0
    for event, count in zip(events, counts.tolist()):
        if count == 0:
            out.append(PreRTBHEvent(
                event_id=event.event_id,
                classification=PreRTBHClass.NO_DATA,
                slots_with_data=0, total_packets=0,
            ))
            continue
        anomalous = np.flatnonzero(levels[b] > 0)
        anomalies = tuple(zip(
            ((N_SLOTS - anomalous) * SLOT / 60.0).tolist(),
            levels[b][anomalous].tolist()))
        has_recent = any(off <= anomaly_horizon_min for off, _ in anomalies)
        out.append(PreRTBHEvent(
            event_id=event.event_id,
            classification=(PreRTBHClass.DATA_ANOMALY if has_recent
                            else PreRTBHClass.DATA_NO_ANOMALY),
            slots_with_data=int(slots_with_data[b]),
            total_packets=count,
            anomalies=anomalies,
            amplification_factors=tuple(factors[b].tolist()),
            last_slot_is_max=bool(last_is_max[b]),
        ))
        b += 1
    return out
