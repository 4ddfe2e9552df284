"""§5.4: traffic during RTBH events — protocol mix and amplification
protocols (Table 3).

Only events that (a) had a preceding anomaly and (b) have sampled packets
during their windows enter the protocol analysis, exactly as in the paper.
All statistics are per event to keep heavy hitters from biasing the mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import PreRTBHClass, PreRTBHClassification
from repro.corpus.data import WindowRows
from repro.errors import AnalysisError
from repro.net.ports import AMPLIFICATION_PORTS
from repro.net.protocols import IPProtocol


@dataclass(frozen=True)
class EventProtocolMix:
    """Corpus-level §5.4 numbers."""

    events_total: int
    events_with_data: int
    events_with_data_and_anomaly: int
    #: mean per-event share of each transport protocol (anomaly events)
    protocol_shares: Dict[IPProtocol, float]
    #: per anomaly event: number of distinct amplification protocols seen
    amplification_protocol_counts: Tuple[int, ...]

    @property
    def share_events_with_data(self) -> float:
        return self.events_with_data / self.events_total if self.events_total else 0.0


def anomaly_rows(events: Sequence[RTBHEvent], rows: WindowRows,
                 classification: PreRTBHClassification) -> WindowRows:
    """The window rows of the events with data and a preceding anomaly."""
    anomalous = {e.event_id for e in classification.events
                 if e.classification is PreRTBHClass.DATA_ANOMALY}
    return rows.select([e.event_id in anomalous and bool(n)
                        for e, n in zip(events, rows.counts.tolist())])


def reflected(rows: WindowRows,
              ports: frozenset[int] = AMPLIFICATION_PORTS) -> np.ndarray:
    """Per row: UDP from one of the (amplification) source ``ports``."""
    return ((rows.column("protocol") == int(IPProtocol.UDP))
            & np.isin(rows.column("src_port"), sorted(ports)))


def event_protocol_mix(
    events: Sequence[RTBHEvent],
    rows: WindowRows,
    classification: PreRTBHClassification,
) -> EventProtocolMix:
    """Compute the §5.4 statistics (and the Table 3 input) from the
    events' window rows (:func:`~repro.core.events.event_rows`)."""
    if len(events) != len(classification.events):
        raise AnalysisError("events and classification must align")
    sub = anomaly_rows(events, rows, classification)
    n = sub.counts
    protocols = sub.column("protocol")
    counts = {proto: sub.sums(protocols == int(proto))
              for proto in (IPProtocol.UDP, IPProtocol.TCP, IPProtocol.ICMP)}
    counts[IPProtocol.OTHER] = n - sum(counts.values())
    amp = sub.where(reflected(sub))
    gather, _ = amp.distinct(amp.column("src_port"))
    return EventProtocolMix(
        events_total=len(events),
        events_with_data=int((rows.counts > 0).sum()),
        events_with_data_and_anomaly=len(sub),
        protocol_shares={proto: float(np.mean(c / n)) if len(n) else 0.0
                         for proto, c in counts.items()},
        amplification_protocol_counts=tuple(
            np.bincount(gather, minlength=len(sub)).tolist()),
    )


def amplification_protocol_table(mix: EventProtocolMix,
                                 max_count: int = 5) -> Dict[int, float]:
    """Table 3: share of anomaly events by number of distinct
    amplification protocols observed (0, 1, 2, ... ``max_count``+)."""
    counts = mix.amplification_protocol_counts
    if not counts:
        raise AnalysisError("no anomaly events with data")
    n = len(counts)
    table = {}
    for k in range(max_count + 1):
        if k < max_count:
            table[k] = sum(c == k for c in counts) / n
        else:
            table[k] = sum(c >= k for c in counts) / n
    return table
