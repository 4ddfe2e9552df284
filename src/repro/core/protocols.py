"""§5.4: traffic during RTBH events — protocol mix and amplification
protocols (Table 3).

Only events that (a) had a preceding anomaly and (b) have sampled packets
during their windows enter the protocol analysis, exactly as in the paper.
All statistics are per event to keep heavy hitters from biasing the mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import PreRTBHClass, PreRTBHClassification
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.net.ports import AMPLIFICATION_PORTS
from repro.net.protocols import IPProtocol


def event_window_packets(data: DataPlaneCorpus, event: RTBHEvent) -> np.ndarray:
    """All sampled packets destined into the event's prefix during its
    announced windows."""
    return data.window_packets(event.prefix, event.windows)


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


def event_protocol_mix(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    classification: PreRTBHClassification,
) -> EventProtocolMix:
    """Compute the §5.4 statistics (and the Table 3 input)."""
    if len(events) != len(classification.events):
        raise AnalysisError("events and classification must align")
    by_id = {e.event_id: e for e in classification.events}
    with_data = 0
    with_data_and_anomaly = 0
    shares_acc: Dict[IPProtocol, List[float]] = {p: [] for p in IPProtocol}
    amp_counts: List[int] = []
    for event in events:
        packets = event_window_packets(data, event)
        if len(packets) == 0:
            continue
        with_data += 1
        pre = by_id[event.event_id]
        if pre.classification is not PreRTBHClass.DATA_ANOMALY:
            continue
        with_data_and_anomaly += 1
        protocols = packets["protocol"]
        n = len(packets)
        for proto in (IPProtocol.UDP, IPProtocol.TCP, IPProtocol.ICMP):
            shares_acc[proto].append(float((protocols == int(proto)).sum()) / n)
        shares_acc[IPProtocol.OTHER].append(
            float(np.isin(protocols, [1, 6, 17], invert=True).sum()) / n
        )
        udp = packets[protocols == int(IPProtocol.UDP)]
        seen: Set[int] = set(np.unique(udp["src_port"]).tolist()) & AMPLIFICATION_PORTS
        amp_counts.append(len(seen))
    protocol_shares = {
        proto: float(np.mean(vals)) if vals else 0.0
        for proto, vals in shares_acc.items()
    }
    return EventProtocolMix(
        events_total=len(events),
        events_with_data=with_data,
        events_with_data_and_anomaly=with_data_and_anomaly,
        protocol_shares=protocol_shares,
        amplification_protocol_counts=tuple(amp_counts),
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
