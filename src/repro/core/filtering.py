"""§5.5: potentials of fine-grained filtering (Figs 14–15).

Fig. 14 emulates a port-based filter: for each anomaly event with data,
which share of its packets would an a-priori list of UDP amplification
source ports have dropped? Fig. 15 asks how concentrated the reflector
population is: for every handover AS and origin AS, in what share of the
amplification events did it participate?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import PreRTBHClass, PreRTBHClassification
from repro.core.protocols import event_window_packets
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.net.ports import AMPLIFICATION_PORTS
from repro.net.protocols import IPProtocol
from repro.stats.cdf import EmpiricalCDF


def _anomaly_events(events: Sequence[RTBHEvent],
                    classification: PreRTBHClassification) -> List[RTBHEvent]:
    anomalous = {e.event_id for e in classification.events
                 if e.classification is PreRTBHClass.DATA_ANOMALY}
    return [e for e in events if e.event_id in anomalous]


def filterable_share_cdf(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    classification: PreRTBHClassification,
    ports: frozenset[int] = AMPLIFICATION_PORTS,
) -> EmpiricalCDF:
    """Fig. 14: ECDF over events of the share of packets a UDP
    source-port filter would have dropped."""
    shares = []
    for event in _anomaly_events(events, classification):
        packets = event_window_packets(data, event)
        if len(packets) == 0:
            continue
        udp = packets["protocol"] == int(IPProtocol.UDP)
        matches = udp & np.isin(packets["src_port"], sorted(ports))
        shares.append(float(matches.sum()) / len(packets))
    if not shares:
        raise AnalysisError("no anomaly events with traffic")
    return EmpiricalCDF(shares)


@dataclass(frozen=True)
class ASParticipation:
    """Fig. 15: per-AS participation in amplification events."""

    total_events: int
    #: AS -> share of events it appeared in
    handover: Dict[int, float]
    origin: Dict[int, float]
    mean_amplifiers_per_event: float
    mean_handover_asns_per_event: float
    mean_origin_asns_per_event: float

    def top(self, which: str, n: int = 10) -> List[Tuple[int, float]]:
        table = self.handover if which == "handover" else self.origin
        return sorted(table.items(), key=lambda kv: kv[1], reverse=True)[:n]

    def participation_cdf(self, which: str) -> EmpiricalCDF:
        table = self.handover if which == "handover" else self.origin
        return EmpiricalCDF(list(table.values()))


def as_participation(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    classification: PreRTBHClassification,
    ports: frozenset[int] = AMPLIFICATION_PORTS,
) -> ASParticipation:
    """Fig. 15 over all anomaly events with UDP-amplification traffic.

    Only reflected packets (UDP with an amplification source port) count:
    their source addresses are genuine reflector addresses, so the origin
    AS attribution is not spoofable — the handover AS (MAC-derived) never
    is.
    """
    handover_hits: Dict[int, int] = {}
    origin_hits: Dict[int, int] = {}
    amp_counts, handover_counts, origin_counts = [], [], []
    n_events = 0
    port_list = sorted(ports)
    for event in _anomaly_events(events, classification):
        packets = event_window_packets(data, event)
        if len(packets) == 0:
            continue
        amp = packets[(packets["protocol"] == int(IPProtocol.UDP))
                      & np.isin(packets["src_port"], port_list)]
        if len(amp) == 0:
            continue
        n_events += 1
        handovers = set(np.unique(amp["ingress_asn"]).tolist())
        origins = set(np.unique(amp["origin_asn"]).tolist())
        amp_counts.append(len(np.unique(amp["src_ip"])))
        handover_counts.append(len(handovers))
        origin_counts.append(len(origins))
        for asn in handovers:
            handover_hits[asn] = handover_hits.get(asn, 0) + 1
        for asn in origins:
            origin_hits[asn] = origin_hits.get(asn, 0) + 1
    if n_events == 0:
        raise AnalysisError("no amplification events with traffic")
    return ASParticipation(
        total_events=n_events,
        handover={asn: c / n_events for asn, c in handover_hits.items()},
        origin={asn: c / n_events for asn, c in origin_hits.items()},
        mean_amplifiers_per_event=float(np.mean(amp_counts)),
        mean_handover_asns_per_event=float(np.mean(handover_counts)),
        mean_origin_asns_per_event=float(np.mean(origin_counts)),
    )
