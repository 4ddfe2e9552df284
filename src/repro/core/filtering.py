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
from repro.core.pre_rtbh import PreRTBHClassification
from repro.core.protocols import anomaly_rows, reflected
from repro.corpus.data import WindowRows
from repro.errors import AnalysisError
from repro.net.ports import AMPLIFICATION_PORTS
from repro.stats.cdf import EmpiricalCDF


def filterable_share_cdf(
    events: Sequence[RTBHEvent],
    rows: WindowRows,
    classification: PreRTBHClassification,
    ports: frozenset[int] = AMPLIFICATION_PORTS,
) -> EmpiricalCDF:
    """Fig. 14: ECDF over events of the share of packets a UDP
    source-port filter would have dropped."""
    sub = anomaly_rows(events, rows, classification)
    if len(sub) == 0:
        raise AnalysisError("no anomaly events with traffic")
    return EmpiricalCDF(sub.sums(reflected(sub, ports)) / sub.counts)


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



def as_participation(
    events: Sequence[RTBHEvent],
    rows: WindowRows,
    classification: PreRTBHClassification,
    ports: frozenset[int] = AMPLIFICATION_PORTS,
) -> ASParticipation:
    """Fig. 15 over all anomaly events with UDP-amplification traffic.

    Only reflected packets (UDP with an amplification source port) count:
    their source addresses are genuine reflector addresses, so the origin
    AS attribution is not spoofable — the handover AS (MAC-derived) never
    is.
    """
    amp = anomaly_rows(events, rows, classification)
    amp = amp.where(reflected(amp, ports))
    amp = amp.select(amp.counts > 0)
    n_events = len(amp)
    if n_events == 0:
        raise AnalysisError("no amplification events with traffic")

    def spread(column: str) -> Tuple[np.ndarray, Dict[int, float]]:
        """Distinct values per event, and each value's share of events."""
        gather, values = amp.distinct(amp.column(column))
        ids, hits = np.unique(values, return_counts=True)
        return (np.bincount(gather, minlength=n_events),
                {v: c / n_events for v, c in zip(ids.tolist(), hits.tolist())})

    amplifiers, _ = spread("src_ip")
    handovers, handover = spread("ingress_asn")
    origins, origin = spread("origin_asn")
    return ASParticipation(
        total_events=n_events,
        handover=handover,
        origin=origin,
        mean_amplifiers_per_event=float(np.mean(amplifiers)),
        mean_handover_asns_per_event=float(np.mean(handovers)),
        mean_origin_asns_per_event=float(np.mean(origins)),
    )
