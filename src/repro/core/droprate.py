"""§4.2: acceptance of blackhole routes, measured on the data plane
(Figs 5–8).

For every RTBH event the analysis selects the packets destined into the
blackholed prefix *while the blackhole was announced* and splits them into
dropped (they resolved to the blackhole MAC) and forwarded. Aggregating by
prefix length gives Fig. 5; the per-event drop-share distributions give
Fig. 6; grouping the /32 traffic by the handover AS gives Fig. 7 and the
PeeringDB join Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.corpus.data import DataPlaneCorpus, WindowRows
from repro.errors import AnalysisError
from repro.ixp.peeringdb import OrgType, PeeringDB
from repro.net.ip import IPv4Prefix
from repro.stats.cdf import EmpiricalCDF

@dataclass(frozen=True)
class EventTraffic:
    """Per-event traffic totals during announced windows."""

    event_id: int
    prefix_length: int
    packets: int
    dropped_packets: int
    bytes: int
    dropped_bytes: int

    @property
    def drop_share_packets(self) -> float:
        return self.dropped_packets / self.packets if self.packets else 0.0

    @property
    def drop_share_bytes(self) -> float:
        return self.dropped_bytes / self.bytes if self.bytes else 0.0


def event_traffic(events: Sequence[RTBHEvent],
                  rows: WindowRows) -> List[EventTraffic]:
    """Each event's during-blackhole traffic totals, from its window
    rows (:func:`~repro.core.events.event_rows`) in one segmented sum."""
    sizes = rows.column("size")
    dropped = rows.column("dropped")
    columns = (rows.counts, rows.sums(dropped), rows.sums(sizes),
               rows.sums(np.where(dropped, sizes, 0)))
    return [EventTraffic(event.event_id, event.prefix.length, *totals)
            for event, *totals in zip(events,
                                      *(c.tolist() for c in columns))]


@dataclass(frozen=True)
class PrefixLengthDropRates:
    """Fig. 5: per-length aggregate drop rates and traffic shares."""

    lengths: np.ndarray
    drop_share_packets: np.ndarray
    drop_share_bytes: np.ndarray
    traffic_share: np.ndarray        # share of all blackhole traffic (packets)
    average_drop_packets: float      # dashed lines of Fig. 5
    average_drop_bytes: float

    def row(self, length: int) -> Tuple[float, float, float]:
        idx = int(np.flatnonzero(self.lengths == length)[0])
        return (float(self.drop_share_packets[idx]),
                float(self.drop_share_bytes[idx]),
                float(self.traffic_share[idx]))


def window_traffic_totals(data: DataPlaneCorpus, prefix: IPv4Prefix,
                          t0: float, t1: float) -> Tuple[int, int, int, int]:
    """``(packets, dropped, bytes, dropped_bytes)`` destined into
    ``prefix`` during ``[t0, t1)``.

    The streaming engine accumulates the same integer totals as
    :func:`event_traffic` window fragment by window fragment — sums of
    fragment totals equal the batch totals exactly.
    """
    packets = data.window_packets(prefix, [(t0, t1)])
    if len(packets) == 0:
        return 0, 0, 0, 0
    sizes = packets["size"].astype(np.int64)
    dropped = packets["dropped"]
    return (len(packets), int(dropped.sum()),
            int(sizes.sum()), int(sizes[dropped].sum()))


def drop_rate_by_prefix_length(events: Sequence[RTBHEvent],
                               rows: WindowRows) -> PrefixLengthDropRates:
    """Aggregate Fig. 5 from per-event traffic."""
    return aggregate_drop_rates(event_traffic(events, rows))


def aggregate_drop_rates(traffic: Sequence[EventTraffic],
                         ) -> PrefixLengthDropRates:
    """Fig. 5 from already-computed per-event totals (reducer state)."""
    by_len: Dict[int, List[EventTraffic]] = {}
    for t in traffic:
        by_len.setdefault(t.prefix_length, []).append(t)
    total_packets = sum(t.packets for t in traffic)
    if total_packets == 0:
        raise AnalysisError("no traffic to any blackholed prefix")
    lengths = np.array(sorted(by_len))
    drop_p, drop_b, share = [], [], []
    for length in lengths:
        group = by_len[length]
        pk = sum(t.packets for t in group)
        by = sum(t.bytes for t in group)
        drop_p.append(sum(t.dropped_packets for t in group) / pk if pk else 0.0)
        drop_b.append(sum(t.dropped_bytes for t in group) / by if by else 0.0)
        share.append(pk / total_packets)
    total_bytes = sum(t.bytes for t in traffic)
    return PrefixLengthDropRates(
        lengths=lengths,
        drop_share_packets=np.array(drop_p),
        drop_share_bytes=np.array(drop_b),
        traffic_share=np.array(share),
        average_drop_packets=sum(t.dropped_packets for t in traffic) / total_packets,
        average_drop_bytes=(sum(t.dropped_bytes for t in traffic) / total_bytes
                            if total_bytes else 0.0),
    )


def drop_rate_cdf_by_length(events: Sequence[RTBHEvent], rows: WindowRows,
                            lengths: Sequence[int] = (24, 32),
                            min_packets: int = 10) -> Dict[int, EmpiricalCDF]:
    """Fig. 6: per-event drop-share ECDFs for selected prefix lengths.

    Events with fewer than ``min_packets`` sampled packets are skipped —
    a drop share estimated from a couple of samples is noise.
    """
    return drop_cdfs_from_traffic(event_traffic(events, rows),
                                  lengths=lengths, min_packets=min_packets)


def drop_cdfs_from_traffic(traffic: Sequence[EventTraffic],
                           lengths: Sequence[int] = (24, 32),
                           min_packets: int = 10) -> Dict[int, EmpiricalCDF]:
    """Fig. 6 from already-computed per-event totals (reducer state)."""
    out: Dict[int, EmpiricalCDF] = {}
    for length in lengths:
        shares = [t.drop_share_packets for t in traffic
                  if t.prefix_length == length and t.packets >= min_packets]
        if shares:
            out[length] = EmpiricalCDF(shares)
    if not out:
        raise AnalysisError(f"no events with >= {min_packets} packets at {lengths}")
    return out


@dataclass(frozen=True)
class SourceReaction:
    """One handover AS's aggregate reaction to /32 blackholes (Fig. 7)."""

    asn: int
    packets: int
    dropped: int

    @property
    def drop_share(self) -> float:
        return self.dropped / self.packets if self.packets else 0.0


@dataclass(frozen=True)
class SourceTable:
    """Every handover AS's traffic towards one blackhole length, the
    Fig. 7 input: ``asns`` ascending, ``packets``/``dropped`` aligned."""

    asns: np.ndarray
    packets: np.ndarray
    dropped: np.ndarray


def source_table(events: Sequence[RTBHEvent], rows: WindowRows,
                 prefix_length: int = 32) -> SourceTable:
    """Per handover AS, the packets (and dropped packets) sent into
    ``/prefix_length`` blackholes while they stood."""
    sub = rows.select([event.prefix.length == prefix_length
                       for event in events])
    if len(sub.rows) == 0:
        raise AnalysisError("no traffic towards blackholes of that length")
    ingress = sub.column("ingress_asn")
    asns = np.unique(ingress)
    inverse = np.searchsorted(asns, ingress)
    totals = np.bincount(inverse, minlength=len(asns))
    dropped = np.bincount(inverse[sub.column("dropped")], minlength=len(asns))
    return SourceTable(asns, totals, dropped)


def top_source_reactions(table: SourceTable,
                         top_n: int = 100) -> List[SourceReaction]:
    """Fig. 7: the ``top_n`` handover ASes by traffic volume, with their
    drop shares, ordered by drop share."""
    order = np.argsort(table.packets)[::-1][:top_n]
    reactions = [SourceReaction(int(table.asns[i]), int(table.packets[i]),
                                int(table.dropped[i]))
                 for i in order]
    reactions.sort(key=lambda r: r.drop_share, reverse=True)
    return reactions


def reaction_buckets(reactions: Sequence[SourceReaction],
                     hi: float = 0.99, lo: float = 0.01) -> Dict[str, int]:
    """The Fig. 7 / §7.1 summary: how many of the top sources drop almost
    everything, forward almost everything, or are inconsistent."""
    return {
        "drop_ge_99": sum(r.drop_share >= hi for r in reactions),
        "forward_ge_99": sum(r.drop_share <= lo for r in reactions),
        "inconsistent": sum(lo < r.drop_share < hi for r in reactions),
    }


def top_source_org_types(reactions: Sequence[SourceReaction],
                         peeringdb: PeeringDB) -> Dict[OrgType, int]:
    """Fig. 8: PeeringDB organisation types of the top traffic sources."""
    return peeringdb.type_histogram(r.asn for r in reactions)
