"""§6.3: towards quantifying collateral damage (Fig. 18).

For every detected *server* (stable top ports), count the sampled packets
sent to its top ports while an RTBH event covering it was active — all of
them, and those that were actually dropped. Absolute counts, deliberately
not shares (§6.3 explains why), form the unnormalised CDF of Fig. 18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.events import RTBHEvent
from repro.core.hosts import HostClass, HostStudy
from repro.corpus.data import WindowRows
from repro.errors import AnalysisError
from repro.stats.cdf import EmpiricalCDF


@dataclass(frozen=True)
class CollateralRecord:
    """One (event, server) pair with collateral traffic."""

    event_id: int
    server_ip: int
    packets_to_top_ports: int
    dropped_to_top_ports: int


@dataclass
class CollateralDamage:
    """Fig. 18 results."""

    records: List[CollateralRecord]
    servers_considered: int

    @property
    def events_with_collateral(self) -> int:
        return len({r.event_id for r in self.records})

    def cdf(self, dropped_only: bool = False) -> EmpiricalCDF:
        values = [(r.dropped_to_top_ports if dropped_only else r.packets_to_top_ports)
                  for r in self.records]
        values = [v for v in values if v > 0]
        if not values:
            raise AnalysisError("no collateral traffic found")
        return EmpiricalCDF(values)

    def total_packets(self, dropped_only: bool = False) -> int:
        return sum(r.dropped_to_top_ports if dropped_only else r.packets_to_top_ports
                   for r in self.records)


def collateral_damage(
    events: Sequence[RTBHEvent],
    rows: WindowRows,
    hosts: HostStudy,
) -> CollateralDamage:
    """Count per-event traffic to detected servers' top ports during the
    event's announced windows, from the events' window rows
    (:func:`~repro.core.events.event_rows`).

    The count is an *upper bound*: application-layer attacks on the same
    ports are indistinguishable from legitimate clients (§6.3)."""
    servers = hosts.classified(HostClass.SERVER)
    by_ip: Dict[int, List[int]] = {
        s.ip: sorted({port for _proto, port in s.top_ports}) for s in servers
    }
    records: List[CollateralRecord] = []
    for i, event in enumerate(events):
        covered = [ip for ip in by_ip if ip in event.prefix]
        if not covered or rows.offsets[i + 1] == rows.offsets[i]:
            continue
        packets = rows.records(i)
        # the rows run window by window, in time order: a server's
        # record takes its place from the first window it has hits in
        bounds = np.searchsorted(packets["time"],
                                 [start for start, _ in event.windows],
                                 side="left")
        found = []
        for rank, ip in enumerate(covered):
            hit = ((packets["dst_ip"] == np.uint32(ip))
                   & np.isin(packets["dst_port"], by_ip[ip]))
            if not hit.any():
                continue
            first = int(np.searchsorted(bounds, np.argmax(hit),
                                        side="right"))
            found.append((first, rank, CollateralRecord(
                event_id=event.event_id,
                server_ip=ip,
                packets_to_top_ports=int(hit.sum()),
                dropped_to_top_ports=int((hit & packets["dropped"]).sum()),
            )))
        records.extend(record for *_, record in sorted(
            found, key=lambda f: f[:2]))
    return CollateralDamage(records=records,
                            servers_considered=len(servers))
