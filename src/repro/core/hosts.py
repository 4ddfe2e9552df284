"""§6.1–6.2: which blackholed hosts are servers, which are clients?
(Figs 16–17, Table 4.)

Host behaviour is profiled on traffic *outside* RTBH events (each event,
plus a 10-minute reaction margin before it, is excluded). A host with
stable daily top ports in its incoming traffic behaves like a server; a
host whose incoming top port changes almost daily — because it talks from
fresh ephemeral ports — behaves like a client.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.corpus.control import ControlPlaneCorpus, opens_blackhole
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.ixp.peeringdb import OrgType, PeeringDB
from repro.net.ip import PREFIX_MASKS, IPv4Prefix

DAY = 86_400.0
REACTION_MARGIN = 600.0

#: normalisation for the RadViz features (the maximum port number)
PORT_NORMALIZER = 65_535.0

FEATURES = ("in_src_ports", "out_src_ports", "in_dst_ports", "out_dst_ports")


class HostClass(str, Enum):
    SERVER = "server"
    CLIENT = "client"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class HostProfile:
    """Per-host behaviour outside of RTBH activity."""

    ip: int
    active_days: int
    port_features: Tuple[int, int, int, int]   # unique-port counts, FEATURES order
    top_ports: Tuple[Tuple[int, int], ...]     # distinct daily top (proto, port)
    port_variation: float                      # unique top ports / active days
    classification: HostClass
    origin_asn: Optional[int] = None


@dataclass
class HostStudy:
    """All profiled hosts plus corpus-level accessors."""

    hosts: List[HostProfile]
    min_days: int

    def classified(self, cls: HostClass) -> List[HostProfile]:
        return [h for h in self.hosts if h.classification is cls]

    def counts(self) -> Dict[HostClass, int]:
        return {cls: len(self.classified(cls)) for cls in HostClass}

    def radviz_matrix(self) -> np.ndarray:
        """Fig. 16 input: (n_hosts, 4) normalised port-diversity features."""
        if not self.hosts:
            raise AnalysisError("no hosts profiled")
        return np.array([h.port_features for h in self.hosts],
                        dtype=np.float64) / PORT_NORMALIZER

    def org_type_table(self, peeringdb: PeeringDB) -> Dict[HostClass, Dict[OrgType, float]]:
        """Table 4: AS-type shares for detected clients and servers."""
        out: Dict[HostClass, Dict[OrgType, float]] = {}
        for cls in (HostClass.CLIENT, HostClass.SERVER):
            hosts = self.classified(cls)
            if not hosts:
                out[cls] = {}
                continue
            histogram: Dict[OrgType, int] = {}
            for host in hosts:
                org = (peeringdb.org_type(host.origin_asn)
                       if host.origin_asn is not None else OrgType.UNKNOWN)
                histogram[org] = histogram.get(org, 0) + 1
            out[cls] = {org: c / len(hosts) for org, c in histogram.items()}
        return out


def _origins(control: ControlPlaneCorpus) -> Dict[IPv4Prefix, int]:
    """Prefix → origin AS of the RTBH announcements (the last one wins)."""
    return {msg.prefix: msg.origin_asn for msg in control.rtbh_updates()
            if opens_blackhole(msg)}


def _origin_lookup(origins: Dict[IPv4Prefix, int],
                   addresses: np.ndarray) -> np.ndarray:
    """Longest-prefix match of every address against ``origins``: the
    origin AS, or -1 where no prefix covers it.  One sorted-network
    search per prefix length in use, most specific first."""
    out = np.full(len(addresses), -1, dtype=np.int64)
    for length in sorted({p.length for p in origins}, reverse=True):
        table = sorted((p.network_int, asn) for p, asn in origins.items()
                       if p.length == length)
        networks = np.array([n for n, _ in table], dtype=np.uint32)
        asns = np.array([a for _, a in table], dtype=np.int64)
        masked = addresses & np.uint32(PREFIX_MASKS[length])
        at = np.minimum(np.searchsorted(networks, masked), len(networks) - 1)
        hit = (out < 0) & (networks[at] == masked)
        out[hit] = asns[at[hit]]
    return out


def _exclusion_intervals(events: Sequence[RTBHEvent]) -> Dict[IPv4Prefix, List[Tuple[float, float]]]:
    out: Dict[IPv4Prefix, List[Tuple[float, float]]] = {}
    for event in events:
        out.setdefault(event.prefix, []).append(
            (event.start - REACTION_MARGIN, event.end)
        )
    return out


def host_port_features(incoming: np.ndarray, outgoing: np.ndarray) -> Tuple[int, int, int, int]:
    """The four port-diversity features of Fig. 16 for one host."""
    return (
        len(np.unique(incoming["src_port"])) if len(incoming) else 0,
        len(np.unique(outgoing["src_port"])) if len(outgoing) else 0,
        len(np.unique(incoming["dst_port"])) if len(incoming) else 0,
        len(np.unique(outgoing["dst_port"])) if len(outgoing) else 0,
    )


def classify_hosts(
    control: ControlPlaneCorpus,
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    min_days: int = 20,
    server_variation: float = 0.3,
    client_variation: float = 0.6,
) -> HostStudy:
    """Profile every blackholed host with enough activity (§6.1's
    conservative ≥ ``min_days``-day criterion) and classify it."""
    exclusions = _exclusion_intervals(events)
    packets = data.packets

    # one stable sort per direction: a host's rows are one slice of it,
    # in the corpus's time order (the destination one is the corpus's)
    by_dst, sorted_dst = data.dst_order, data.dst_sorted
    by_src = np.argsort(packets["src_ip"], kind="stable")
    sorted_src = packets["src_ip"][by_src]

    # candidate hosts: addresses covered by any RTBH prefix, as traffic
    # destinations or sources
    addresses = np.union1d(_runs(sorted_dst), _runs(sorted_src))
    origin = _origin_lookup(_origins(control), addresses)
    covered = addresses[origin >= 0]
    origin = origin[origin >= 0].tolist()
    in_lo = np.searchsorted(sorted_dst, covered, side="left").tolist()
    in_hi = np.searchsorted(sorted_dst, covered, side="right").tolist()
    out_lo = np.searchsorted(sorted_src, covered, side="left").tolist()
    out_hi = np.searchsorted(sorted_src, covered, side="right").tolist()
    # host x exclusion prefix: which exclusion windows apply to each host
    networks = np.array([p.network_int for p in exclusions], dtype=np.uint32)
    masks = np.array([PREFIX_MASKS[p.length] for p in exclusions],
                     dtype=np.uint32)
    applies = (covered[:, None] & masks) == networks
    windows = list(exclusions.values())

    hosts: List[HostProfile] = []
    for h, ip in enumerate(covered.tolist()):
        host_windows = [w for j in np.flatnonzero(applies[h]).tolist()
                        for w in windows[j]]
        incoming = _outside(packets[by_dst[in_lo[h]:in_hi[h]]], host_windows)
        outgoing = _outside(packets[by_src[out_lo[h]:out_hi[h]]], host_windows)
        if len(incoming) == 0 and len(outgoing) == 0:
            continue
        in_days = set((incoming["time"] // DAY).astype(int).tolist())
        out_days = set((outgoing["time"] // DAY).astype(int).tolist())
        active_days = len(in_days & out_days)
        top_ports = _daily_top_ports(incoming)
        variation = len(top_ports) / len(in_days) if in_days else 1.0
        if active_days >= min_days:
            if variation <= server_variation:
                cls = HostClass.SERVER
            elif variation >= client_variation:
                cls = HostClass.CLIENT
            else:
                cls = HostClass.UNCLASSIFIED
        else:
            cls = HostClass.UNCLASSIFIED
        hosts.append(HostProfile(
            ip=ip,
            active_days=active_days,
            port_features=host_port_features(incoming, outgoing),
            top_ports=tuple(sorted(top_ports)),
            port_variation=variation,
            classification=cls,
            origin_asn=origin[h],
        ))
    return HostStudy(hosts=hosts, min_days=min_days)


def _runs(sorted_values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    first = np.ones(len(sorted_values), dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return sorted_values[first]


def _outside(packets: np.ndarray,
             windows: Sequence[Tuple[float, float]]) -> np.ndarray:
    """The ``packets`` outside every ``[start, end)`` window."""
    if len(packets) == 0 or not windows:
        return packets
    keep = np.ones(len(packets), dtype=bool)
    times = packets["time"]
    for start, end in windows:
        keep &= ~((times >= start) & (times < end))
    return packets[keep]


def _daily_top_ports(incoming: np.ndarray) -> set[Tuple[int, int]]:
    """Distinct daily top (protocol, destination port) pairs.

    A day's top pair is its most frequent one, the smallest on ties; one
    sort over (day, pair) yields every day's run lengths at once.
    """
    if len(incoming) == 0:
        return set()
    days = (incoming["time"] // DAY).astype(np.int64)
    key = incoming["protocol"].astype(np.int64) << np.int64(16)
    key |= incoming["dst_port"].astype(np.int64)
    order = np.lexsort((key, days))
    days, key = days[order], key[order]
    starts = np.flatnonzero(
        np.r_[True, (days[1:] != days[:-1]) | (key[1:] != key[:-1])])
    counts = np.diff(np.r_[starts, len(days)])
    run_day, run_key = days[starts], key[starts]
    best = np.lexsort((run_key, -counts, run_day))
    first = np.r_[True, run_day[best][1:] != run_day[best][:-1]]
    return {(top >> 16, top & 0xFFFF) for top in run_key[best][first].tolist()}
