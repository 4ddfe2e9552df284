"""The per-host and per-snapshot loops that the whole-array kernels of
the host study (§6.1) and Fig. 4 replaced, kept as oracles.

:func:`oracle_classify_hosts` profiles one host at a time: it slices the
host's incoming and outgoing rows, drops those inside the host's
exclusion windows, and counts days, daily top ports and port diversity
with per-host ``set``/``np.unique`` calls.  :func:`oracle_targeted_visibility`
replays the RTBH messages and reduces each sample instant's per-peer
filtered shares on its own.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bgp.community import redistribution_targets
from repro.core.events import RTBHEvent
from repro.core.hosts import (
    DAY,
    REACTION_MARGIN,
    HostClass,
    HostProfile,
    HostStudy,
    _origin_lookup,
    _origins,
)
from repro.core.visibility import TargetedVisibilitySeries
from repro.corpus.control import ControlPlaneCorpus, opens_blackhole
from repro.corpus.data import DataPlaneCorpus
from repro.net.ip import PREFIX_MASKS, IPv4Prefix


def oracle_classify_hosts(control: ControlPlaneCorpus, data: DataPlaneCorpus,
                          events: Sequence[RTBHEvent], min_days: int = 20,
                          server_variation: float = 0.3,
                          client_variation: float = 0.6) -> HostStudy:
    """The §6.1 host study, one host at a time."""
    exclusions: Dict[IPv4Prefix, List[Tuple[float, float]]] = {}
    for event in events:
        exclusions.setdefault(event.prefix, []).append(
            (event.start - REACTION_MARGIN, event.end))
    packets = data.packets
    by_dst = np.argsort(packets["dst_ip"], kind="stable")
    sorted_dst = packets["dst_ip"][by_dst]
    by_src = np.argsort(packets["src_ip"], kind="stable")
    sorted_src = packets["src_ip"][by_src]
    addresses = np.union1d(sorted_dst, sorted_src)
    origin = _origin_lookup(_origins(control), addresses)
    covered = addresses[origin >= 0]
    origin = origin[origin >= 0].tolist()
    networks = np.array([p.network_int for p in exclusions], dtype=np.uint32)
    masks = np.array([PREFIX_MASKS[p.length] for p in exclusions],
                     dtype=np.uint32)
    applies = (covered[:, None] & masks) == networks
    windows = list(exclusions.values())

    hosts: List[HostProfile] = []
    for h, ip in enumerate(covered.tolist()):
        host_windows = [w for j in np.flatnonzero(applies[h]).tolist()
                        for w in windows[j]]
        lo, hi = np.searchsorted(sorted_dst, ip, "left"), np.searchsorted(
            sorted_dst, ip, "right")
        incoming = _outside(packets[by_dst[lo:hi]], host_windows)
        lo, hi = np.searchsorted(sorted_src, ip, "left"), np.searchsorted(
            sorted_src, ip, "right")
        outgoing = _outside(packets[by_src[lo:hi]], host_windows)
        if len(incoming) == 0 and len(outgoing) == 0:
            continue
        in_days = set((incoming["time"] // DAY).astype(int).tolist())
        out_days = set((outgoing["time"] // DAY).astype(int).tolist())
        active_days = len(in_days & out_days)
        top_ports = oracle_daily_top_ports(incoming)
        variation = len(top_ports) / len(in_days) if in_days else 1.0
        if active_days >= min_days and variation <= server_variation:
            cls = HostClass.SERVER
        elif active_days >= min_days and variation >= client_variation:
            cls = HostClass.CLIENT
        else:
            cls = HostClass.UNCLASSIFIED
        hosts.append(HostProfile(
            ip=ip,
            active_days=active_days,
            port_features=tuple(
                len(np.unique(rows[field])) if len(rows) else 0
                for field in ("src_port", "dst_port")
                for rows in (incoming, outgoing)),
            top_ports=tuple(sorted(top_ports)),
            port_variation=variation,
            classification=cls,
            origin_asn=origin[h],
        ))
    return HostStudy(hosts=hosts, min_days=min_days)


def _outside(packets: np.ndarray,
             windows: Sequence[Tuple[float, float]]) -> np.ndarray:
    """The ``packets`` outside every ``[start, end)`` window."""
    keep = np.ones(len(packets), dtype=bool)
    for start, end in windows:
        keep &= ~((packets["time"] >= start) & (packets["time"] < end))
    return packets[keep]


def oracle_daily_top_ports(incoming: np.ndarray) -> set:
    """Per-day ``np.unique`` loop: each day's most frequent (protocol,
    destination port) pair, the smallest on ties."""
    tops = set()
    days = (incoming["time"] // DAY).astype(np.int64)
    for day in np.unique(days):
        chunk = incoming[days == day]
        key = chunk["protocol"].astype(np.int64) << 16
        key |= chunk["dst_port"].astype(np.int64)
        values, counts = np.unique(key, return_counts=True)
        top = int(values[np.argmax(counts)])
        tops.add((top >> 16, top & 0xFFFF))
    return tops


def oracle_targeted_visibility(control: ControlPlaneCorpus,
                               peer_asns: Sequence[int],
                               route_server_asn: int = 64_500,
                               sample_interval: float = 3_600.0,
                               ) -> TargetedVisibilitySeries:
    """Fig. 4 with one quantile call per sample instant."""
    peers = sorted(peer_asns)
    peer_index = {asn: i for i, asn in enumerate(peers)}
    visible = np.zeros(len(peers), dtype=np.int64)
    active = 0
    standing: Dict[tuple, np.ndarray] = {}
    announcers_of: Dict[IPv4Prefix, set] = {}
    prefix_visibility: Dict[IPv4Prefix, np.ndarray] = {}
    sample_times = np.arange(control.start_time,
                             control.end_time + sample_interval,
                             sample_interval)
    out = {name: np.zeros(len(sample_times))
           for name in ("max", "p99", "median")}
    announced = np.zeros(len(sample_times), dtype=np.int64)

    def snapshot(k: int) -> None:
        announced[k] = active
        if active:
            filtered = 1.0 - visible / active
            out["max"][k] = filtered.max()
            out["p99"][k] = float(np.quantile(filtered, 0.99))
            out["median"][k] = float(np.quantile(filtered, 0.5))

    k = 0
    for msg in control.rtbh_updates():
        while k < len(sample_times) and sample_times[k] < msg.time:
            snapshot(k)
            k += 1
        key = (msg.peer_asn, msg.prefix)
        if opens_blackhole(msg):
            vec = np.zeros(len(peers), dtype=bool)
            for asn in redistribution_targets(msg.communities,
                                              route_server_asn, peers):
                vec[peer_index[asn]] = True
            if msg.peer_asn in peer_index:
                vec[peer_index[msg.peer_asn]] = True
            standing[key] = vec
            announcers_of.setdefault(msg.prefix, set()).add(msg.peer_asn)
        else:
            standing.pop(key, None)
            announcers_of.get(msg.prefix, set()).discard(msg.peer_asn)
        old = prefix_visibility.pop(msg.prefix, None)
        if old is not None:
            visible -= old
            active -= 1
        vectors = [standing[(a, msg.prefix)]
                   for a in announcers_of.get(msg.prefix, ())]
        if vectors:
            new = np.logical_or.reduce(vectors).astype(np.int64)
            prefix_visibility[msg.prefix] = new
            visible += new
            active += 1
    while k < len(sample_times):
        snapshot(k)
        k += 1
    return TargetedVisibilitySeries(
        times=sample_times, announced=announced, filtered_max=out["max"],
        filtered_p99=out["p99"], filtered_median=out["median"])
