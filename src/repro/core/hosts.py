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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def classify_hosts(
    control: ControlPlaneCorpus,
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    min_days: int = 20,
    server_variation: float = 0.3,
    client_variation: float = 0.6,
) -> HostStudy:
    """Profile every blackholed host with enough activity (§6.1's
    conservative ≥ ``min_days``-day criterion) and classify it.

    All hosts are profiled at once (DESIGN §20): each direction's rows
    are one flat array of ``host · n + row`` keys (``n`` rows in the
    corpus), sorted, so grouped by host and in time order within a host;
    the exclusion windows, active days, daily top ports and port counts
    are reductions over runs of these keys.
    """
    packets = data.packets
    times = packets["time"]
    src = packets["src_ip"]
    n = len(packets)

    # candidate hosts: addresses covered by any RTBH prefix, as traffic
    # destinations or sources
    origins = _origins(control)
    out_rows = np.flatnonzero(_covered(src, origins))
    addresses = np.union1d(data.dst_sorted[_run_starts(data.dst_sorted)],
                           src[out_rows])
    origin = _origin_lookup(origins, addresses)
    covered = addresses[origin >= 0]
    origin = origin[origin >= 0]
    n_hosts = len(covered)

    # incoming rows: the covered ranges of the destination order, whose
    # rows are in time order within a host; outgoing rows: the covered
    # sources
    in_first = np.searchsorted(data.dst_sorted, covered, side="left")
    n_in = np.searchsorted(data.dst_sorted, covered, side="right") - in_first
    in_keys = np.repeat(np.arange(n_hosts, dtype=np.int64) * n, n_in)
    in_keys += data.dst_order[_in_ranges(n, in_first, in_first + n_in)]
    out_keys = np.sort(np.searchsorted(covered, src[out_rows]) * n + out_rows)

    # traffic inside an event covering the host (or its reaction margin
    # before it) is excluded; since rows are in time order, each (event,
    # covered host) pair excludes one key range
    first_host = np.searchsorted(
        covered, [e.prefix.network_int for e in events])
    per_event = np.searchsorted(covered, [
        e.prefix.network_int + e.prefix.num_addresses
        for e in events]) - first_host
    host_key = _ranges(first_host, per_event) * n
    lo = host_key + np.repeat(np.searchsorted(
        times, [e.start - REACTION_MARGIN for e in events]), per_event)
    hi = np.maximum(host_key + np.repeat(np.searchsorted(
        times, [e.end for e in events]), per_event), lo)
    in_keys, out_keys = _outside(in_keys, lo, hi), _outside(out_keys, lo, hi)
    in_host, in_rows = np.divmod(in_keys, n)
    out_host, out_rows = np.divmod(out_keys, n)

    # (host, day) runs
    in_day = (times[in_rows] // DAY).astype(np.int64)
    out_day = (times[out_rows] // DAY).astype(np.int64)
    in_new = _run_starts(in_host, in_day)
    out_new = _run_starts(out_host, out_day)
    stride = int(max(in_day.max(initial=0), out_day.max(initial=0))) + 1
    in_pairs = in_host[in_new] * stride + in_day[in_new]
    out_pairs = out_host[out_new] * stride + out_day[out_new]
    in_days = np.bincount(in_host[in_new], minlength=n_hosts)
    active_days = np.bincount(
        np.intersect1d(in_pairs, out_pairs, assume_unique=True) // stride,
        minlength=n_hosts)

    tops = _daily_top_ports(in_host, in_new, packets["protocol"][in_rows],
                            packets["dst_port"][in_rows])
    n_tops = np.bincount(tops >> 24, minlength=n_hosts)
    variation = np.where(in_days > 0, n_tops / np.maximum(in_days, 1), 1.0)
    # the port counts in FEATURES order
    features = np.column_stack([
        _distinct_per_host(host, packets[field][rows], n_hosts)
        for field in ("src_port", "dst_port")
        for host, rows in ((in_host, in_rows), (out_host, out_rows))])

    present = (np.bincount(in_host, minlength=n_hosts) > 0) | (
        np.bincount(out_host, minlength=n_hosts) > 0)
    top_lists = np.split(tops & 0xFFFFFF, np.cumsum(n_tops)[:-1]) \
        if n_hosts else []
    hosts: List[HostProfile] = []
    for h in np.flatnonzero(present).tolist():
        active, ratio = int(active_days[h]), float(variation[h])
        if active >= min_days and ratio <= server_variation:
            cls = HostClass.SERVER
        elif active >= min_days and ratio >= client_variation:
            cls = HostClass.CLIENT
        else:
            cls = HostClass.UNCLASSIFIED
        hosts.append(HostProfile(
            ip=int(covered[h]),
            active_days=active,
            port_features=tuple(features[h].tolist()),
            top_ports=tuple((top >> 16, top & 0xFFFF)
                            for top in top_lists[h].tolist()),
            port_variation=ratio,
            classification=cls,
            origin_asn=int(origin[h]),
        ))
    return HostStudy(hosts=hosts, min_days=min_days)


def _covered(addresses: np.ndarray,
             prefixes: Iterable[IPv4Prefix]) -> np.ndarray:
    """Which ``addresses`` lie in any of ``prefixes``: the last prefix
    starting at or below an address covers it iff the furthest end of
    the prefixes up to it lies above the address."""
    bounds = sorted((p.network_int, p.network_int + p.num_addresses)
                    for p in prefixes)
    firsts = np.array([first for first, _ in bounds], dtype=np.uint32)
    reach = np.maximum.accumulate(
        np.array([end for _, end in bounds], dtype=np.int64))
    at = np.searchsorted(firsts, addresses, side="right") - 1
    hit = at >= 0
    hit[hit] = reach[at[hit]] > addresses[hit]
    return hit


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(start, start + length)`` ranges."""
    return (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(lengths.sum()))


def _in_ranges(n: int, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """A mask of the ``n`` positions inside any ``[start, stop)`` range:
    a +1/−1 pair per range, whose running sum covers it."""
    edges = np.zeros(n + 1, dtype=np.int32)
    np.add.at(edges, starts, 1)
    np.add.at(edges, stops, -1)
    return np.cumsum(edges[:-1], dtype=np.int32) > 0


def _outside(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The sorted ``keys`` outside every ``[lo, hi)`` key range."""
    return keys[~_in_ranges(len(keys), np.searchsorted(keys, lo),
                            np.searchsorted(keys, hi))]


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where a new run of equal rows begins in columns sorted together."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def _daily_top_ports(host: np.ndarray, new_day: np.ndarray,
                     protocol: np.ndarray, port: np.ndarray) -> np.ndarray:
    """Every host's distinct daily top (protocol, destination port)
    pairs, as sorted ``host << 24 | protocol << 16 | port`` keys.

    A day's top pair is its most frequent one, the smallest on ties; one
    sort of (day run, pair) keys yields every day's run lengths at once.
    """
    day = np.cumsum(new_day) - 1
    keys = np.sort(day << 24
                   | protocol.astype(np.int64) << 16
                   | port.astype(np.int64))
    if len(keys) == 0:
        return keys
    starts = np.flatnonzero(_run_starts(keys))
    counts = np.diff(np.r_[starts, len(keys)])
    run_day, run_pair = keys[starts] >> 24, keys[starts] & 0xFFFFFF
    # runs are in pair order within a day: the first one at the day's
    # peak count is its top pair
    peak = np.maximum.reduceat(counts, np.flatnonzero(_run_starts(run_day)))
    best = np.flatnonzero(counts == peak[run_day])
    best = best[_run_starts(run_day[best])]
    return np.unique(host[new_day][run_day[best]] << 24 | run_pair[best])


def _distinct_per_host(host: np.ndarray, values: np.ndarray,
                       n_hosts: int) -> np.ndarray:
    """The number of distinct ``values`` (16-bit ports) per host."""
    keys = np.unique(host << 16 | values.astype(np.int64))
    return np.bincount(keys >> 16, minlength=n_hosts)
