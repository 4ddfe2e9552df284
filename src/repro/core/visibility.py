"""Fig. 4: do operators use targeted blackhole announcements?

For every sample instant the analysis reconstructs, per peer, which of the
currently announced blackhole prefixes the route server redistributes to
that peer (from the redistribution-control communities on the messages).
The per-peer *filtered share* is ``1 − visible/announced``; Fig. 4 plots
the maximum (the worst-served single peer), the 99th percentile and the
median over peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.bgp.community import redistribution_targets
from repro.corpus.control import ControlPlaneCorpus, opens_blackhole
from repro.errors import AnalysisError
from repro.net.ip import IPv4Prefix


@dataclass(frozen=True)
class TargetedVisibilitySeries:
    """Filtered-share quantiles over time."""

    times: np.ndarray
    announced: np.ndarray            # total active blackhole prefixes
    filtered_max: np.ndarray         # worst single peer (the "100%" line)
    filtered_p99: np.ndarray
    filtered_median: np.ndarray

    @property
    def peak_median_filtered(self) -> float:
        return float(self.filtered_median.max())

    @property
    def peak_max_filtered(self) -> float:
        return float(self.filtered_max.max())


def targeted_visibility(
    control: ControlPlaneCorpus,
    peer_asns: Sequence[int],
    route_server_asn: int = 64_500,
    sample_interval: float = 3_600.0,
) -> TargetedVisibilitySeries:
    """Replay the corpus, sampling per-peer blackhole visibility.

    ``peer_asns`` is the membership of the platform (the corpus itself does
    not know who is connected); ``route_server_asn`` anchors the
    redistribution-control community scheme.

    The replay keeps, per standing (announcer, prefix) announcement, the
    boolean per-peer visibility vector, and per prefix the OR over its
    announcers. Per-peer visible counts are updated incrementally, so cost
    is O(messages × peers) worst case but only for prefixes whose
    visibility actually changes.
    """
    if not peer_asns:
        raise AnalysisError("need the peer list")
    peers = sorted(peer_asns)
    peer_index = {asn: i for i, asn in enumerate(peers)}
    rtbh = control.rtbh_updates()
    if not rtbh:
        raise AnalysisError("corpus contains no RTBH messages")

    visible = np.zeros(len(peers), dtype=np.int64)
    active_prefixes = 0
    standing: Dict[Tuple[int, IPv4Prefix], np.ndarray] = {}
    announcers_of: Dict[IPv4Prefix, set] = {}
    prefix_visibility: Dict[IPv4Prefix, np.ndarray] = {}

    sample_times = np.arange(control.start_time, control.end_time + sample_interval,
                             sample_interval)
    out_announced = np.zeros(len(sample_times), dtype=np.int64)
    out_max = np.zeros(len(sample_times))
    out_p99 = np.zeros(len(sample_times))
    out_median = np.zeros(len(sample_times))

    def snapshot(k: int) -> None:
        out_announced[k] = active_prefixes
        if active_prefixes == 0:
            return
        filtered = 1.0 - visible / active_prefixes
        out_max[k] = filtered.max()
        out_p99[k] = float(np.quantile(filtered, 0.99))
        out_median[k] = float(np.quantile(filtered, 0.5))

    def recompute_prefix(prefix: IPv4Prefix) -> None:
        nonlocal active_prefixes
        old = prefix_visibility.pop(prefix, None)
        if old is not None:
            visible[:] -= old
            active_prefixes -= 1
        vectors = [standing[(a, prefix)] for a in announcers_of.get(prefix, ())]
        if vectors:
            new = np.logical_or.reduce(vectors).astype(np.int64)
            prefix_visibility[prefix] = new
            visible[:] += new
            active_prefixes += 1

    k = 0
    for msg in rtbh:
        while k < len(sample_times) and sample_times[k] < msg.time:
            snapshot(k)
            k += 1
        key = (msg.peer_asn, msg.prefix)
        if opens_blackhole(msg):
            targets = redistribution_targets(msg.communities, route_server_asn, peers)
            vec = np.zeros(len(peers), dtype=bool)
            for asn in targets:
                vec[peer_index[asn]] = True
            # the announcer trivially sees its own blackhole
            if msg.peer_asn in peer_index:
                vec[peer_index[msg.peer_asn]] = True
            standing[key] = vec
            announcers_of.setdefault(msg.prefix, set()).add(msg.peer_asn)
        else:
            standing.pop(key, None)
            announcers_of.get(msg.prefix, set()).discard(msg.peer_asn)
        recompute_prefix(msg.prefix)
    while k < len(sample_times):
        snapshot(k)
        k += 1

    return TargetedVisibilitySeries(
        times=sample_times,
        announced=out_announced,
        filtered_max=out_max,
        filtered_p99=out_p99,
        filtered_median=out_median,
    )
