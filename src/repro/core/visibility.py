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
from typing import Dict, FrozenSet, Sequence, Tuple

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
    0/1 per-peer visibility vector, and per prefix the OR over its
    announcers. Per-peer visible counts are updated incrementally, so cost
    is O(messages × peers) worst case but only for prefixes whose
    visibility actually changes.  Each sample instant copies the visible
    counts into one row of a ``(samples, peers)`` matrix; the filtered
    shares and their quantiles are then one ``axis=1`` reduction each
    (DESIGN §20).
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
    # the redistribution targets depend only on the communities and
    # the announcer; the vectors are shared, never written to
    target_vectors: Dict[Tuple[FrozenSet, int], np.ndarray] = {}

    sample_times = np.arange(control.start_time, control.end_time + sample_interval,
                             sample_interval)
    visible_at = np.zeros((len(sample_times), len(peers)), dtype=np.int64)
    announced = np.zeros(len(sample_times), dtype=np.int64)
    # the samples strictly before each message
    sampled_before = np.searchsorted(
        sample_times, [msg.time for msg in rtbh], side="left").tolist()

    def targets(msg) -> np.ndarray:
        key = (msg.communities, msg.peer_asn)
        vec = target_vectors.get(key)
        if vec is None:
            vec = np.zeros(len(peers), dtype=np.int64)
            vec[[peer_index[asn] for asn in redistribution_targets(
                msg.communities, route_server_asn, peers)]] = 1
            # the announcer trivially sees its own blackhole
            if msg.peer_asn in peer_index:
                vec[peer_index[msg.peer_asn]] = 1
            target_vectors[key] = vec
        return vec

    def recompute_prefix(prefix: IPv4Prefix) -> None:
        nonlocal active_prefixes
        old = prefix_visibility.pop(prefix, None)
        if old is not None:
            visible[:] -= old
            active_prefixes -= 1
        vectors = [standing[(a, prefix)] for a in announcers_of.get(prefix, ())]
        if vectors:
            new = (vectors[0] if len(vectors) == 1
                   else np.logical_or.reduce(vectors).astype(np.int64))
            prefix_visibility[prefix] = new
            visible[:] += new
            active_prefixes += 1

    k = 0
    for msg, until in zip(rtbh, sampled_before):
        if until > k:
            visible_at[k:until] = visible
            announced[k:until] = active_prefixes
            k = until
        key = (msg.peer_asn, msg.prefix)
        if opens_blackhole(msg):
            standing[key] = targets(msg)
            announcers_of.setdefault(msg.prefix, set()).add(msg.peer_asn)
        else:
            standing.pop(key, None)
            announcers_of.get(msg.prefix, set()).discard(msg.peer_asn)
        recompute_prefix(msg.prefix)
    visible_at[k:] = visible
    announced[k:] = active_prefixes

    # the filtered shares 1 − visible/announced; a sample without an
    # active prefix filters nothing, so its quantiles read zero
    filtered = np.ones(visible_at.shape)
    np.divide(visible_at, announced[:, None], out=filtered,
              where=announced[:, None] > 0)
    del visible_at
    np.subtract(1.0, filtered, out=filtered)
    return TargetedVisibilitySeries(
        times=sample_times,
        announced=announced,
        filtered_max=filtered.max(axis=1),
        filtered_p99=np.quantile(filtered, 0.99, axis=1),
        filtered_median=np.quantile(filtered, 0.5, axis=1),
    )
