"""The batch RTBH passes the corpus fold replaced, kept as a loop oracle.

Each function is one of the separate walks the batch path used to make
over the time-ordered messages: the stateful classification, the window
pairing, the first-origin scan, and the per-prefix any-announcer union
that Fig. 2 and Fig. 3 each wrote out for themselves.  They carry the
downgrade fix: a plain announcement that replaces a standing blackhole
closes its window instead of leaving it open.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bgp.message import BGPUpdate, UpdateAction

MINUTE = 60.0


def oracle_flags(messages: Sequence[BGPUpdate]) -> List[bool]:
    """Per message: is it RTBH-related?"""
    flags: List[bool] = []
    active = set()
    for msg in messages:
        key = (msg.peer_asn, msg.prefix)
        if msg.action is UpdateAction.ANNOUNCE:
            if msg.is_blackhole:
                active.add(key)
                flags.append(True)
            else:
                # replaces any standing blackhole from this peer
                flags.append(key in active)
                active.discard(key)
        else:
            flags.append(key in active)
            active.discard(key)
    return flags


def oracle_windows(messages: Sequence[BGPUpdate]) -> Dict:
    """Per prefix: sorted (start, end, announcer) windows; windows still
    open at the end close at the last message's time."""
    open_at: Dict[Tuple[int, object], float] = {}
    out: Dict = {}
    for msg, flagged in zip(messages, oracle_flags(messages)):
        if not flagged:
            continue
        key = (msg.peer_asn, msg.prefix)
        if msg.action is UpdateAction.ANNOUNCE and msg.is_blackhole:
            open_at.setdefault(key, msg.time)
        else:
            start = open_at.pop(key, None)
            if start is not None:
                out.setdefault(msg.prefix, []).append(
                    (start, msg.time, msg.peer_asn))
    end = messages[-1].time if messages else 0.0
    for (peer, prefix), start in open_at.items():
        out.setdefault(prefix, []).append((start, end, peer))
    for windows in out.values():
        windows.sort()
    return out


def oracle_origin_of(messages: Sequence[BGPUpdate]) -> Dict:
    """(prefix, announcer) -> origin ASN of the first blackhole
    announcement."""
    origin_of: Dict = {}
    for msg, flagged in zip(messages, oracle_flags(messages)):
        if (flagged and msg.action is UpdateAction.ANNOUNCE
                and msg.is_blackhole):
            origin_of.setdefault((msg.prefix, msg.peer_asn), msg.origin_asn)
    return origin_of


def oracle_union(windows: Sequence[Tuple[float, float, int]],
                 ) -> List[Tuple[float, float]]:
    """One prefix's windows with overlaps across announcers coalesced."""
    merged: List[Tuple[float, float]] = []
    for start, end, _peer in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def oracle_load_series(messages: Sequence[BGPUpdate], t0: float,
                       t1: float) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 3 ``(active_prefixes, messages_per_minute)`` over ``[t0, t1)``."""
    edges = np.arange(t0, t1 + MINUTE, MINUTE)
    n_bins = len(edges) - 1
    deltas = np.zeros(n_bins + 1, dtype=np.int64)
    for windows in oracle_windows(messages).values():
        for start, end in oracle_union(windows):
            lo = int(np.clip((start - t0) // MINUTE, 0, n_bins))
            hi = int(np.clip((end - t0) // MINUTE, 0, n_bins))
            deltas[lo] += 1
            deltas[hi] -= 1
    times = [m.time for m, flagged in zip(messages, oracle_flags(messages))
             if flagged]
    counts, _ = np.histogram(np.asarray(times, dtype=np.float64), bins=edges)
    return np.cumsum(deltas[:-1]), counts
