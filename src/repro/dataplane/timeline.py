"""Blackhole acceptance timelines.

The scenario runner replays BGP updates through the route server and, via a
listener, records for every (member, prefix) the time intervals during
which the member had an *accepted* blackhole route installed — plus, per
prefix, the intervals during which *any* announcer kept the blackhole
active at the route server. Sampled packets are then marked dropped by an
exact per-packet interval test, which gives the corpus the sharp
announce/withdraw edges the paper's time-offset estimator (Fig. 2) and
drop-rate analyses (Figs 5–7) rely on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import FabricError
from repro.net.ip import IPv4Prefix
from repro.net.radix import RadixTree


class IntervalSet:
    """A set of disjoint, sorted half-open time intervals.

    Built incrementally with :meth:`open_at` / :meth:`close_at` (one level,
    no nesting) and then :meth:`finalize`-d, after which vectorized
    membership queries are available.
    """

    def __init__(self) -> None:
        self._intervals: List[Tuple[float, float]] = []
        self._open_since: float | None = None
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None

    def open_at(self, time: float) -> None:
        if self._starts is not None:
            raise FabricError("IntervalSet already finalized")
        if self._open_since is not None:
            raise FabricError(f"interval already open since {self._open_since}")
        if self._intervals and time < self._intervals[-1][1]:
            raise FabricError("intervals must be opened in time order")
        self._open_since = time

    def close_at(self, time: float) -> None:
        if self._starts is not None:
            raise FabricError("IntervalSet already finalized")
        if self._open_since is None:
            raise FabricError("no open interval to close")
        if time < self._open_since:
            raise FabricError("interval closed before it opened")
        if time > self._open_since:  # zero-length intervals are dropped
            self._intervals.append((self._open_since, time))
        self._open_since = None

    @property
    def is_open(self) -> bool:
        return self._open_since is not None

    def finalize(self, end_time: float) -> "IntervalSet":
        """Close any dangling interval at ``end_time`` and freeze."""
        if self._open_since is not None:
            self.close_at(max(end_time, self._open_since))
        if self._starts is None:
            self._starts = np.array([s for s, _ in self._intervals], dtype=np.float64)
            self._ends = np.array([e for _, e in self._intervals], dtype=np.float64)
        return self

    def contains(self, times: np.ndarray) -> np.ndarray:
        """Vectorized membership: a boolean per query time."""
        if self._starts is None:
            raise FabricError("IntervalSet not finalized")
        if len(self._starts) == 0:
            return np.zeros(len(times), dtype=bool)
        idx = np.searchsorted(self._starts, times, side="right") - 1
        valid = idx >= 0
        out = np.zeros(len(times), dtype=bool)
        out[valid] = times[valid] < self._ends[idx[valid]]
        return out

    @property
    def edges(self) -> np.ndarray:
        """Every interval boundary in time order: ``start_0, end_0,
        start_1, ...`` (finalized sets only)."""
        if self._starts is None:
            raise FabricError("IntervalSet not finalized")
        return np.column_stack((self._starts, self._ends)).reshape(-1)

    def contains_scalar(self, time: float) -> bool:
        return bool(self.contains(np.array([time]))[0])

    @classmethod
    def union(cls, sets: "Iterable[IntervalSet]") -> "IntervalSet":
        """The union of several (finalized or not) interval sets, finalized."""
        windows: List[Tuple[float, float]] = []
        for iset in sets:
            windows.extend(iset.intervals)
        windows.sort()
        merged = cls()
        end_time = 0.0
        current: Tuple[float, float] | None = None
        for start, end in windows:
            if current is None:
                current = (start, end)
            elif start <= current[1]:
                current = (current[0], max(current[1], end))
            else:
                merged.open_at(current[0])
                merged.close_at(current[1])
                current = (start, end)
            end_time = max(end_time, end)
        if current is not None:
            merged.open_at(current[0])
            merged.close_at(current[1])
        return merged.finalize(end_time)

    @property
    def intervals(self) -> List[Tuple[float, float]]:
        if self._starts is not None:
            return list(zip(self._starts.tolist(), self._ends.tolist()))
        return list(self._intervals)

    def total_duration(self) -> float:
        return float(sum(e - s for s, e in self.intervals))

    def __len__(self) -> int:
        return len(self.intervals)


class AcceptanceTimeline:
    """Per-(member, prefix) accepted-blackhole intervals plus the
    server-level announced intervals per prefix."""

    def __init__(self) -> None:
        self._accepted: Dict[Tuple[int, IPv4Prefix], IntervalSet] = defaultdict(IntervalSet)
        #: refcount of concurrent announcers per prefix at the server
        self._announce_count: Dict[IPv4Prefix, int] = defaultdict(int)
        self._announced: Dict[IPv4Prefix, IntervalSet] = defaultdict(IntervalSet)
        self._prefix_tree: RadixTree[bool] = RadixTree()
        self._finalized = False

    # -- recording ------------------------------------------------------------

    def record_acceptance(self, member_asn: int, prefix: IPv4Prefix,
                          accepted: bool, time: float) -> None:
        """Record a change of the member's accepted state for ``prefix``."""
        iset = self._accepted[(member_asn, prefix)]
        if accepted and not iset.is_open:
            iset.open_at(time)
        elif not accepted and iset.is_open:
            iset.close_at(time)

    def record_server_announce(self, prefix: IPv4Prefix, time: float) -> None:
        self._prefix_tree.insert(prefix, True)
        self._announce_count[prefix] += 1
        if self._announce_count[prefix] == 1:
            self._announced[prefix].open_at(time)

    def record_server_withdraw(self, prefix: IPv4Prefix, time: float) -> None:
        if self._announce_count[prefix] == 0:
            return  # withdraw without announce: tolerated, like the server
        self._announce_count[prefix] -= 1
        if self._announce_count[prefix] == 0:
            self._announced[prefix].close_at(time)

    def finalize(self, end_time: float) -> "AcceptanceTimeline":
        for iset in self._accepted.values():
            iset.finalize(end_time)
        for iset in self._announced.values():
            iset.finalize(end_time)
        self._finalized = True
        return self

    # -- queries ----------------------------------------------------------------

    def blackhole_prefixes(self) -> List[IPv4Prefix]:
        """Every prefix that was ever announced as a blackhole."""
        return [p for p, _ in self._prefix_tree.items()]

    def covering_prefixes(self, dst_ip: int) -> List[IPv4Prefix]:
        """Blackhole prefixes (ever announced) covering ``dst_ip``."""
        return [p for p, _ in self._prefix_tree.lookup_all(dst_ip)]

    def accepted_intervals(self, member_asn: int, prefix: IPv4Prefix) -> IntervalSet | None:
        return self._accepted.get((member_asn, prefix))

    def announced_intervals(self, prefix: IPv4Prefix) -> IntervalSet | None:
        return self._announced.get(prefix)

    def was_dropped(self, member_asn: int, dst_ip: int, time: float) -> bool:
        """Whether a packet from ``member_asn`` to ``dst_ip`` at ``time``
        would have hit an accepted blackhole route."""
        for prefix in self.covering_prefixes(dst_ip):
            iset = self._accepted.get((member_asn, prefix))
            if iset is not None and iset.contains_scalar(time):
                return True
        return False

    # -- bulk marking --------------------------------------------------------------

    def mark_dropped(self, packets: np.ndarray) -> np.ndarray:
        """Set the ``dropped`` column of a packet array in place.

        Packets are grouped by (ingress member, destination IP); each group
        shares its covering blackhole prefixes, so the per-interval test
        vectorizes over the group's timestamps.
        """
        if not self._finalized:
            raise FabricError("finalize() the timeline before marking packets")
        if len(packets) == 0:
            return packets
        key = packets["ingress_asn"].astype(np.uint64) << np.uint64(32)
        key |= packets["dst_ip"].astype(np.uint64)
        order = np.argsort(key)
        sorted_key = key[order]
        boundaries = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        boundaries = np.r_[boundaries, len(sorted_key)]
        dropped = packets["dropped"]
        times = packets["time"]
        for gi in range(len(boundaries) - 1):
            rows = order[boundaries[gi]:boundaries[gi + 1]]
            ingress = int(packets["ingress_asn"][rows[0]])
            dst_ip = int(packets["dst_ip"][rows[0]])
            hit = None
            for prefix in self.covering_prefixes(dst_ip):
                iset = self._accepted.get((ingress, prefix))
                if iset is None or len(iset) == 0:
                    continue
                inside = iset.contains(times[rows])
                hit = inside if hit is None else (hit | inside)
            if hit is not None:
                dropped[rows] |= hit
        return packets


def build_timeline(updates: Iterable, server) -> AcceptanceTimeline:
    """Replay ``updates`` through ``server`` while recording the timeline.

    Convenience wrapper for tests and small studies; the scenario runner
    wires the listener itself.
    """
    from repro.dataplane.listener import TimelineRecorder

    recorder = TimelineRecorder(server)
    last_time = 0.0
    for update in updates:
        server.process(update)
        last_time = max(last_time, update.time)
    return recorder.timeline.finalize(last_time)
