"""RTBH event extraction (§5.1, Figs 9–10).

Operators announce and withdraw the same blackhole repeatedly to probe
whether an attack is still running. To reason about *attack episodes*
rather than BGP messages, consecutive windows of the same prefix whose gap
is at most the merge threshold Δ are grouped into one *RTBH event*:

    |bh_i[withdraw] − bh_{i+1}[announce]| ≤ Δ

The paper settles on Δ = 10 minutes (the knee of Fig. 10), which groups
its 400k announcements into 34k events (8.5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.corpus.control import (
    AnnotatedWindows,
    ControlPlaneCorpus,
    opens_blackhole,
)
from repro.corpus.data import DataPlaneCorpus, WindowRows
from repro.dataplane.timeline import IntervalSet
from repro.errors import AnalysisError
from repro.net.ip import IPv4Prefix

#: the paper's merge threshold: 10 minutes
DEFAULT_DELTA = 600.0


@dataclass(frozen=True)
class RTBHEvent:
    """One merged blackholing episode for a single prefix."""

    event_id: int
    prefix: IPv4Prefix
    #: (announce, withdraw) windows, sorted; already gap-merged at Δ
    windows: Tuple[Tuple[float, float], ...]
    announcer_asns: Tuple[int, ...]
    origin_asn: int

    @property
    def start(self) -> float:
        return self.windows[0][0]

    @property
    def end(self) -> float:
        return self.windows[-1][1]

    @property
    def duration(self) -> float:
        """Wall-clock span from first announce to last withdraw."""
        return self.end - self.start

    @property
    def active_time(self) -> float:
        """Seconds the blackhole was actually announced."""
        return sum(e - s for s, e in self.windows)

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    def active_interval_set(self) -> IntervalSet:
        """The announced intervals as a queryable :class:`IntervalSet`."""
        iset = IntervalSet()
        for s, e in self.windows:
            iset.open_at(s)
            iset.close_at(e)
        return iset.finalize(self.end)

    def covers_time(self, time: float) -> bool:
        return any(s <= time < e for s, e in self.windows)


def event_rows(data: DataPlaneCorpus,
               events: Sequence[RTBHEvent]) -> WindowRows:
    """Every event's announced-window packets, one gather per event:
    the shared input of Figs 5–8, §5.4, Figs 14–15 and Fig 18."""
    return data.window_rows([e.prefix for e in events],
                            [e.windows for e in events])


def extract_events(control: ControlPlaneCorpus,
                   delta: float = DEFAULT_DELTA) -> List[RTBHEvent]:
    """Group the corpus' blackhole windows into RTBH events at threshold Δ."""
    return events_from_merged_windows(control.rtbh_fold.merged_windows(),
                                      delta)


def events_from_merged_windows(
    merged: AnnotatedWindows,
    delta: float = DEFAULT_DELTA,
) -> List[RTBHEvent]:
    """Δ-group the any-announcer union of
    :meth:`~repro.corpus.control.ControlReducer.merged_windows` into
    numbered RTBH events.

    Event numbering is by global ``(start, prefix)`` order — stable
    under append-only corpus growth, which is what lets the streaming
    engine keep per-event accumulators across watermarks.
    """
    if delta < 0:
        raise AnalysisError(f"delta must be non-negative: {delta}")
    events: List[RTBHEvent] = []
    eid = 0
    for prefix, windows in sorted(merged.items()):
        group: List[Tuple[float, float]] = []
        announcers: set[int] = set()
        origin = windows[0][3]

        def flush() -> None:
            nonlocal eid, group, announcers, origin
            if group:
                events.append(RTBHEvent(
                    event_id=eid, prefix=prefix, windows=tuple(group),
                    announcer_asns=tuple(sorted(announcers)), origin_asn=origin,
                ))
                eid += 1
                group, announcers = [], set()

        for s, e, peers, org in windows:
            if group and s - group[-1][1] > delta:
                flush()
            if not group:
                origin = org
            group.append((s, e))
            announcers |= peers
        flush()
    events.sort(key=lambda ev: (ev.start, ev.prefix))
    return [RTBHEvent(event_id=i, prefix=ev.prefix, windows=ev.windows,
                      announcer_asns=ev.announcer_asns, origin_asn=ev.origin_asn)
            for i, ev in enumerate(events)]


def merge_threshold_sweep(
    control: ControlPlaneCorpus,
    deltas: Sequence[float] | np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 10: fraction of events per announcement as a function of Δ.

    Returns ``(deltas, fraction)`` where ``fraction[i]`` is
    ``#events(deltas[i]) / #rtbh_announcements``. The count is computed
    from the inter-window gap distribution, so the sweep costs one pass.
    """
    if deltas is None:
        deltas = np.r_[0.0, np.geomspace(1.0, 48 * 3600.0, 120)]
    deltas = np.asarray(deltas, dtype=np.float64)
    announcements = sum(1 for m in control.rtbh_updates()
                        if opens_blackhole(m))
    if announcements == 0:
        raise AnalysisError("corpus contains no RTBH announcements")
    gaps: List[float] = []
    total_windows = 0
    for windows in control.rtbh_fold.merged_windows().values():
        total_windows += len(windows)
        for (s0, e0, *_), (s1, *_rest) in zip(windows, windows[1:]):
            gaps.append(s1 - e0)
    gaps_arr = np.sort(np.asarray(gaps))
    merged_counts = np.searchsorted(gaps_arr, deltas, side="right")
    events = total_windows - merged_counts
    return deltas, events / announcements


def unique_prefix_count(control: ControlPlaneCorpus) -> int:
    """The Δ = ∞ lower bound of Fig. 10 (one event per prefix)."""
    return len(control.rtbh_prefixes())
