"""Serializable reducer states behind the incremental analyses.

Each reducer mirrors one batch computation exactly:

* :class:`ControlReducer` — the stateful RTBH classification of
  :meth:`ControlPlaneCorpus._classify` plus the window automaton of
  :meth:`~repro.corpus.control.ControlPlaneCorpus.rtbh_windows_by_prefix`,
  fed one UPDATE at a time.  Its snapshot feeds the §5.1 Δ-merge
  (:func:`~repro.core.events.events_from_merged_windows`) and the Fig. 3
  load series (:func:`~repro.core.load.load_series_from_state`).
* :class:`TrafficReducer` — the §4.2 per-event integer traffic totals
  (Figs 5–6), accumulated over half-open window *fragments* between
  control-plane frontiers, so each packet is counted exactly once.
* :class:`PreRTBHReducer` — the §5.2–5.3 EWMA classification.  An
  event's pre-window depends only on data before its start, so each
  event is classified once, at the watermark where it first appears.

Every reducer round-trips through plain-JSON state (``to_state`` /
``from_state``) — the pieces the stream checkpoint persists atomically so
a SIGKILLed ``repro watch`` resumes without recomputation.  Floats
survive the round trip exactly (shortest-repr JSON), which is what keeps
resumed fingerprints byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.message import BGPUpdate
from repro.core.droprate import EventTraffic, window_traffic_totals
from repro.core.events import (
    DEFAULT_DELTA,
    RTBHEvent,
    events_from_merged_windows,
    merge_annotated_windows,
)
from repro.core.load import RTBHLoadSeries, load_series_from_state
from repro.core.pre_rtbh import (
    PreRTBHClass,
    PreRTBHClassification,
    PreRTBHEvent,
    classify_pre_rtbh_events,
)
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError, StreamError
from repro.net.ip import IPv4Prefix


class ControlReducer:
    """Incremental mirror of the corpus-level RTBH automata.

    Feeding every message of a corpus in time order leaves this reducer
    in a state whose :meth:`windows_snapshot` equals
    ``corpus.rtbh_windows_by_prefix()`` and whose :attr:`rtbh_times`
    equal the timestamps of ``corpus.rtbh_updates()`` — the invariants
    the golden-equivalence suite asserts per watermark.
    """

    def __init__(self) -> None:
        #: (peer, prefix) pairs with a standing blackhole announcement
        self.active: set = set()
        #: (peer, prefix) -> announce time of the currently-open window
        self.open_at: Dict[Tuple[int, IPv4Prefix], float] = {}
        #: prefix -> closed (start, end, announcer) windows
        self.windows: Dict[IPv4Prefix, List[Tuple[float, float, int]]] = {}
        #: (prefix, announcer) -> first origin ASN announced
        self.origin_of: Dict[Tuple[IPv4Prefix, int], int] = {}
        #: timestamps of every RTBH-related update (Fig. 3 message series)
        self.rtbh_times: List[float] = []
        self.message_count = 0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def feed(self, msg: BGPUpdate) -> None:
        """Apply one UPDATE (messages must arrive in time order)."""
        self.message_count += 1
        if self.start_time is None:
            self.start_time = msg.time
        self.end_time = msg.time
        key = (msg.peer_asn, msg.prefix)
        if msg.is_announce:
            if msg.is_blackhole:
                self.active.add(key)
                flagged = True
            else:
                # replaces any standing blackhole from this peer
                flagged = key in self.active
                self.active.discard(key)
        else:
            flagged = key in self.active
            self.active.discard(key)
        if not flagged:
            return
        self.rtbh_times.append(msg.time)
        if msg.is_announce:
            self.origin_of.setdefault((msg.prefix, msg.peer_asn),
                                      msg.origin_asn)
            self.open_at.setdefault(key, msg.time)
        else:
            start = self.open_at.pop(key, None)
            if start is not None:
                self.windows.setdefault(msg.prefix, []).append(
                    (start, msg.time, msg.peer_asn))

    # -- snapshots -----------------------------------------------------------

    def windows_snapshot(self) -> Dict[IPv4Prefix,
                                       List[Tuple[float, float, int]]]:
        """``rtbh_windows_by_prefix()`` of the messages fed so far.

        Still-open windows close artificially at the current end time —
        exactly the batch semantics, so the snapshot matches the batch
        map at every frontier.
        """
        out = {prefix: list(ws) for prefix, ws in self.windows.items()}
        end = self.end_time if self.message_count else 0.0
        for (peer, prefix), start in self.open_at.items():
            out.setdefault(prefix, []).append((start, end, peer))
        for ws in out.values():
            ws.sort()
        return out

    def events(self, delta: float = DEFAULT_DELTA) -> List[RTBHEvent]:
        """The Δ-merged events of the stream so far (§5.1)."""
        merged = merge_annotated_windows(self.windows_snapshot(),
                                         self.origin_of)
        return events_from_merged_windows(merged, delta)

    def load_series(self) -> RTBHLoadSeries:
        """The Fig. 3 series of the stream so far."""
        if self.message_count == 0:
            raise AnalysisError("empty control corpus")
        return load_series_from_state(
            self.windows_snapshot(),
            np.array(self.rtbh_times, dtype=np.float64),
            self.start_time, self.end_time)

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "active": [[peer, str(prefix)] for peer, prefix in self.active],
            "open_at": [[peer, str(prefix), start]
                        for (peer, prefix), start in self.open_at.items()],
            "windows": {str(prefix): [list(w) for w in ws]
                        for prefix, ws in self.windows.items()},
            "origin_of": [[str(prefix), peer, origin]
                          for (prefix, peer), origin
                          in self.origin_of.items()],
            "rtbh_times": self.rtbh_times,
            "message_count": self.message_count,
            "start_time": self.start_time,
            "end_time": self.end_time,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ControlReducer":
        reducer = cls()
        try:
            reducer.active = {(int(peer), IPv4Prefix(prefix))
                              for peer, prefix in state["active"]}
            reducer.open_at = {
                (int(peer), IPv4Prefix(prefix)): float(start)
                for peer, prefix, start in state["open_at"]}
            reducer.windows = {
                IPv4Prefix(prefix): [(float(s), float(e), int(peer))
                                     for s, e, peer in ws]
                for prefix, ws in state["windows"].items()}
            reducer.origin_of = {
                (IPv4Prefix(prefix), int(peer)): int(origin)
                for prefix, peer, origin in state["origin_of"]}
            reducer.rtbh_times = [float(t) for t in state["rtbh_times"]]
            reducer.message_count = int(state["message_count"])
            reducer.start_time = state["start_time"]
            reducer.end_time = state["end_time"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(f"corrupt control reducer state: {exc}") from exc
        return reducer


class TrafficReducer:
    """Per-event §4.2 traffic totals, accumulated between frontiers.

    At each advance the reducer adds, for every event window, the totals
    of the *fragment* ``[max(start, previous frontier), end)``.  Window
    ends never exceed the control frontier and fragments tile each
    window exactly, so after the final advance the integer totals equal
    the batch :func:`~repro.core.droprate.event_traffic` run.
    """

    def __init__(self) -> None:
        #: event_id -> [packets, dropped_packets, bytes, dropped_bytes]
        self.totals: Dict[int, List[int]] = {}
        #: control-time frontier the totals are accumulated up to
        self.frontier: Optional[float] = None

    def advance(self, data: DataPlaneCorpus, events: Sequence[RTBHEvent],
                new_frontier: float) -> None:
        """Accumulate window fragments in ``[frontier, new_frontier)``."""
        previous = self.frontier
        for event in events:
            acc = self.totals.setdefault(event.event_id, [0, 0, 0, 0])
            for start, end in event.windows:
                lo = start if previous is None else max(start, previous)
                hi = min(end, new_frontier)
                if hi <= lo:
                    continue
                packets, dropped, size, dropped_size = window_traffic_totals(
                    data, event.prefix, lo, hi)
                acc[0] += packets
                acc[1] += dropped
                acc[2] += size
                acc[3] += dropped_size
        self.frontier = new_frontier

    def traffic(self, events: Sequence[RTBHEvent]) -> List[EventTraffic]:
        """The accumulated totals in batch ``event_traffic`` shape."""
        out = []
        for event in events:
            acc = self.totals.get(event.event_id, (0, 0, 0, 0))
            out.append(EventTraffic(
                event_id=event.event_id,
                prefix_length=event.prefix.length,
                packets=acc[0], dropped_packets=acc[1],
                bytes=acc[2], dropped_bytes=acc[3],
            ))
        return out

    def to_state(self) -> dict:
        return {
            "totals": {str(eid): list(acc)
                       for eid, acc in self.totals.items()},
            "frontier": self.frontier,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrafficReducer":
        reducer = cls()
        try:
            reducer.totals = {int(eid): [int(v) for v in acc]
                              for eid, acc in state["totals"].items()}
            reducer.frontier = state["frontier"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(f"corrupt traffic reducer state: {exc}") from exc
        return reducer


class PreRTBHReducer:
    """§5.2–5.3 classification of each event, once.

    Classification of an event depends only on (a) data strictly before
    the event start and (b) the fixed corpus start time, both immutable
    under append-only growth — so a classified event never needs
    revisiting and the stored results equal the batch run's.
    """

    def __init__(self, anomaly_horizon_min: float = 10.0) -> None:
        self.anomaly_horizon_min = anomaly_horizon_min
        #: event_id -> classified PreRTBHEvent
        self.classified: Dict[int, PreRTBHEvent] = {}

    def advance(self, data: DataPlaneCorpus,
                events: Sequence[RTBHEvent]) -> int:
        """Classify events not seen before, in one batched call; returns
        how many were new."""
        pending = [ev for ev in events
                   if ev.event_id not in self.classified]
        if not pending:
            return 0
        classified = classify_pre_rtbh_events(
            data, pending, anomaly_horizon_min=self.anomaly_horizon_min)
        for event in classified.events:
            self.classified[event.event_id] = event
        return len(pending)

    def classification(self, events: Sequence[RTBHEvent],
                       ) -> PreRTBHClassification:
        result = PreRTBHClassification()
        result.events = [self.classified[ev.event_id] for ev in events]
        return result

    def to_state(self) -> dict:
        return {
            "anomaly_horizon_min": self.anomaly_horizon_min,
            "classified": [
                {
                    "event_id": ev.event_id,
                    "classification": ev.classification.value,
                    "slots_with_data": ev.slots_with_data,
                    "total_packets": ev.total_packets,
                    "anomalies": [list(a) for a in ev.anomalies],
                    "amplification_factors": list(ev.amplification_factors),
                    "last_slot_is_max": ev.last_slot_is_max,
                }
                for ev in self.classified.values()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "PreRTBHReducer":
        try:
            reducer = cls(float(state["anomaly_horizon_min"]))
            for raw in state["classified"]:
                event = PreRTBHEvent(
                    event_id=int(raw["event_id"]),
                    classification=PreRTBHClass(raw["classification"]),
                    slots_with_data=int(raw["slots_with_data"]),
                    total_packets=int(raw["total_packets"]),
                    anomalies=tuple((float(off), int(level))
                                    for off, level in raw["anomalies"]),
                    amplification_factors=tuple(
                        float(f) for f in raw["amplification_factors"]),
                    last_slot_is_max=bool(raw["last_slot_is_max"]),
                )
                reducer.classified[event.event_id] = event
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(
                f"corrupt pre-RTBH reducer state: {exc}") from exc
        return reducer
