"""Serializable data-plane reducers behind the watcher's intermediates.

The streaming engine injects their per-event traffic and pre-RTBH
classification into the batch pipeline's shared-intermediate slots, so
Figs 5–6, Table 2 and Fig 19 run their one batch implementation without
rescanning the accumulated data plane.

The control-plane reducer is not here: batch and streaming share one RTBH
automaton, :class:`~repro.corpus.control.ControlReducer` (exported as
``repro.streaming.ControlReducer``), whose fold *is* the batch
classification.  The data-plane reducers each mirror one batch
computation exactly:

* :class:`TrafficReducer` — the §4.2 per-event integer traffic totals
  (Figs 5–6), accumulated over half-open window *fragments* between
  control-plane frontiers, so each packet is counted exactly once.
* :class:`PreRTBHReducer` — the §5.2–5.3 EWMA classification.  An
  event's pre-window depends only on data before its start, so each
  event is classified once, at the watermark where it first appears.

Both data-plane reducers round-trip through plain-JSON state
(``to_state`` / ``from_state``) — the pieces the stream checkpoint
persists atomically so a SIGKILLed ``repro watch`` resumes without
rescanning the data plane.  Floats survive the round trip exactly
(shortest-repr JSON), which is what keeps resumed fingerprints
byte-identical.  The RTBH automaton has no persisted form: a resumed
watcher re-feeds the control messages it re-reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.droprate import EventTraffic, window_traffic_totals
from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import (
    PreRTBHClass,
    PreRTBHClassification,
    PreRTBHEvent,
    classify_pre_rtbh_events,
)
from repro.corpus.data import DataPlaneCorpus
from repro.errors import StreamError


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
