"""The operations plane of one watch session.

An :class:`ObsPlane` wires the shared components together around a
running :class:`~repro.streaming.engine.StreamEngine`:

* subscribes an :class:`~repro.obs.events.EventLogWriter` to the active
  telemetry event channel (``.obs/events.jsonl``, bounded rotation);
* on every :meth:`observe` — called by the engine at the end of each
  tick — evaluates the SLO rules over the engine's operational sample,
  emits an ``slo.state`` event on every verdict transition, and
  atomically flushes the versioned snapshot document to
  ``.obs/snapshot.json``.

The plane consumes a plain sample dict, so it never touches the engine.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from repro import telemetry
from repro.obs.events import EventLogWriter
from repro.obs.slo import Health, SLORules, evaluate
from repro.obs.snapshot import (
    SNAPSHOT_VERSION,
    ensure_obs_dir,
    events_path,
    write_snapshot,
)

_SEVERITY_BY_STATE = {"ok": "info", "degraded": "warning",
                      "unhealthy": "error"}


class ObsPlane:
    """Snapshot + event log + SLO for one corpus."""

    def __init__(self, corpus_dir: str | Path, *,
                 rules: SLORules = SLORules(),
                 command: str = "watch",
                 min_severity: str = "info"):
        self.corpus_dir = Path(corpus_dir)
        self.rules = rules
        self.command = command
        self.started_at = time.time()
        self.ticks_observed = 0
        self.last_health: Optional[Health] = None
        ensure_obs_dir(self.corpus_dir)
        self.event_log = EventLogWriter(events_path(self.corpus_dir),
                                        min_severity=min_severity)
        self._channel = telemetry.events()
        self._channel.subscribe(self.event_log)
        telemetry.current().event(
            "obs.session_started", command=command,
            corpus=str(self.corpus_dir))

    # -- the per-tick hook ---------------------------------------------------

    def observe(self, sample: dict) -> Health:
        """Evaluate and persist one operational sample."""
        telem = telemetry.current()
        health = evaluate(sample, self.rules)
        previous = self.last_health.state if self.last_health else None
        if health.state != previous:
            telem.event(
                "slo.state",
                severity=_SEVERITY_BY_STATE[health.state],
                from_state=previous, to_state=health.state,
                reasons=health.reasons)
        self.last_health = health
        self.ticks_observed += 1
        document = {
            **sample,
            "command": self.command,
            "version": SNAPSHOT_VERSION,
            "started_at": self.started_at,
            "ticks_observed": self.ticks_observed,
            "slo": self.rules.to_json(),
            "health": health.to_json(),
            "events_logged": self.event_log.written,
        }
        write_snapshot(self.corpus_dir, document)
        telem.counter("obs.snapshots_written").inc()
        return health

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the event channel."""
        telemetry.current().event(
            "obs.session_closed", command=self.command,
            ticks_observed=self.ticks_observed,
            state=None if self.last_health is None
            else self.last_health.state)
        self._channel.unsubscribe(self.event_log)

    def __enter__(self) -> "ObsPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
