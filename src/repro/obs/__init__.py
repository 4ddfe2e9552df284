"""repro.obs — the live operations plane for long-running sessions.

Everything a ``repro watch`` (or ``Study.watch``) session needs to be
*operated* rather than merely run:

* :mod:`repro.obs.expfmt` — Prometheus text exposition of the metrics
  registry (``/metrics``);
* :mod:`repro.obs.slo` — pure SLO evaluation of an operational sample
  (``/readyz``, ``repro status`` exit codes);
* :mod:`repro.obs.events` — the bounded, torn-tail-tolerant JSONL event
  log (``.obs/events.jsonl``);
* :mod:`repro.obs.snapshot` — atomic versioned state snapshots
  (``.obs/snapshot.json``);
* :mod:`repro.obs.server` — the stdlib threaded HTTP endpoint
  (``--obs-port``);
* :mod:`repro.obs.plane` — the :class:`ObsPlane` orchestrator the
  streaming engine calls once per tick;
* :mod:`repro.obs.status` — the ``repro status`` view over either the
  snapshot file or a live ``/status`` endpoint.

The server, snapshot schema, and SLO evaluator are shared components:
the future ``repro serve`` query API mounts the same machinery.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.events": ("EventLogWriter", "iter_event_files", "read_events"),
    "repro.obs.expfmt": ("render_prometheus",),
    "repro.obs.plane": ("ObsPlane",),
    "repro.obs.server": ("METRICS_CONTENT_TYPE", "ObsServer",
                         "StatePublisher"),
    "repro.obs.slo": ("EXIT_CODES", "STATE_DEGRADED", "STATE_OK",
                      "STATE_UNHEALTHY", "Check", "Health", "SLORules",
                      "evaluate"),
    "repro.obs.snapshot": ("SNAPSHOT_VERSION", "events_path",
                           "load_snapshot", "obs_dir",
                           "snapshot_age_seconds", "snapshot_path",
                           "write_snapshot"),
    "repro.obs.status": ("fetch_status", "render_status", "status_exit_code"),
})

__all__ = [
    "Check",
    "EXIT_CODES",
    "EventLogWriter",
    "Health",
    "METRICS_CONTENT_TYPE",
    "ObsPlane",
    "ObsServer",
    "SLORules",
    "SNAPSHOT_VERSION",
    "STATE_DEGRADED",
    "STATE_OK",
    "STATE_UNHEALTHY",
    "StatePublisher",
    "evaluate",
    "events_path",
    "fetch_status",
    "iter_event_files",
    "load_snapshot",
    "obs_dir",
    "read_events",
    "render_prometheus",
    "render_status",
    "snapshot_age_seconds",
    "snapshot_path",
    "status_exit_code",
    "write_snapshot",
]
