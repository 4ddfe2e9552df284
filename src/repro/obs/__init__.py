"""repro.obs — the operations plane for long-running sessions.

Everything a ``repro watch`` (or ``Study.watch``) session needs to be
*operated* rather than merely run, all of it on disk under
``<corpus>/.obs/`` so a SIGKILLed session still reports:

* :mod:`repro.obs.slo` — pure SLO evaluation of an operational sample
  (``repro status`` exit codes);
* :mod:`repro.obs.events` — the bounded, torn-tail-tolerant JSONL event
  log (``.obs/events.jsonl``);
* :mod:`repro.obs.snapshot` — atomic versioned state snapshots
  (``.obs/snapshot.json``);
* :mod:`repro.obs.plane` — the :class:`ObsPlane` orchestrator the
  streaming engine calls once per tick;
* :mod:`repro.obs.status` — the ``repro status`` view over the snapshot
  file.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.events": ("EventLogWriter", "iter_event_files", "read_events"),
    "repro.obs.plane": ("ObsPlane",),
    "repro.obs.slo": ("EXIT_CODES", "STATE_DEGRADED", "STATE_OK",
                      "STATE_UNHEALTHY", "Check", "Health", "SLORules",
                      "evaluate"),
    "repro.obs.snapshot": ("SNAPSHOT_VERSION", "events_path",
                           "load_snapshot", "obs_dir",
                           "snapshot_age_seconds", "snapshot_path",
                           "write_snapshot"),
    "repro.obs.status": ("render_status", "status_exit_code"),
})

__all__ = [
    "Check",
    "EXIT_CODES",
    "EventLogWriter",
    "Health",
    "ObsPlane",
    "SLORules",
    "SNAPSHOT_VERSION",
    "STATE_DEGRADED",
    "STATE_OK",
    "STATE_UNHEALTHY",
    "evaluate",
    "events_path",
    "iter_event_files",
    "load_snapshot",
    "obs_dir",
    "read_events",
    "render_status",
    "snapshot_age_seconds",
    "snapshot_path",
    "status_exit_code",
    "write_snapshot",
]
