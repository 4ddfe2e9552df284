"""Atomic obs snapshots: ``<corpus>/.obs/snapshot.json``.

Every watch tick flushes one versioned JSON document — the operational
sample, the evaluated health verdict, the SLO rules it was judged
against, and the full metrics snapshot — through the crash-safe
atomic-write primitives, so a SIGKILLed session always leaves its *last
complete* state on disk.  ``repro status`` (and any offline tooling)
reads that file instead of needing the process alive, so the verdict
it reports is the one the session itself computed.

The directory is dot-prefixed, like ``.taps/`` and the checkpoints, so
corpus manifests and digests never include operational state.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional

from repro.errors import ObsError, ObsSnapshotError
from repro.runtime.atomic import atomic_write_text, remove_stale_tmp

#: operational-state directory inside a watched corpus
OBS_DIR = ".obs"
#: the snapshot document inside :data:`OBS_DIR`
SNAPSHOT_FILE = "snapshot.json"
#: the event log inside :data:`OBS_DIR` (see :mod:`repro.obs.events`)
EVENTS_FILE = "events.jsonl"

SNAPSHOT_VERSION = 1


def obs_dir(corpus_dir: str | Path) -> Path:
    return Path(corpus_dir) / OBS_DIR


def snapshot_path(corpus_dir: str | Path) -> Path:
    return obs_dir(corpus_dir) / SNAPSHOT_FILE


def events_path(corpus_dir: str | Path) -> Path:
    return obs_dir(corpus_dir) / EVENTS_FILE


def ensure_obs_dir(corpus_dir: str | Path) -> Path:
    directory = obs_dir(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    remove_stale_tmp(directory)
    return directory


def write_snapshot(corpus_dir: str | Path, payload: dict) -> Path:
    """Atomically persist one snapshot document, stamping version + time."""
    ensure_obs_dir(corpus_dir)
    document = {"version": SNAPSHOT_VERSION,
                "written_at": time.time(), **payload}
    path = snapshot_path(corpus_dir)
    atomic_write_text(path, json.dumps(document, sort_keys=True))
    return path


def load_snapshot(corpus_dir: str | Path) -> dict:
    """Read the snapshot back, with typed errors for every bad shape.

    * no ``.obs/snapshot.json`` at all → :class:`~repro.errors.ObsError`
      ("never ran a watch session") — the ``repro status`` guidance case;
    * unreadable / truncated / non-object / wrong version →
      :class:`~repro.errors.ObsSnapshotError` — the file exists but
      cannot be trusted.
    """
    path = snapshot_path(corpus_dir)
    if not path.exists():
        raise ObsError(
            f"{corpus_dir}: no obs snapshot ({path} missing); this corpus "
            "has never run a watch session with the operations plane — "
            "start one with `repro watch` first")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ObsSnapshotError(
            f"{path}: unreadable obs snapshot: {exc}") from exc
    if not isinstance(raw, dict):
        raise ObsSnapshotError(f"{path}: obs snapshot is not an object")
    if raw.get("version") != SNAPSHOT_VERSION:
        raise ObsSnapshotError(
            f"{path}: unsupported obs snapshot version "
            f"{raw.get('version')!r} (expected {SNAPSHOT_VERSION})")
    return raw


def snapshot_age_seconds(raw: dict,
                         now: Optional[float] = None) -> Optional[float]:
    """Seconds since the snapshot was written, or None if unstamped."""
    written = raw.get("written_at")
    if not isinstance(written, (int, float)):
        return None
    return max(0.0, (time.time() if now is None else now) - float(written))
