"""The on-disk structured event log: ``.obs/events.jsonl``.

:class:`EventLogWriter` is a :class:`~repro.telemetry.EventChannel` sink
that appends one JSON object per line and rotates when the active file
exceeds ``max_bytes`` — the active log is renamed to ``events.jsonl.1``
(… ``.N``), oldest dropped — so a weeks-long watch session occupies
bounded disk no matter how chatty its taps are.  Appends are plain
buffered writes flushed per record (events are operator forensics, not
the commit log; an fsync per breaker flap would be absurd), which means
a crash can tear the *tail* line of the active file.  :func:`read_events`
therefore tolerates exactly that: a torn or garbled line is skipped with
accounting instead of poisoning the whole read — the same stance the
checkpoint journal takes.

Severity filtering happens at the sink (``min_severity``), not at the
emitting call sites, so one session can keep debug-level checkpoint
events out of its bounded log while tests capture everything.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.telemetry import SEVERITIES

#: default rotation threshold for one event log file
DEFAULT_MAX_BYTES = 1 << 20
#: rotated generations kept alongside the active file
DEFAULT_BACKUPS = 2

_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


class RotatingLineWriter:
    """Append text lines with size-bounded generation rotation.

    The mechanism under :class:`EventLogWriter`, reusable for any
    append-only JSONL sidecar that must stay disk-bounded — the tap
    quarantine sidecars use it too.  Appends are buffered writes flushed
    per line, never fsynced: these files are forensics, not commit logs.
    """

    def __init__(self, path: str | Path, *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS):
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self.written = 0
        self.rotations = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, line: str) -> None:
        self._maybe_rotate(len(line) + 1)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.written += 1

    def _maybe_rotate(self, incoming: int) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        # shift the generation chain from the oldest end, then retire
        # the active file; each step is a single atomic rename
        oldest = self.rotated_path(self.backups)
        oldest.unlink(missing_ok=True)
        for generation in range(self.backups - 1, 0, -1):
            source = self.rotated_path(generation)
            if source.exists():
                os.replace(source, self.rotated_path(generation + 1))
        if self.backups >= 1:
            os.replace(self.path, self.rotated_path(1))
        else:
            self.path.unlink(missing_ok=True)
        self.rotations += 1

    def rotated_path(self, generation: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{generation}")


class EventLogWriter(RotatingLineWriter):
    """Append events as JSONL with size-bounded rotation; see module doc."""

    def __init__(self, path: str | Path, *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS,
                 min_severity: str = "info"):
        if min_severity not in _RANK:
            raise ValueError(f"unknown severity {min_severity!r}")
        super().__init__(path, max_bytes=max_bytes, backups=backups)
        self.min_severity = min_severity

    def __call__(self, record: dict) -> None:
        """The sink interface :meth:`EventChannel.subscribe` expects."""
        if _RANK.get(record.get("severity"), 1) < _RANK[self.min_severity]:
            return
        self.append(json.dumps(record, sort_keys=True))


def iter_event_files(path: str | Path,
                     backups: int = DEFAULT_BACKUPS) -> List[Path]:
    """Existing log files, oldest generation first, active file last."""
    path = Path(path)
    chain = [path.with_name(f"{path.name}.{generation}")
             for generation in range(backups, 0, -1)]
    chain.append(path)
    return [p for p in chain if p.exists()]


def read_events(path: str | Path, *,
                backups: int = DEFAULT_BACKUPS,
                min_severity: str = "debug",
                ) -> Tuple[List[dict], int]:
    """``(events, skipped_lines)`` across the rotation chain, in order.

    Unreadable lines — the torn tail a crash mid-append leaves, or a
    rotated file whose tail was torn *by* the rotation racing a crash —
    are counted in ``skipped_lines`` and dropped; everything parseable
    is returned oldest-first.
    """
    if min_severity not in _RANK:
        raise ValueError(f"unknown severity {min_severity!r}")
    events: List[dict] = []
    skipped = 0
    floor = _RANK[min_severity]
    for file in iter_event_files(path, backups):
        for record in read_event_file(file):
            if record is None:
                skipped += 1
            elif _RANK.get(record.get("severity"), 1) >= floor:
                events.append(record)
    return events, skipped


def read_event_file(path: Path) -> Iterator[Optional[dict]]:
    """Each non-blank line of one log file as its event, or None when
    the line is torn (unparseable or not an object)."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            yield None
            continue
        yield record if isinstance(record, dict) else None
