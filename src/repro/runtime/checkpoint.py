"""The checkpoint journal: an append-only, fsynced record of completed work.

One journal file accompanies each resumable run (``.checkpoint.jsonl`` in
the corpus directory for ``generate``, ``.analysis.checkpoint.jsonl`` for
``analyze``).  Line 1 is a *header* identifying the run — command, seed,
configuration hash — so ``--resume`` refuses to splice work from a
different run.  Every subsequent line is one committed *step*::

    {"type": "header", "command": "generate", "seed": 7, "config_hash": "…"}
    {"type": "step", "key": "segment:control:000", "sha256": "…", "bytes": 123}
    {"type": "step", "key": "segment:data:000", "sha256": "…", "bytes": 456}
    {"type": "step", "key": "finalize", …}

Commits are appended with ``flush`` + ``fsync`` before the method returns,
so a step is either durably journaled or (from the resumer's point of
view) never happened.  A crash mid-append can leave at most one torn
trailing line; :meth:`CheckpointJournal.load` tolerates exactly that —
the torn tail is dropped and the step it described is simply redone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro import telemetry
from repro.errors import CheckpointError
from repro.runtime import chaos


class CheckpointJournal:
    """Append-only journal of committed steps for one resumable run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header: Optional[dict] = None
        self._entries: Dict[str, dict] = {}

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "CheckpointJournal":
        """Read an existing journal, tolerating a torn trailing line.

        A journal whose *first* line is unreadable (bad JSON or bytes
        that are not UTF-8) is unusable and raises
        :class:`~repro.errors.CheckpointError`; a bad line later is
        treated as the torn tail of a crashed append — it and anything
        after it are ignored.
        """
        journal = cls(path)
        if not journal.path.exists():
            return journal
        with open(journal.path, "rb") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    # UnicodeDecodeError is a ValueError: a flipped byte
                    # is handled like any other unparseable line
                    record = json.loads(line.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("not an object")
                except ValueError as exc:
                    if line_no == 1:
                        raise CheckpointError(
                            f"{journal.path}: corrupt journal header: {exc}"
                        ) from exc
                    break  # torn tail of a crashed append: redo from here
                if record.get("type") == "header":
                    journal.header = record
                elif record.get("type") == "step" and "key" in record:
                    journal._entries[record["key"]] = record
        return journal

    def start(self, header: dict) -> None:
        """Begin a fresh journal: truncate the file and write the header."""
        self.header = {"type": "header", **header}
        self._entries.clear()
        self._append(self.header, truncate=True)

    def require_header(self, expected: dict) -> None:
        """Check a loaded journal belongs to the run described by
        ``expected`` (same command/seed/config hash); raise otherwise."""
        if self.header is None:
            raise CheckpointError(
                f"{self.path}: no journal header; nothing to resume")
        for key, value in expected.items():
            if self.header.get(key) != value:
                raise CheckpointError(
                    f"{self.path}: journal was written by a different run "
                    f"({key}={self.header.get(key)!r}, expected {value!r}); "
                    "refusing to resume")

    # -- committed work ------------------------------------------------------

    def committed(self, key: str) -> Optional[dict]:
        """The journal entry for ``key``, or None if not yet committed."""
        return self._entries.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def commit(self, key: str, **payload) -> dict:
        """Durably record that step ``key`` completed.

        The entry is flushed and fsynced before this returns; the chaos
        kill hook fires *after* the fsync, so an injected SIGKILL
        simulates dying immediately after the commit.
        """
        entry = {"type": "step", "key": key, **payload}
        telem = telemetry.current()
        with telem.span("checkpoint.commit", key=key):
            self._append(entry)
        telem.counter("checkpoint.commits").inc()
        telem.event("checkpoint.commit", severity="debug", key=key,
                    journal=self.path.name)
        self._entries[key] = entry
        chaos.maybe_kill(f"commit:{key}")
        return entry

    # -- internals -----------------------------------------------------------

    def _append(self, record: dict, truncate: bool = False) -> None:
        from repro.faults import io as iofaults  # lazy: avoids import cycle

        mode = "w" if truncate else "a"
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, mode, encoding="utf-8") as fh:
            fh.write(iofaults.filter_write(self.path, line))
            fh.flush()
            iofaults.check_fsync(self.path)
            os.fsync(fh.fileno())
