"""The checkpoint journal: an append-only, fsynced record of completed work.

A corpus directory holds two: its commit log ``.checkpoint.jsonl``
(written by ``generate``, ``advance`` and the taps, tailed by ``watch``)
and the doctor's repair journal ``.doctor.checkpoint.jsonl``.
``analyze`` keeps none: its finished analyses live in the result cache
(:mod:`repro.parallel.cache`).  Line 1 is a *header* identifying the run
— command, seed, configuration hash — so ``--resume`` refuses to splice
work from a different run.  Every subsequent line is one committed *step*::

    {"type": "header", "command": "generate", "seed": 7, "config_hash": "…"}
    {"type": "step", "key": "segment:control:000", "sha256": "…", "bytes": 123}
    {"type": "step", "key": "segment:data:000", "sha256": "…", "bytes": 456}
    {"type": "step", "key": "finalize", …}

Commits are appended with ``flush`` + ``fsync`` before the method returns,
so a step is either durably journaled or (from the resumer's point of
view) never happened.  A crash mid-append can leave at most one torn
trailing line.  :func:`scan_journal_file` is the one parser of the
format: it records the byte offset of the tear, and
:meth:`CheckpointJournal.load` drops the torn tail (the step it
described is simply redone) and truncates the file there before its
first append — otherwise the append would concatenate onto the tear and
be unreachable on the next load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro import telemetry
from repro.errors import CheckpointError
from repro.runtime import chaos


@dataclass
class JournalScan:
    """Byte-accurate structural scan of one checkpoint journal file."""

    path: Path
    header: Optional[dict] = None
    #: step entries in file order (later duplicates win)
    steps: Dict[str, dict] = field(default_factory=dict)
    #: byte offset the file must be truncated at, or None when intact
    torn_offset: Optional[int] = None
    #: no usable header: the first non-blank line is unparseable, or
    #: the file holds no complete, parseable line at all
    header_bad: bool = False
    #: why the first unparseable newline-terminated line did not parse
    #: (None when the only tear is an unterminated last line)
    error: Optional[str] = None
    exists: bool = True


def scan_journal_file(path: str | Path) -> JournalScan:
    """Parse a journal byte-exactly, recording where it is torn.

    Parsing stops at the first unparseable line (bad JSON, not an
    object, or bytes that are not UTF-8); ``torn_offset`` is where it
    starts.  An unterminated final line is torn even when it parses:
    the next append would concatenate onto it and produce an
    unparseable line, so the tail must be truncated away before the
    journal is appended to.
    """
    scan = JournalScan(path=Path(path))
    try:
        raw = scan.path.read_bytes()
    except FileNotFoundError:
        scan.exists = False
        return scan
    chunks = raw.split(b"\n")
    chunks.pop()  # the bytes after the last newline: an unterminated tail
    offset, saw_line = 0, False
    for chunk in chunks:
        if chunk.strip():
            try:
                # UnicodeDecodeError is a ValueError: a flipped byte is
                # handled like any other unparseable line
                record = json.loads(chunk.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except ValueError as exc:
                scan.error = str(exc)
                break
            if not saw_line and record.get("type") == "header":
                scan.header = record
            elif record.get("type") == "step" and "key" in record:
                scan.steps[record["key"]] = record
            saw_line = True
        offset += len(chunk) + 1
    if offset < len(raw) or not saw_line:
        # parsing stopped early, or there is no line to trust at all
        scan.torn_offset = offset
        scan.header_bad = not saw_line
    return scan


class CheckpointJournal:
    """Append-only journal of committed steps for one resumable run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header: Optional[dict] = None
        self._entries: Dict[str, dict] = {}
        #: where the loaded file was torn; truncated before the next append
        self._torn_offset: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "CheckpointJournal":
        """Read an existing journal, tolerating a torn trailing line.

        A journal whose first newline-terminated line is unreadable (bad
        JSON or bytes that are not UTF-8) is unusable and raises
        :class:`~repro.errors.CheckpointError`.  A later bad line, or an
        unterminated last line, is the torn tail of a crashed append: it
        and anything after it are ignored, and the file is truncated
        there before this journal's first append.  Loading alone never
        writes.
        """
        scan = scan_journal_file(path)
        if scan.header_bad and scan.error is not None:
            raise CheckpointError(
                f"{scan.path}: corrupt journal header: {scan.error}")
        journal = cls(path)
        journal.header = scan.header
        journal._entries = scan.steps
        journal._torn_offset = scan.torn_offset
        return journal

    def start(self, header: dict) -> None:
        """Begin a fresh journal: truncate the file and write the header."""
        self.header = {"type": "header", **header}
        self._entries.clear()
        self._torn_offset = None
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

        if self._torn_offset is not None:
            # make the tear permanent first: an append after it would
            # concatenate onto the torn line and be lost on reload
            os.truncate(self.path, self._torn_offset)
            self._torn_offset = None
        mode = "w" if truncate else "a"
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, mode, encoding="utf-8") as fh:
            fh.write(iofaults.filter_write(self.path, line))
            fh.flush()
            iofaults.check_fsync(self.path)
            os.fsync(fh.fileno())
