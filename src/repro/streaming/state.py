"""The stream checkpoint: data-plane reducer states + consumed-segment
ledger.

``repro watch`` persists one JSON file, ``.stream.checkpoint.json``, in
the corpus directory it tails.  The file is written atomically after
every consumed day (temp + fsync + rename, like every other artifact of
the crash-safe layer), so a SIGKILLed watcher finds either the previous
complete checkpoint or the new one — never a hybrid.  The chaos hook
``stream:day:NNN`` fires right after the save, letting the chaos suite
kill the watcher at exactly that boundary.

The checkpoint holds only what a resumed watcher cannot re-derive from
the segments it re-reads: the RTBH automaton is rebuilt by re-feeding
the consumed control messages, so it is not stored.  Checkpoints of
older watchers also carry a ``control_state`` key; it is ignored.

Resume validation is deliberately strict: every consumed segment's
SHA-256 must still match the corpus checkpoint journal.  A corpus that
was regenerated underneath the watcher fails with
:class:`~repro.errors.StreamError` instead of silently splicing reducer
state from one corpus onto the segments of another.

:func:`stream_digest` is the watcher's result-cache key: one digest of
the consumed ledger per watermark.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro import telemetry
from repro.errors import StreamCheckpointError, StreamError
from repro.runtime import chaos
from repro.runtime.atomic import atomic_write_text
from repro.runtime.checkpoint import scan_journal_file
from repro.runtime.generate import JOURNAL_FILE, committed_days

#: checkpoint file name inside the watched corpus directory (dot-prefixed
#: so manifests and corpus digests never include it)
STREAM_CHECKPOINT_FILE = ".stream.checkpoint.json"

STATE_VERSION = 1


@dataclass
class ConsumedDay:
    """One fully-consumed day: both planes' committed segment checksums."""

    day: int
    control_sha256: str
    data_sha256: str


@dataclass
class StreamState:
    """Everything a resumed watcher needs besides the segment files."""

    policy: str
    delta: float
    host_min_days: int
    consumed: List[ConsumedDay] = field(default_factory=list)
    traffic_state: Optional[dict] = None
    pre_state: Optional[dict] = None

    @property
    def watermark_days(self) -> int:
        """Days fully consumed (both planes ingested and reduced)."""
        return len(self.consumed)

    def config(self) -> dict:
        """The knobs that change results; resume refuses on mismatch."""
        return {"policy": self.policy, "delta": self.delta,
                "host_min_days": self.host_min_days}

    def to_json(self) -> dict:
        return {
            "version": STATE_VERSION,
            "policy": self.policy,
            "delta": self.delta,
            "host_min_days": self.host_min_days,
            "consumed": [
                {"day": c.day, "control_sha256": c.control_sha256,
                 "data_sha256": c.data_sha256}
                for c in self.consumed
            ],
            "traffic_state": self.traffic_state,
            "pre_state": self.pre_state,
        }

    @classmethod
    def from_json(cls, raw: dict) -> "StreamState":
        if raw.get("version") != STATE_VERSION:
            raise StreamCheckpointError(
                f"unsupported stream checkpoint version {raw.get('version')!r}"
                f" (expected {STATE_VERSION})")
        try:
            state = cls(
                policy=str(raw["policy"]),
                delta=float(raw["delta"]),
                host_min_days=int(raw["host_min_days"]),
                traffic_state=raw.get("traffic_state"),
                pre_state=raw.get("pre_state"),
            )
            for entry in raw["consumed"]:
                state.consumed.append(ConsumedDay(
                    day=int(entry["day"]),
                    control_sha256=str(entry["control_sha256"]),
                    data_sha256=str(entry["data_sha256"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamCheckpointError(
                f"corrupt stream checkpoint: {exc}") from exc
        return state


def checkpoint_path(corpus_dir: str | Path) -> Path:
    return Path(corpus_dir) / STREAM_CHECKPOINT_FILE


def save_state(corpus_dir: str | Path, state: StreamState) -> Path:
    """Atomically persist the stream state, then fire the chaos hook.

    The hook announces the *last consumed* day — a configured
    ``REPRO_CHAOS_KILL_AT=stream:day:001`` SIGKILLs the watcher the
    instant day 1's checkpoint is durable, exactly like a power cut
    between ticks.
    """
    path = checkpoint_path(corpus_dir)
    atomic_write_text(path, json.dumps(state.to_json()))
    telemetry.current().event(
        "stream.checkpoint_saved", severity="debug",
        days=len(state.consumed))
    if state.consumed:
        chaos.maybe_kill(f"stream:day:{state.consumed[-1].day:03d}")
    return path


def load_state(corpus_dir: str | Path) -> Optional[StreamState]:
    """The persisted stream state, or None when none exists yet.

    An unreadable or truncated checkpoint raises
    :class:`~repro.errors.StreamCheckpointError`: unlike the
    torn-tail-tolerant journal, this file is replaced atomically, so
    corruption means something external happened to it and silently
    starting from scratch would hide that.  The checkpoint is *derived*
    state though, so recovery is always available:
    :func:`reset_stream` (``repro watch --reset-stream``) discards it
    and the watcher re-consumes the commit log from day 0.
    """
    path = checkpoint_path(corpus_dir)
    if not path.exists():
        return None
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise StreamCheckpointError(
            f"{path}: unreadable stream checkpoint: {exc}") from exc
    if not isinstance(raw, dict):
        raise StreamCheckpointError(
            f"{path}: stream checkpoint is not an object")
    return StreamState.from_json(raw)


def reset_stream(corpus_dir: str | Path) -> bool:
    """Discard the stream checkpoint (the ``--reset-stream`` recovery).

    Safe because the checkpoint only memoizes consumption of the
    corpus's own committed segments; the next watcher rebuilds it from
    day 0.  Returns whether a checkpoint existed.
    """
    path = checkpoint_path(corpus_dir)
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise StreamError(f"{path}: cannot remove stream checkpoint: {exc}"
                          ) from exc


def _ledger_line(plane: str, day: int, sha256) -> bytes:
    return f"{plane}:{day}:{sha256}\n".encode("utf-8")


def stream_digest(consumed: Sequence[ConsumedDay]) -> str:
    """The stream result cache's corpus key at one watermark.

    Hashes both planes' (day, SHA-256) pairs of the consumed ledger.
    Both planes commit every day and the checkpoint pins each consumed
    SHA, so one key per watermark is all a watcher can ever hit.  The
    ``stream:`` prefix keeps these entries disjoint from batch
    ``analyze`` entries in a shared cache dir.
    """
    h = hashlib.sha256()
    for entry in consumed:
        h.update(_ledger_line("control", entry.day, entry.control_sha256))
        h.update(_ledger_line("data", entry.day, entry.data_sha256))
    return "stream:" + h.hexdigest()


def stream_corpus_digests(corpus_dir: str | Path) -> set:
    """Every ``stream:`` cache corpus key a watcher of this corpus may
    have written: :func:`stream_digest` of each committed day prefix.

    The cache audit uses this to tell a legitimately prefix-keyed
    stream cache entry apart from one left behind by a different
    (e.g. since-regenerated) corpus.  Watchers before the one-key
    scheme keyed Figs 4 and 10 by the control plane alone; those
    prefixes are included too, so their entries audit as ``stream``
    rather than ``stale``.  A journal whose header is unreadable has no
    usable commit log, so it yields no digests.
    """
    scan = scan_journal_file(Path(corpus_dir) / JOURNAL_FILE)
    if not scan.exists or scan.header_bad:
        return set()
    joint, control_only = hashlib.sha256(), hashlib.sha256()
    digests = {"stream:" + joint.hexdigest()}
    for day, (control, data) in enumerate(committed_days(scan.steps)):
        control_line = _ledger_line("control", day, control.get("sha256"))
        joint.update(control_line)
        joint.update(_ledger_line("data", day, data.get("sha256")))
        control_only.update(control_line)
        digests.add("stream:" + joint.hexdigest())
        digests.add("stream:" + control_only.hexdigest())
    return digests
