"""Supervised consumption of one file-backed feed: every failure mode of
a growing source file gets a deterministic, testable handling path.

A :class:`TapSupervisor` wraps one :class:`~repro.taps.adapters.TapSpec`
and is *pull-based*: the session calls :meth:`poll` on every pump, and
the supervisor reads whatever new bytes its source file holds.  Around
that read sit the robustness layers, in order:

progress clock
    A poll that consumes bytes is progress.  The clock is armed at the
    first poll, so a source that is missing or never gets a byte is
    judged like one that went quiet.  No progress (no new bytes, or an
    ``OSError``) for longer than ``stall_timeout`` on the injected clock
    marks the tap ``stalled``; new bytes make it ``live`` again.  No
    progress for :data:`DEAD_AFTER_STALLS` stall windows declares it
    ``dead`` — permanently for this session; the session degrades
    instead of failing.  The chaos kill points ``tap:stall:N`` and
    ``tap:<name>:stall:N`` fire as the tap enters its N-th stall.
source rewind
    A source that shrank or was replaced by another file (new
    ``(st_dev, st_ino)``, as logrotate's ``create`` mode leaves it) is
    re-read from offset 0 in the same poll, under a bumped
    ``generation`` the session uses to drop the tap's uncommitted
    records.  It is also the only way out of a garbled MRT stream.
bounded ingest queue
    Parsed updates land in a bounded queue; while it is full the
    supervisor defers reading its source (bounded memory, no loss).  A
    file-backed feed can always wait, so no record is ever dropped.
malformed-record quarantine
    Undecodable records go through the corpus ingest
    :class:`ErrorPolicy` / :class:`IngestReport` machinery: ``strict``
    raises, ``skip`` drops with accounting, ``collect`` additionally
    appends to a SHA-256 deduped quarantine sidecar — re-ingesting a
    feed never double-counts its quarantine.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro import telemetry
from repro.bgp.message import BGPUpdate
from repro.corpus.ingest import ErrorPolicy, IngestReport, check_policy
from repro.errors import TapError
from repro.runtime import chaos
from repro.taps.adapters import MRT_HEADER, MRT_MAX_FRAME, TapSpec

#: bytes consumed from a source per poll, the read side's memory bound
MAX_READ = 4 << 20

#: stall windows without progress after which a tap is declared dead
DEAD_AFTER_STALLS = 3


class TapState(str, Enum):
    """Lifecycle of one supervised tap."""

    CONNECTING = "connecting"   # never consumed a byte yet
    LIVE = "live"               # data flowed within the stall window
    STALLED = "stalled"         # no progress for a stall window
    DEAD = "dead"               # no progress for DEAD_AFTER_STALLS windows
    FINISHED = "finished"       # final pump drained it to EOF

    __str__ = str.__str__


@dataclass(frozen=True)
class TapConfig:
    """Supervision knobs shared by every tap of a session."""

    #: seconds of no progress before the watchdog declares a stall
    stall_timeout: float = 30.0
    #: parsed-update capacity of the bounded ingest queue
    queue_capacity: int = 100_000
    #: malformed-record policy (collect = quarantine sidecars)
    policy: ErrorPolicy = ErrorPolicy.COLLECT
    #: feed timestamps are shifted by -epoch into corpus time
    epoch: float = 0.0

    def __post_init__(self) -> None:
        check_policy(self.policy)
        if not self.stall_timeout > 0:
            raise TapError("stall_timeout must be > 0")
        if self.queue_capacity < 1:
            raise TapError("queue_capacity must be >= 1")


class BoundedQueue:
    """The bounded ingest queue between parse and the session merge."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def free(self) -> int:
        return max(0, self.capacity - len(self._items))

    def push(self, items: List) -> List:
        """Enqueue what fits; returns the items that did NOT fit, which
        the producer holds until the queue drains."""
        take = self.free
        self._items.extend(items[:take])
        return items[take:]

    def drain(self) -> List:
        items = list(self._items)
        self._items.clear()
        return items


class _SourceReader:
    """Incremental, offset-tracking reader over a (growing) source file.

    Raises ``OSError`` on a missing or unreadable source.  A source that
    shrank below the offset, or whose ``(st_dev, st_ino)`` changed since
    the last read (rotated away and recreated), is re-read from offset 0
    and ``generation`` is bumped, so the session can discard the tap's
    uncommitted buffer instead of double-counting re-read records.
    """

    def __init__(self, path: Path, framing: str):
        self.path = Path(path)
        self.framing = framing
        self.offset = 0
        self.generation = 0
        self._identity: Optional[Tuple[int, int]] = None
        self._line_buf = b""
        self._byte_buf = b""
        self._corrupt: Optional[str] = None

    def read(self) -> Tuple[List, int, List[Tuple[str, str]]]:
        """``(payloads, bytes_consumed, framing_errors)`` since last read."""
        with open(self.path, "rb") as fh:
            st = os.fstat(fh.fileno())
            identity = (st.st_dev, st.st_ino)
            if st.st_size < self.offset or (
                    self._identity is not None
                    and identity != self._identity):
                self._rewind()
            self._identity = identity
            if self._corrupt is not None or st.st_size == self.offset:
                return [], 0, []
            fh.seek(self.offset)
            data = fh.read(MAX_READ)
        self.offset += len(data)
        if self.framing == "mrt":
            return self._frames(data)
        return self._lines(data)

    def _rewind(self) -> None:
        self.offset = 0
        self._line_buf = b""
        self._byte_buf = b""
        self._corrupt = None
        self.generation += 1

    def _lines(self, data: bytes) -> Tuple[List, int, List]:
        buf = self._line_buf + data
        *lines, self._line_buf = buf.split(b"\n")
        payloads = [line.decode("utf-8", "replace").strip()
                    for line in lines]
        return [p for p in payloads if p], len(data), []

    def _frames(self, data: bytes) -> Tuple[List, int, List]:
        buf = self._byte_buf + data
        payloads: List[bytes] = []
        errors: List[Tuple[str, str]] = []
        while len(buf) >= MRT_HEADER.size:
            _, _, _, length = MRT_HEADER.unpack_from(buf)
            if length > MRT_MAX_FRAME:
                # a garbage header desynchronizes the whole remaining
                # stream: quarantine the evidence and freeze the tap
                # until the source is rewound, or the progress clock
                # walks it to dead
                self._corrupt = (f"unframeable MRT header "
                                 f"{buf[:MRT_HEADER.size].hex()} claims "
                                 f"{length} payload bytes")
                errors.append((self._corrupt, buf[:MRT_HEADER.size].hex()))
                buf = b""
                break
            if len(buf) < MRT_HEADER.size + length:
                break  # torn frame: wait for the rest
            payloads.append(buf[MRT_HEADER.size:MRT_HEADER.size + length])
            buf = buf[MRT_HEADER.size + length:]
        self._byte_buf = buf
        return payloads, len(data), errors

    def flush_tail(self) -> List[Tuple[str, str]]:
        """Torn trailing data at a final pump, as quarantine entries."""
        torn = []
        if self._line_buf.strip():
            torn.append(("torn trailing line at EOF",
                         self._line_buf.decode("utf-8", "replace")))
            self._line_buf = b""
        if self._byte_buf:
            torn.append(("torn trailing MRT frame at EOF",
                         self._byte_buf.hex()))
            self._byte_buf = b""
        return torn


class TapSupervisor:
    """Fault-tolerant pull loop around one tap; see the module docstring."""

    def __init__(self, spec: TapSpec, *, config: TapConfig = TapConfig(),
                 quarantine_dir: Optional[Path] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.spec = spec
        self.config = config
        self.clock = clock
        self.adapter = spec.adapter()
        self.state = TapState.CONNECTING
        self.queue = BoundedQueue(config.queue_capacity)
        self.last_error: Optional[str] = None
        self.frontier = float("-inf")
        self.records_ok = 0
        self.records_malformed = 0
        self.stalls = 0
        self.seq = 0
        self._reader = _SourceReader(spec.path, self.adapter.framing)
        self._last_progress: Optional[float] = None
        self._pending: List = []
        quarantine = None
        if quarantine_dir is not None \
                and config.policy is ErrorPolicy.COLLECT:
            quarantine = Path(quarantine_dir) / f"{spec.name}.quarantine.jsonl"
        self.report = IngestReport(
            source=str(spec.path), policy=config.policy.value,
            quarantine_path=None if quarantine is None else str(quarantine))
        self._quarantine_flushed = 0
        self._quarantine_writer = None
        if quarantine is not None:
            from repro.obs.events import RotatingLineWriter, iter_event_files

            # seed SHA-dedupe from *every* rotation generation, so a
            # payload rotated out of the active sidecar still counts as
            # already-quarantined on re-ingest
            existing = []
            for file in iter_event_files(quarantine):
                existing.extend(line for line in file.read_text(
                    encoding="utf-8", errors="replace").splitlines() if line)
            self.report.seed_quarantine_digests(existing)
            self._quarantine_writer = RotatingLineWriter(quarantine)
        self._offset_path = (
            None if quarantine_dir is None
            else Path(quarantine_dir) / f"{spec.name}.offset.json")
        self._offset_written: Optional[Tuple[int, int]] = None

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def alive(self) -> bool:
        """Whether this tap still gates the session's day-commit fence."""
        return self.state not in (TapState.DEAD, TapState.FINISHED)

    @property
    def generation(self) -> int:
        return self._reader.generation

    # -- the poll loop -------------------------------------------------------

    def poll(self, *, final: bool = False) -> None:
        """One supervised read of the source; drained via :meth:`drain`."""
        if self.state is TapState.DEAD:
            return
        if self.state is TapState.FINISHED and not final:
            return
        now = self.clock()
        if self._last_progress is None:
            self._last_progress = now  # arm the progress clock
        telem = telemetry.current()

        if self._pending and self.queue.free == 0:
            # backpressure: do not read while saturated
            telem.gauge("tap.queue_depth", tap=self.name).set(len(self.queue))
            return

        generation = self._reader.generation
        source_error = None
        try:
            payloads, consumed, framing_errors = self._reader.read()
        except OSError as exc:
            payloads, consumed, framing_errors = [], 0, []
            source_error = self.last_error = f"source error: {exc}"
        if self._reader.generation != generation:
            # rewound: records of the old generation not yet handed to
            # the session are superseded by the re-read
            self._pending = []
            self.queue.drain()
        if consumed > 0:
            self._last_progress = now
            self.state = TapState.LIVE
            self.last_error = None
        elif not final:
            self._no_progress(now, source_error)

        for reason, payload in framing_errors:
            self._malformed(reason, payload)
        parsed = self._decode(payloads)
        if final:
            for reason, payload in self._reader.flush_tail():
                self._malformed(reason, payload)

        self._enqueue(parsed)
        self._flush_quarantine()
        self._write_offset()
        if final and self.state is not TapState.DEAD:
            self.state = TapState.FINISHED
        telem.gauge("tap.queue_depth", tap=self.name).set(len(self.queue))

    def drain(self) -> List[Tuple[float, int, BGPUpdate]]:
        """Hand the session everything queued: ``(time, seq, update)``."""
        return self.queue.drain()

    # -- decode / quarantine -------------------------------------------------

    def _decode(self, payloads: List) -> List[Tuple[float, int, BGPUpdate]]:
        telem = telemetry.current()
        out: List[Tuple[float, int, BGPUpdate]] = []
        for payload in payloads:
            try:
                updates = self.adapter.decode(payload)
            except TapError as exc:
                if self.config.policy is ErrorPolicy.STRICT:
                    raise TapError(
                        f"tap {self.name} ({self.spec.path}): {exc}"
                        ) from None
                self._malformed(str(exc), payload if isinstance(payload, str)
                                else payload.hex())
                continue
            for msg in updates:
                shifted = msg.time - self.config.epoch
                if not math.isfinite(shifted) or shifted < 0:
                    self._malformed(
                        f"timestamp {msg.time!r} predates the tap epoch "
                        f"{self.config.epoch:g}", str(msg))
                    continue
                if shifted != msg.time:
                    msg = BGPUpdate(
                        time=shifted, peer_asn=msg.peer_asn,
                        action=msg.action, prefix=msg.prefix,
                        next_hop=msg.next_hop, as_path=msg.as_path,
                        communities=msg.communities)
                self.report.total += 1
                self.report.loaded += 1
                self.records_ok += 1
                self.frontier = max(self.frontier, shifted)
                out.append((shifted, self.seq, msg))
                self.seq += 1
        if out:
            telem.counter("tap.records", tap=self.name, outcome="ok"
                          ).inc(len(out))
        telem.gauge("tap.frontier_seconds", tap=self.name).set(
            self.frontier if math.isfinite(self.frontier) else 0.0)
        return out

    def _malformed(self, reason: str, payload: str) -> None:
        self.report.total += 1
        self.report.record_problem(f"{self.spec.path.name}:{self.seq}",
                                   reason, payload=payload)
        self.records_malformed += 1
        self.last_error = reason
        telem = telemetry.current()
        telem.counter("tap.records", tap=self.name,
                      outcome="malformed").inc()
        telem.event("tap.quarantined", severity="warning", tap=self.name,
                    reason=reason, payload=payload[:200])

    def _flush_quarantine(self) -> None:
        """Append newly quarantined payloads to the sidecar.

        The sidecar uses the same size-bounded generation rotation as
        ``.obs/events.jsonl`` (the old behaviour — an atomic rewrite of
        every payload ever seen — grew without bound and went quadratic
        on hostile feeds).  Dedupe keys on payload SHA-256 and was
        seeded from all generations, so rotation never re-admits an
        old payload.
        """
        if self._quarantine_writer is None \
                or len(self.report.quarantined) == self._quarantine_flushed:
            return
        for payload in self.report.quarantined[self._quarantine_flushed:]:
            self._quarantine_writer.append(payload)
        self._quarantine_flushed = len(self.report.quarantined)

    def _write_offset(self) -> None:
        """Persist the reader position as a forensic sidecar.

        ``.taps/NAME.offset.json`` records how far into the source this
        tap has read — the doctor's scrub cross-checks it against the
        source's current size (an offset beyond EOF means the source
        was truncated under a dead session).  It is deliberately *not*
        read back on resume: replay convergence comes from the commit
        log, not from trusting a sidecar.  Sidecar IO never fails a tap.
        """
        position = (self._reader.offset, self._reader.generation)
        if self._offset_path is None or position == self._offset_written:
            return
        try:
            size = os.stat(self.spec.path).st_size
        except OSError:
            size = None
        try:
            from repro.runtime.atomic import atomic_write_text
            atomic_write_text(self._offset_path, json.dumps({
                "version": 1, "tap": self.name,
                "offset": self._reader.offset,
                "generation": self._reader.generation,
                "source": str(self.spec.path),
                "source_bytes": size}, sort_keys=True))
            self._offset_written = position
        except OSError:  # pragma: no cover - disk trouble must not kill taps
            pass

    # -- queue ---------------------------------------------------------------

    def _enqueue(self, parsed: List) -> None:
        self._pending = self.queue.push(self._pending + parsed)

    # -- the progress clock --------------------------------------------------

    def _no_progress(self, now: float, source_error: Optional[str]) -> None:
        """A poll consumed nothing: stall after one window, die after
        :data:`DEAD_AFTER_STALLS`."""
        idle = now - self._last_progress
        if idle <= self.config.stall_timeout:
            return
        self.last_error = source_error or (
            f"stalled: no new data within {self.config.stall_timeout:g}s")
        if idle > DEAD_AFTER_STALLS * self.config.stall_timeout:
            self.state = TapState.DEAD
            telem = telemetry.current()
            telem.counter("tap.dead", tap=self.name).inc()
            telem.event("tap.dead", severity="error", tap=self.name,
                        reason=self.last_error, stalls=self.stalls)
        elif self.state is not TapState.STALLED:
            self.state = TapState.STALLED
            self.stalls += 1
            chaos.maybe_kill(f"tap:stall:{self.stalls}")
            chaos.maybe_kill(f"tap:{self.name}:stall:{self.stalls}")

    # -- reporting -----------------------------------------------------------

    def status(self) -> dict:
        """Serializable per-tap status for the stream report."""
        return {
            "format": self.spec.format,
            "source": str(self.spec.path),
            "state": self.state.value,
            "records_ok": self.records_ok,
            "records_malformed": self.records_malformed,
            "frontier": (None if not math.isfinite(self.frontier)
                         else self.frontier),
            "queue_depth": len(self.queue),
            "offset": self._reader.offset,
            "generation": self._reader.generation,
            "quarantine_path": self.report.quarantine_path,
            "quarantine_duplicates": self.report.quarantine_duplicates,
            "last_error": self.last_error,
        }
