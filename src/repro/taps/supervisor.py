"""Supervised consumption of one external feed: every failure mode of a
real BGP feed gets a deterministic, testable handling path.

A :class:`TapSupervisor` wraps one :class:`~repro.taps.adapters.TapSpec`
and is *pull-based*: the session calls :meth:`poll` on every pump, and
the supervisor reads whatever new bytes its source file holds.  Around
that read sit the robustness layers, in order:

stall watchdog
    No new bytes for longer than ``stall_timeout`` (on the injected
    clock) counts as a failure — a wedged feed looks exactly like a
    silent one.
reconnect with deterministic backoff
    Failures escalate through :class:`repro.runtime.retry.BackoffTimer`
    — the same seeded-jitter policy machinery the analysis supervisor
    uses — so a given ``(policy, seed)`` replays the identical reconnect
    schedule.  The chaos kill points ``tap:reconnect:N`` and
    ``tap:<name>:reconnect:N`` fire as each reconnect probe begins.
circuit breaker
    ``breaker_threshold`` consecutive failures open the breaker: polls
    short-circuit without touching the source until the cooldown
    expires, then a single half-open probe decides between closing it
    (new data arrived) and re-opening with the next backoff delay.
    ``max_reconnects`` consecutive failed probes declare the tap dead —
    permanently for this session; the session degrades instead of
    failing.
bounded ingest queue
    Parsed updates land in a bounded queue; while it is full the
    supervisor defers reading its source (bounded memory, no loss).  A
    file-backed feed can always wait, so no record is ever dropped.
malformed-record quarantine
    Undecodable records go through the PR 1 :class:`ErrorPolicy` /
    :class:`IngestReport` machinery: ``strict`` raises, ``skip`` drops
    with accounting, ``collect`` additionally appends to a SHA-256
    deduped quarantine sidecar — re-ingesting a feed never double-counts
    its quarantine.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro import telemetry
from repro.bgp.message import BGPUpdate
from repro.corpus.ingest import ErrorPolicy, IngestReport, check_policy
from repro.errors import TapError
from repro.runtime import chaos
from repro.runtime.retry import BackoffTimer, RetryPolicy
from repro.taps.adapters import MRT_HEADER, MRT_MAX_FRAME, TapSpec

#: bytes consumed from a source per poll, the read side's memory bound
MAX_READ = 4 << 20


class TapState(str, Enum):
    """Lifecycle of one supervised tap."""

    CONNECTING = "connecting"   # never produced a record yet
    LIVE = "live"               # data flowed within the stall window
    STALLED = "stalled"         # watchdog fired, breaker still closed
    RECONNECTING = "reconnecting"  # breaker open/half-open, probing
    DEAD = "dead"               # reconnect budget exhausted; permanent
    FINISHED = "finished"       # final pump drained it to EOF

    __str__ = str.__str__


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __str__ = str.__str__


@dataclass(frozen=True)
class TapConfig:
    """Supervision knobs shared by every tap of a session."""

    #: seconds of no progress before the watchdog declares a stall
    stall_timeout: float = 30.0
    #: consecutive failures before the circuit breaker opens
    breaker_threshold: int = 3
    #: consecutive failed reconnect probes before the tap is declared dead
    max_reconnects: int = 8
    #: parsed-update capacity of the bounded ingest queue
    queue_capacity: int = 100_000
    #: malformed-record policy (collect = quarantine sidecars)
    policy: ErrorPolicy = ErrorPolicy.COLLECT
    #: reconnect backoff shape; jitter is deterministic per (policy, seed)
    backoff: RetryPolicy = RetryPolicy(max_retries=0, backoff_base=0.5,
                                       backoff_factor=2.0, backoff_max=60.0,
                                       jitter=0.5)
    #: seed of the jitter stream (and the determinism contract)
    seed: int = 0
    #: feed timestamps are shifted by -epoch into corpus time
    epoch: float = 0.0

    def __post_init__(self) -> None:
        check_policy(self.policy)
        if self.stall_timeout <= 0:
            raise TapError("stall_timeout must be > 0")
        if self.breaker_threshold < 1:
            raise TapError("breaker_threshold must be >= 1")
        if self.max_reconnects < 1:
            raise TapError("max_reconnects must be >= 1")
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

    Raises ``OSError`` on missing/unreadable/truncated sources — the
    supervisor turns those into failures.  A truncated (rotated) source
    is recovered on reconnect by restarting from offset 0 and bumping
    ``generation`` so the session can discard the tap's uncommitted
    buffer instead of double-counting re-read records.
    """

    def __init__(self, path: Path, framing: str):
        self.path = Path(path)
        self.framing = framing
        self.offset = 0
        self.generation = 0
        self._line_buf = b""
        self._byte_buf = b""
        self._corrupt: Optional[str] = None

    def read(self) -> Tuple[List, int, List[Tuple[str, str]]]:
        """``(payloads, bytes_consumed, framing_errors)`` since last read."""
        if self._corrupt is not None:
            return [], 0, []
        size = os.stat(self.path).st_size
        if size < self.offset:
            raise OSError(f"{self.path}: source shrank from {self.offset} "
                          f"to {size} bytes (truncated/rotated)")
        if size == self.offset:
            return [], 0, []
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read(MAX_READ)
        self.offset += len(data)
        if self.framing == "mrt":
            return self._frames(data)
        return self._lines(data)

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
                # stream: quarantine the evidence and freeze the tap —
                # the watchdog/breaker will walk it to dead
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

    def reconnect(self) -> None:
        """Re-establish the source: recover from rotation/corruption by
        restarting from offset 0 when the file shrank or was garbled."""
        try:
            size = os.stat(self.path).st_size
        except OSError:
            size = None
        if self._corrupt is not None or size is None or size < self.offset:
            self.offset = 0
            self._line_buf = b""
            self._byte_buf = b""
            self._corrupt = None
            self.generation += 1

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
        self.breaker = BreakerState.CLOSED
        self.queue = BoundedQueue(config.queue_capacity)
        self.last_error: Optional[str] = None
        self.frontier = float("-inf")
        self.records_ok = 0
        self.records_malformed = 0
        self.reconnects = 0
        self.breaker_opens = 0
        self.consecutive_failures = 0
        self.seq = 0
        self._reader = _SourceReader(spec.path, self.adapter.framing)
        self._open_until = float("-inf")
        self._last_progress: Optional[float] = None
        self._backoff = BackoffTimer(config.backoff, config.seed)
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
        self._offset_written = -1

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
            self._last_progress = now
        telem = telemetry.current()
        if self.breaker is BreakerState.OPEN:
            if now < self._open_until:
                return  # short-circuit: no source IO while cooling down
            self._transition_breaker(BreakerState.HALF_OPEN)
            self.state = TapState.RECONNECTING
            self.reconnects += 1
            chaos.maybe_kill(f"tap:reconnect:{self.reconnects}")
            chaos.maybe_kill(f"tap:{self.name}:reconnect:{self.reconnects}")
            telem.counter("tap.reconnects", tap=self.name).inc()
            self._reader.reconnect()

        if self._pending and self.queue.free == 0:
            # backpressure: do not read while saturated
            telem.gauge("tap.queue_depth", tap=self.name).set(len(self.queue))
            return

        try:
            payloads, consumed, framing_errors = self._reader.read()
        except OSError as exc:
            self._failure(now, f"source error: {exc}")
            return

        for reason, payload in framing_errors:
            self._malformed(reason, payload)
        parsed = self._decode(payloads)
        if final:
            for reason, payload in self._reader.flush_tail():
                self._malformed(reason, payload)

        if consumed > 0:
            self._success(now)
        elif self.breaker is BreakerState.HALF_OPEN:
            self._failure(now, "reconnect probe found no new data")
        elif not final and self.state is not TapState.CONNECTING \
                and now - self._last_progress > self.config.stall_timeout:
            self._failure(now, "stalled: no new data within "
                               f"{self.config.stall_timeout:g}s")

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
        if self._offset_path is None \
                or self._reader.offset == self._offset_written:
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
            self._offset_written = self._reader.offset
        except OSError:  # pragma: no cover - disk trouble must not kill taps
            pass

    # -- queue ---------------------------------------------------------------

    def _enqueue(self, parsed: List) -> None:
        self._pending = self.queue.push(self._pending + parsed)

    # -- failure / recovery lifecycle ----------------------------------------

    def _success(self, now: float) -> None:
        self._last_progress = now
        self.consecutive_failures = 0
        if self.breaker is not BreakerState.CLOSED:
            self._transition_breaker(BreakerState.CLOSED)
            self._backoff.reset()
            telemetry.current().event(
                "tap.recovered", tap=self.name,
                reconnects=self.reconnects)
        self.state = TapState.LIVE
        self.last_error = None

    def _failure(self, now: float, reason: str) -> None:
        self.last_error = reason
        self.consecutive_failures += 1
        self._last_progress = now  # re-arm the watchdog window
        if self.breaker is BreakerState.HALF_OPEN:
            self._escalate(now)
        elif self.breaker is BreakerState.CLOSED:
            self.state = TapState.STALLED
            if self.consecutive_failures >= self.config.breaker_threshold:
                self._escalate(now)

    def _escalate(self, now: float) -> None:
        """Open (or re-open) the breaker, or give up entirely."""
        if self._backoff.attempt >= self.config.max_reconnects:
            self.state = TapState.DEAD
            self._transition_breaker(BreakerState.OPEN)
            telem = telemetry.current()
            telem.counter("tap.dead", tap=self.name).inc()
            telem.event("tap.dead", severity="error", tap=self.name,
                        reason=self.last_error,
                        reconnects=self.reconnects)
            return
        self._open_until = now + self._backoff.next_delay()
        self._transition_breaker(BreakerState.OPEN)
        self.state = TapState.RECONNECTING

    def _transition_breaker(self, to: BreakerState) -> None:
        if to is self.breaker:
            return
        if to is BreakerState.OPEN:
            self.breaker_opens += 1
        telem = telemetry.current()
        telem.counter("tap.breaker", tap=self.name, to=to.value).inc()
        telem.event(
            "tap.breaker",
            severity="warning" if to is BreakerState.OPEN else "info",
            tap=self.name, from_state=self.breaker.value,
            to_state=to.value, last_error=self.last_error)
        self.breaker = to

    # -- reporting -----------------------------------------------------------

    def status(self) -> dict:
        """Serializable per-tap status for the stream report."""
        return {
            "format": self.spec.format,
            "source": str(self.spec.path),
            "state": self.state.value,
            "breaker": self.breaker.value,
            "records_ok": self.records_ok,
            "records_malformed": self.records_malformed,
            "reconnects": self.reconnects,
            "breaker_opens": self.breaker_opens,
            "consecutive_failures": self.consecutive_failures,
            "frontier": (None if not math.isfinite(self.frontier)
                         else self.frontier),
            "queue_depth": len(self.queue),
            "offset": self._reader.offset,
            "generation": self._reader.generation,
            "quarantine_path": self.report.quarantine_path,
            "quarantine_duplicates": self.report.quarantine_duplicates,
            "last_error": self.last_error,
        }
