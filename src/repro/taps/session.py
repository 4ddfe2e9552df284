"""The tap session: N supervised feeds → one streaming commit log.

A :class:`TapSession` owns a *tap corpus* directory and writes into it the
exact artifact layout ``generate --keep-segments`` produces — committed
per-day segments under ``.segments/`` behind the checkpoint journal, plus
``platform.json`` and finalized corpus files — so ``repro watch`` (the PR
5 :class:`StreamEngine`) consumes foreign feeds exactly like kept day
segments, and a batch ``repro analyze`` of the same directory yields the
same fingerprints at every watermark.  Convergence is therefore *by
construction*: taps only ever translate feeds into the commit log; the
streaming engine's existing equivalence guarantees do the rest.

Commit rule: day ``d`` (always the next uncommitted day) is committed
once every tap that still gates the fence — not dead, not finished — has
its frontier past ``(d+1)·DAY``.  Messages from all taps are merged in
deterministic ``(time, tap, sequence)`` order; the data-plane segment is
committed empty (control-plane feeds carry no sampled packets — data
analyses recompute over whatever other segments exist).  When a tap dies
permanently it simply stops gating the fence: surviving taps keep
advancing the reducers and the session reports itself degraded.

Replay and crash recovery share one mechanism: committed days are
authoritative, so records that arrive for an already-committed day —
from a watcher restart re-reading sources from offset 0, or from a dead
feed replayed later — are counted and dropped at the fence, never
double-ingested.  A rotated/truncated source bumps its reader
generation, which discards that tap's *uncommitted* buffer before the
re-read records land, so rewinds cannot double-count either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Union

import numpy as np

from repro import telemetry
from repro.corpus.manifest import META_FILE
from repro.corpus.platform import read_platform_meta, write_platform_meta
from repro.dataplane.packet import PACKET_DTYPE
from repro.errors import CorpusError, TapError
from repro.runtime.atomic import remove_stale_tmp
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    committed_days,
    finalize,
    write_segment,
)
from repro.scenario.config import DAY
from repro.taps.adapters import TapSpec, parse_tap_spec
from repro.taps.supervisor import TapConfig, TapSupervisor

#: where per-tap quarantine sidecars live inside the tap corpus
TAPS_DIR = ".taps"


@dataclass
class TapPumpReport:
    """What one :meth:`TapSession.pump` pass did."""

    days_committed: int = 0
    records_buffered: int = 0
    records_late: int = 0
    finalized: bool = False


class TapSession:
    """N supervised taps feeding one tap corpus; see the module docstring."""

    def __init__(self, corpus_dir: Union[str, Path],
                 supervisors: List[TapSupervisor], *,
                 route_server_asn: int = 64500,
                 sampling_rate: int = 10_000):
        self.corpus_dir = Path(corpus_dir)
        self.supervisors = supervisors
        self.route_server_asn = int(route_server_asn)
        self.sampling_rate = int(sampling_rate)
        self._journal = CheckpointJournal.load(self.corpus_dir / JOURNAL_FILE)
        self.committed_days = len(committed_days(self._journal))
        self.records_late = 0
        self._buffers: Dict[int, List[tuple]] = {}
        self._last_generation = [sup.generation for sup in supervisors]
        self._observed_peers: Set[int] = set()
        try:
            self._observed_peers.update(
                int(asn) for asn in
                read_platform_meta(self.corpus_dir).get("peer_asns", ()))
        except (CorpusError, ValueError):
            pass

    # -- construction --------------------------------------------------------

    @classmethod
    def open(cls, corpus_dir: Union[str, Path],
             specs: Sequence[Union[str, TapSpec]], *,
             config: TapConfig = TapConfig(),
             route_server_asn: int = 64500,
             sampling_rate: int = 10_000,
             clock: Callable[[], float] = time.monotonic) -> "TapSession":
        """Bootstrap (or resume) a tap corpus and supervise ``specs``.

        Creates the directory, the ``.segments/`` scratch area, the
        journal (header ``command: tap``), and the platform sidecar when
        absent.  Refuses a directory whose journal belongs to ``repro
        generate`` — taps must not splice foreign feeds into a
        synthetic corpus's commit log.
        """
        if not specs:
            raise TapError("a tap session needs at least one tap spec")
        parsed = [spec if isinstance(spec, TapSpec) else parse_tap_spec(spec)
                  for spec in specs]
        names = [spec.name for spec in parsed]
        if len(set(names)) != len(names):
            raise TapError(f"duplicate tap names in {names}; disambiguate "
                           "with NAME=FORMAT:PATH")
        out = Path(corpus_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / SEGMENT_DIR).mkdir(exist_ok=True)
        taps_dir = out / TAPS_DIR
        taps_dir.mkdir(exist_ok=True)
        remove_stale_tmp(out)
        remove_stale_tmp(out / SEGMENT_DIR)
        journal = CheckpointJournal.load(out / JOURNAL_FILE)
        if journal.header is None:
            journal.start({"command": "tap", "version": 1})
        elif journal.header.get("command") != "tap":
            raise TapError(
                f"{out}: journal belongs to "
                f"{journal.header.get('command')!r}; refusing to tap "
                "external feeds into a generated corpus's commit log "
                "(point --tap at its own directory)")
        supervisors = [TapSupervisor(spec, config=config,
                                     quarantine_dir=taps_dir, clock=clock)
                       for spec in parsed]
        session = cls(out, supervisors,
                      route_server_asn=route_server_asn,
                      sampling_rate=sampling_rate)
        if not (out / META_FILE).exists():
            write_platform_meta(out, session._platform_meta())
        return session

    # -- status --------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once any tap died permanently this session."""
        return any(sup.state.value == "dead" for sup in self.supervisors)

    @property
    def all_inactive(self) -> bool:
        return not any(sup.alive for sup in self.supervisors)

    def status(self) -> Dict[str, dict]:
        """Per-tap status dicts, plus the commit-fence lag."""
        fence = self.committed_days * DAY
        out = {}
        for sup in self.supervisors:
            entry = sup.status()
            frontier = entry["frontier"]
            entry["lag_seconds"] = (None if frontier is None
                                    else max(0.0, fence - frontier))
            out[sup.name] = entry
        return out

    # -- the pump ------------------------------------------------------------

    def pump(self, *, final: bool = False) -> TapPumpReport:
        """Poll every tap, merge, and commit every completed day.

        ``final=True`` is the ``--once`` semantics: drain sources to
        EOF, commit *everything* buffered (including the partial tail
        day), and finalize the corpus files.  Without it, only days every
        fence-gating tap has moved past are committed — and the corpus
        files are still refreshed after each batch of commits, so a
        batch ``analyze`` of the directory is always consistent with the
        committed frontier.
        """
        telem = telemetry.current()
        report = TapPumpReport()
        with telem.span("tap.pump", taps=len(self.supervisors),
                        final=final) as sp:
            for index, sup in enumerate(self.supervisors):
                sup.poll(final=final)
                if sup.generation != self._last_generation[index]:
                    # source rewound (rotation/corruption recovery):
                    # drop its uncommitted buffer, the re-read replaces it
                    self._last_generation[index] = sup.generation
                    for day in list(self._buffers):
                        self._buffers[day] = [
                            item for item in self._buffers[day]
                            if item[1] != index]
                for when, seq, msg in sup.drain():
                    day = int(when // DAY)
                    if day < self.committed_days:
                        self.records_late += 1
                        telem.counter("tap.records", tap=sup.name,
                                      outcome="late").inc()
                        continue
                    self._buffers.setdefault(day, []).append(
                        (when, index, seq, msg))
                    report.records_buffered += 1
            report.days_committed = self._commit_ready(final)
            if (report.days_committed or final) and self.committed_days:
                # refresh the corpus files + manifest from the committed
                # days, so batch analyze/validate see a complete corpus
                finalize(self.corpus_dir, self._journal, self.committed_days,
                         sampling_rate=self.sampling_rate,
                         meta=self._platform_meta())
                report.finalized = True
            fence = self.committed_days * DAY
            for sup in self.supervisors:
                lag = (0.0 if not np.isfinite(sup.frontier)
                       else max(0.0, fence - sup.frontier))
                telem.gauge("tap.lag_seconds", tap=sup.name).set(lag)
            sp.attrs["days_committed"] = report.days_committed
            sp.attrs["late"] = self.records_late
        return report

    # -- committing ----------------------------------------------------------

    def _commit_ready(self, final: bool) -> int:
        committed = 0
        while True:
            day = self.committed_days
            if not self._committable(day, final):
                break
            self._commit_day(day)
            committed += 1
        return committed

    def _committable(self, day: int, final: bool) -> bool:
        max_buffered = max(self._buffers, default=-1)
        if final or self.all_inactive:
            # nothing more will arrive: flush everything buffered
            return max_buffered >= day
        gating = [sup for sup in self.supervisors if sup.alive]
        fence = (day + 1) * DAY
        return all(sup.frontier >= fence for sup in gating)

    def _commit_day(self, day: int) -> None:
        telem = telemetry.current()
        entries = sorted(self._buffers.pop(day, []),
                         key=lambda item: item[:3])
        messages = [item[3] for item in entries]
        self._observed_peers.update(msg.peer_asn for msg in messages)
        seg_dir = self.corpus_dir / SEGMENT_DIR
        with telem.span("tap.commit", day=day, records=len(messages)):
            for plane, chunk in (("control", messages),
                                 ("data", np.zeros(0, dtype=PACKET_DTYPE))):
                self._journal.commit(_segment_key(plane, day),
                                     **write_segment(seg_dir, plane, day,
                                                     chunk))
        self.committed_days = day + 1
        telem.counter("tap.days_committed").inc()

    # -- platform sidecar ----------------------------------------------------

    def _platform_meta(self) -> dict:
        return {
            "peer_asns": sorted(self._observed_peers),
            "route_server_asn": self.route_server_asn,
            "sampling_rate": self.sampling_rate,
            "peeringdb": [],
            "duration_days": self.committed_days,
            "tap_session": {
                sup.name: f"{sup.spec.format}:{sup.spec.path}"
                for sup in self.supervisors
            },
        }
