"""The incremental streaming analysis engine (``repro watch``).

:class:`StreamEngine` tails a corpus directory produced by
``repro generate --keep-segments``: the per-day segment files under
``.segments/`` plus the checkpoint journal (``.checkpoint.jsonl``) act as
an append-only commit log.  Each :meth:`tick` re-reads the journal,
ingests every newly committed day (a day counts only once *both* planes'
segments are committed), feeds the control messages through the RTBH
automaton (:class:`~repro.corpus.control.ControlReducer`), advances the
data-plane reducers of :mod:`repro.streaming.reducers`, and persists a
stream checkpoint atomically — so a SIGKILLed watcher resumes mid-stream
from the last consumed day instead of recomputing the data-plane
reducers.  The RTBH automaton is not persisted: resume re-reads every
consumed segment anyway and re-feeds its control messages.

:meth:`report` then produces a :class:`~repro.streaming.report
.StreamReport` with one :meth:`~repro.core.pipeline.AnalysisPipeline
.run_all` over the accumulated corpora.  The reducers enter that run
only as injected state: the RTBH automaton is the control corpus's
``rtbh_fold``, per-event traffic and pre-RTBH classification fill the
pipeline's shared-intermediate slots, so every analysis runs its one
batch implementation and none folds the control plane again; the result
cache is keyed by one digest per watermark.
The per-analysis value fingerprints must equal a from-scratch batch run
over the same corpus prefix — the invariant the golden suite and the CI
watch-smoke job assert.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.bgp.message import BGPUpdate
from repro.core.events import DEFAULT_DELTA
from repro.core.pipeline import ANALYSIS_NAMES, AnalysisPipeline
from repro.core.registry import get_analysis
from repro.corpus.control import (
    ControlPlaneCorpus,
    ControlReducer,
    read_updates_jsonl,
)
from repro.corpus.data import DataPlaneCorpus
from repro.corpus.ingest import ErrorPolicy, IngestReport, check_policy
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE, file_sha256
from repro.corpus.platform import load_platform, read_platform_meta
from repro.dataplane.packet import PACKET_DTYPE
from repro.errors import (
    CorpusError,
    IngestError,
    ReproError,
    StreamError,
)
from repro.parallel.cache import ResultCache
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    _segment_name,
    committed_days,
)
from repro.runtime.checkpoint import CheckpointJournal
from repro.streaming.reducers import PreRTBHReducer, TrafficReducer
from repro.streaming.report import (
    MODE_BATCH,
    MODE_CACHED,
    MODE_INCREMENTAL,
    StreamReport,
)
from repro.streaming.state import (
    STREAM_CHECKPOINT_FILE,
    ConsumedDay,
    StreamState,
    load_state,
    save_state,
    stream_digest,
)


class StreamEngine:
    """One watcher over one corpus directory.

    Use :meth:`open` (which restores a persisted stream checkpoint when
    one exists) rather than constructing directly.
    """

    def __init__(self, corpus_dir: str | Path, *,
                 policy: Union[str, ErrorPolicy] = ErrorPolicy.SKIP,
                 delta: float = DEFAULT_DELTA,
                 host_min_days: int = 20,
                 cache: Optional[ResultCache] = None,
                 scrub_every: Optional[int] = None):
        self.corpus_dir = Path(corpus_dir)
        self.policy = check_policy(policy)
        self.delta = float(delta)
        self.host_min_days = int(host_min_days)
        self.cache = cache
        #: run a quick integrity scrub every N ticks (None disables);
        #: damage surfaces through obs, never crashes the watcher
        self.scrub_every = scrub_every
        self._ticks = 0
        self._last_scrub: Optional[dict] = None
        self._control = ControlReducer()
        self._traffic = TrafficReducer()
        self._pre = PreRTBHReducer()
        self._consumed: List[ConsumedDay] = []
        #: raw parsed control messages, in segment (= time) order
        self._messages: List[BGPUpdate] = []
        #: raw data-plane day chunks, in segment order
        self._chunks: List[np.ndarray] = []
        # ingest accounting mirroring what a batch load of the
        # accumulated prefix would report
        self._control_total = 0
        self._control_skipped = 0
        self._data_total = 0
        self._sampling_rate: Optional[int] = None
        self._data_cache: Optional[DataPlaneCorpus] = None
        #: attached live-feed tap session (see :meth:`attach_taps`)
        self._taps = None
        #: attached operations plane (see :meth:`attach_obs`)
        self._obs = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, corpus_dir: str | Path, *,
             policy: Union[str, ErrorPolicy] = ErrorPolicy.SKIP,
             delta: float = DEFAULT_DELTA,
             host_min_days: int = 20,
             cache: Optional[ResultCache] = None,
             fresh: bool = False,
             scrub_every: Optional[int] = None) -> "StreamEngine":
        """Open a watcher, resuming its stream checkpoint if one exists.

        ``fresh=True`` ignores any existing checkpoint and starts from
        day 0 (the checkpoint file is overwritten at the next tick).
        """
        engine = cls(corpus_dir, policy=policy, delta=delta,
                     host_min_days=host_min_days, cache=cache,
                     scrub_every=scrub_every)
        if not fresh:
            state = load_state(corpus_dir)
            if state is not None:
                engine._restore(state)
        return engine

    def attach_taps(self, session) -> None:
        """Feed this watcher from a :class:`~repro.taps.session.TapSession`.

        Each :meth:`tick` first pumps the session — polling every
        supervised tap and committing completed days into this corpus's
        journal — then tails the journal exactly as it would a
        ``generate --keep-segments`` corpus.  The taps therefore cannot
        bypass any streaming invariant: only committed days reach the
        reducers, and the fingerprints still match a batch ``analyze``
        of the same prefix.
        """
        self._taps = session

    @property
    def taps(self):
        return self._taps

    def attach_obs(self, plane) -> None:
        """Report into an :class:`~repro.obs.plane.ObsPlane` every tick.

        At the end of each :meth:`tick` the engine hands the plane its
        :meth:`obs_sample`; the plane evaluates the SLO rules over it,
        appends any transition events, and flushes the
        ``.obs/snapshot.json`` document.
        """
        self._obs = plane

    @property
    def obs(self):
        return self._obs

    @property
    def watermark_days(self) -> int:
        """Days fully consumed by this watcher."""
        return len(self._consumed)

    @property
    def segments_consumed(self) -> int:
        return 2 * len(self._consumed)

    def state(self) -> StreamState:
        """The serializable snapshot :meth:`tick` persists per day."""
        return StreamState(
            policy=self.policy.value, delta=self.delta,
            host_min_days=self.host_min_days,
            consumed=list(self._consumed),
            traffic_state=self._traffic.to_state(),
            pre_state=self._pre.to_state(),
        )

    def _config(self) -> dict:
        """:meth:`StreamState.config` without serializing any reducer."""
        return StreamState(policy=self.policy.value, delta=self.delta,
                           host_min_days=self.host_min_days).config()

    def _restore(self, state: StreamState) -> None:
        """Rebuild in-memory context from a persisted checkpoint.

        The data-plane reducer states come from the checkpoint; the raw
        messages and packet chunks (which the analyses that rescan the
        corpora read) are re-read from the consumed segment files, each
        re-verified against the corpus journal so a regenerated corpus
        cannot be silently spliced onto foreign reducer state.  The
        re-read control messages are fed through a fresh RTBH automaton,
        so it is the same fold a first consumption builds.
        """
        mine = self._config()
        if state.config() != mine:
            raise StreamError(
                f"{self.corpus_dir}: stream checkpoint was written with "
                f"config {state.config()} but the watcher was opened with "
                f"{mine}; re-run with matching options or start fresh")
        journal = self._journal()
        for entry in state.consumed:
            control_entry = journal.committed(_segment_key("control",
                                                           entry.day))
            data_entry = journal.committed(_segment_key("data", entry.day))
            for plane, committed, expected in (
                    ("control", control_entry, entry.control_sha256),
                    ("data", data_entry, entry.data_sha256)):
                if committed is None or committed.get("sha256") != expected:
                    raise StreamError(
                        f"{self.corpus_dir}: stream checkpoint consumed "
                        f"{plane} day {entry.day} with sha {expected[:12]}… "
                        "but the corpus journal disagrees; the corpus was "
                        "regenerated — remove the stream checkpoint to "
                        "start over")
            self._ingest_day(entry.day, entry.control_sha256,
                             entry.data_sha256)
            self._consumed.append(entry)
        if state.consumed:
            self._traffic = TrafficReducer.from_state(state.traffic_state)
            self._pre = PreRTBHReducer.from_state(state.pre_state)

    # -- consumption ---------------------------------------------------------

    def _journal(self) -> CheckpointJournal:
        path = self.corpus_dir / JOURNAL_FILE
        if not path.exists():
            raise StreamError(
                f"{self.corpus_dir}: no checkpoint journal to tail; "
                "is this a generated corpus directory?")
        return CheckpointJournal.load(path)

    def tick(self, *, final: bool = False) -> int:
        """Consume every newly committed day; returns how many.

        After each day the reducers have advanced and the stream
        checkpoint is durably on disk — the chaos kill point
        ``stream:day:NNN`` fires between days, and a watcher killed
        there resumes with that day already consumed.

        With taps attached the tick first pumps them (``final=True``
        drains the sources to EOF and flushes the partial tail day —
        the ``--once`` semantics); without taps ``final`` is a no-op.
        """
        telem = telemetry.current()
        if self._taps is not None:
            self._taps.pump(final=final)
        days = committed_days(self._journal())
        telem.gauge("stream.lag_days").set(len(days) - self.watermark_days)
        consumed = 0
        with telem.span("stream.tick", watermark=self.watermark_days,
                        committed=len(days)) as sp:
            while self.watermark_days < len(days):
                day = self.watermark_days
                control_sha = days[day][0]["sha256"]
                data_sha = days[day][1]["sha256"]
                self._ingest_day(day, control_sha, data_sha)
                self._consumed.append(ConsumedDay(
                    day=day, control_sha256=control_sha,
                    data_sha256=data_sha))
                self._advance_reducers()
                save_state(self.corpus_dir, self.state())
                consumed += 1
                telem.counter("stream.segments_consumed").inc(2)
                telem.event("stream.day_consumed", day=day,
                            watermark=self.watermark_days,
                            control_sha256=control_sha[:12],
                            data_sha256=data_sha[:12])
            sp.attrs["consumed_days"] = consumed
        telem.gauge("stream.lag_days").set(len(days) - self.watermark_days)
        self._ticks += 1
        if self.scrub_every and self._ticks % self.scrub_every == 0:
            self._scrub_tick()
        if self._obs is not None:
            self._obs.observe(self.obs_sample())
        return consumed

    def _scrub_tick(self) -> None:
        """Background integrity scrub: quick mode, advisory only.

        Damage never crashes the watcher — it lands in the obs sample
        (degrading readiness via the ``doctor.damage`` SLO check) and
        the event log, and the operator runs ``repro doctor --repair``.
        """
        from repro.doctor import scrub_corpus

        telem = telemetry.current()
        try:
            report = scrub_corpus(self.corpus_dir, deep=False,
                                  cache_dir=None if self.cache is None
                                  else self.cache.root)
        except ReproError as exc:  # scrub trouble is a finding, not a crash
            self._last_scrub = {"tick": self._ticks, "damage_count": 1,
                                "error_count": 1, "classes": ["scrub-failed"],
                                "detail": str(exc)}
            telem.event("doctor.damage", severity="error",
                        classes=["scrub-failed"], detail=str(exc))
            return
        self._last_scrub = {
            "tick": self._ticks,
            "damage_count": len(report.damages),
            "error_count": len(report.errors),
            "classes": report.classes(),
        }
        if not report.clean:
            telem.counter("doctor.damage_found").inc(len(report.damages))
            telem.event(
                "doctor.damage", severity="warning",
                damage_count=len(report.damages),
                error_count=len(report.errors), classes=report.classes(),
                damages=[str(d) for d in report.damages[:10]])

    def obs_sample(self) -> dict:
        """The operational sample the obs plane judges and publishes.

        A plain dict — watermark/commit-log position, checkpoint
        staleness, per-tap status, and the full metrics snapshot — so the
        SLO evaluator stays a pure function and the snapshot document is
        self-contained for ``repro status`` after the process dies.
        """
        telem = telemetry.current()
        try:
            committed = len(committed_days(self._journal()))
        except StreamError:
            committed = 0
        sample: dict = {
            "corpus": str(self.corpus_dir),
            "watermark_days": self.watermark_days,
            "committed_days": committed,
            "lag_days": committed - self.watermark_days,
            "metrics": telem.metrics_snapshot() if telem.enabled else {},
        }
        checkpoint = self.corpus_dir / STREAM_CHECKPOINT_FILE
        try:
            sample["checkpoint_age_seconds"] = max(
                0.0, time.time() - checkpoint.stat().st_mtime)
        except OSError:
            pass  # nothing persisted yet — not applicable, not a failure
        if self._taps is not None:
            sample["taps"] = self._taps.status()
            sample["taps_degraded"] = self._taps.degraded
        if self._last_scrub is not None:
            sample["doctor"] = dict(self._last_scrub)
        return sample

    def _segment_path(self, plane: str, day: int) -> Path:
        path = self.corpus_dir / SEGMENT_DIR / _segment_name(plane, day)
        if not path.exists():
            raise StreamError(
                f"{path}: committed segment file is missing; generate the "
                "corpus with --keep-segments to leave the day segments "
                "on disk for streaming")
        return path

    def _ingest_day(self, day: int, control_sha: str, data_sha: str) -> None:
        """Read one day's two segments into the accumulated context and
        feed its control messages through the RTBH automaton."""
        control_path = self._segment_path("control", day)
        data_path = self._segment_path("data", day)
        for path, expected in ((control_path, control_sha),
                               (data_path, data_sha)):
            actual = file_sha256(path)
            if actual != expected:
                raise StreamError(
                    f"{path}: segment checksum {actual[:12]}… does not "
                    f"match the journal's {expected[:12]}…; the corpus "
                    "changed underneath the watcher")
        policy = self.policy.value
        for line_no, item in read_updates_jsonl(control_path,
                                                on_error=policy):
            self._control_total += 1
            if not isinstance(item, BGPUpdate):
                self._control_skipped += 1
                continue
            if not math.isfinite(item.time):
                # mirror ControlPlaneCorpus construction: strict raises,
                # lenient drops with accounting
                if policy == "strict":
                    raise CorpusError(
                        f"control-plane record {control_path.name}:{line_no} "
                        f"has non-finite timestamp {item.time!r}")
                self._control_skipped += 1
                continue
            self._messages.append(item)
            self._control.feed(item)
        try:
            with np.load(data_path) as archive:
                chunk = archive["packets"]
        except Exception as exc:
            raise IngestError(
                f"{data_path}: unreadable segment archive: {exc}") from exc
        if chunk.dtype != PACKET_DTYPE or chunk.ndim != 1:
            raise CorpusError(
                f"{data_path}: expected 1-D PACKET_DTYPE array, got "
                f"{chunk.dtype} with shape {chunk.shape}")
        self._data_total += len(chunk)
        self._chunks.append(chunk)
        self._data_cache = None

    def _advance_reducers(self) -> None:
        data = self._data_corpus()
        events = self._control.events(self.delta)
        if self._control.message_count:
            self._traffic.advance(data, events, self._control.end_time)
        self._pre.advance(data, events)

    # -- accumulated corpora -------------------------------------------------

    def _sampling(self) -> int:
        if self._sampling_rate is None:
            meta = read_platform_meta(self.corpus_dir)
            try:
                self._sampling_rate = int(meta["sampling_rate"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(
                    f"{self.corpus_dir}: platform sidecar lacks a usable "
                    f"sampling_rate: {exc}") from exc
        return self._sampling_rate

    def _data_corpus(self) -> DataPlaneCorpus:
        """The accumulated data-plane corpus up to the watermark.

        Constructed exactly as a batch ``load_npz`` of the concatenated
        chunks would be (same validation, same stable time sort, same
        ingest accounting), so every downstream number matches.
        """
        if self._data_cache is None:
            packets = (np.concatenate(self._chunks) if self._chunks
                       else np.zeros(0, dtype=PACKET_DTYPE))
            report = IngestReport(source=str(self.corpus_dir / DATA_FILE),
                                  policy=self.policy.value)
            report.total = self._data_total
            self._data_cache = DataPlaneCorpus(
                packets, sampling_rate=self._sampling(),
                on_error=self.policy.value, ingest_report=report,
                copy=False)
        return self._data_cache

    def _control_corpus(self) -> ControlPlaneCorpus:
        """The accumulated control-plane corpus up to the watermark.

        Its RTBH fold is the engine's own automaton, which has been fed
        exactly these messages (segments are in time order, so the
        corpus keeps the feed order), so no reader of the corpus folds
        them again.
        """
        report = IngestReport(source=str(self.corpus_dir / CONTROL_FILE),
                              policy=self.policy.value)
        report.total = self._control_total
        report.skipped = self._control_skipped
        corpus = ControlPlaneCorpus(list(self._messages),
                                    on_error=self.policy.value,
                                    ingest_report=report)
        corpus.__dict__["rtbh_fold"] = self._control
        return corpus

    # -- reporting -----------------------------------------------------------

    def _pipeline(self) -> AnalysisPipeline:
        """The batch pipeline over the consumed prefix, with the reducers
        injected into its shared-intermediate slots so no analysis
        recomputes them from the accumulated corpora."""
        try:
            peers, rs_asn, peeringdb = load_platform(self.corpus_dir)
        except (OSError, KeyError, ValueError) as exc:
            raise CorpusError(
                f"{self.corpus_dir}: unusable platform sidecar: {exc}"
                ) from exc
        pipeline = AnalysisPipeline(
            self._control_corpus(), self._data_corpus(), peers,
            peeringdb=peeringdb, route_server_asn=rs_asn,
            delta=self.delta, host_min_days=self.host_min_days)
        events = pipeline.events
        pipeline.__dict__["event_traffic"] = self._traffic.traffic(events)
        pipeline.__dict__["pre_classification"] = \
            self._pre.classification(events)
        return pipeline

    def report(self, analyses: Optional[Sequence[str]] = None,
               ) -> StreamReport:
        """Analyze the consumed prefix; see the module docstring.

        ``analyses`` restricts to a subset of registry names (default:
        the full study).  With a result cache, every analysis is served
        from it when the same watermark was already reported.
        """
        telem = telemetry.current()
        names = list(analyses if analyses is not None else ANALYSIS_NAMES)
        modes = {}
        with telem.span("stream.report", watermark=self.watermark_days,
                        analyses=len(names)):
            study = self._pipeline().run_all(
                strict=False, analyses=names, cache=self.cache,
                corpus_digest=stream_digest(self._consumed),
                config_hash=telemetry.config_hash(self._config()))
            for outcome in study.outcomes:
                modes[outcome.name] = (
                    MODE_CACHED if outcome.cached
                    else MODE_INCREMENTAL
                    if get_analysis(outcome.name).incremental
                    else MODE_BATCH)
                telem.counter("stream.analyses", mode=modes[outcome.name],
                              status=outcome.status.value).inc()
            if telem.enabled:
                study.telemetry = telem.metrics_snapshot()
        return StreamReport(
            corpus=str(self.corpus_dir),
            watermark_days=self.watermark_days,
            segments_consumed=self.segments_consumed,
            study=study, modes=modes,
            taps=None if self._taps is None else self._taps.status())

    # -- the watch loop ------------------------------------------------------

    def watch(self, *, interval: float = 1.0,
              max_ticks: Optional[int] = None,
              until_days: Optional[int] = None,
              sleep: Callable[[float], None] = time.sleep,
              on_tick: Optional[Callable[["StreamEngine", int], None]] = None,
              ) -> int:
        """Tick until a stop condition; returns the final watermark.

        ``until_days`` stops once that many days are consumed (the CI
        smoke job's condition); ``max_ticks`` bounds the loop regardless;
        ``on_tick(engine, consumed_days)`` observes each tick.  With
        neither bound set this loops forever (the interactive
        ``repro watch`` case — the user interrupts it).
        """
        ticks = 0
        while True:
            consumed = self.tick()
            ticks += 1
            if on_tick is not None:
                on_tick(self, consumed)
            if until_days is not None and self.watermark_days >= until_days:
                break
            if max_ticks is not None and ticks >= max_ticks:
                break
            sleep(interval)
        return self.watermark_days
