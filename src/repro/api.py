"""The stable public facade: one object, six verbs.

Everything the CLI can do is reachable programmatically through
:class:`Study` without touching the internal layering::

    from repro import Study, GenerateOptions, StreamOptions

    study = Study.generate("corpus/", options=GenerateOptions(
        scale=0.02, duration_days=5, keep_segments=True))
    report = study.analyze()                  # batch StudyReport
    stream = study.stream()                   # incremental StreamReport
    assert stream.fingerprints() == {
        o.name: o.value_digest for o in report.outcomes}
    check = study.validate()                  # integrity ValidationReport

The options objects are keyword-only frozen dataclasses, so every knob
is named at the call site and defaults stay stable as the toolkit
grows; the returned reports are the same report types the rest of the
package produces (``StudyReport``, ``StreamReport``,
``ValidationReport``) — the facade adds no parallel result vocabulary.

For long-running consumption, :meth:`Study.watch` hands back the
underlying :class:`~repro.streaming.engine.StreamEngine` so callers can
drive ticks themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.core.events import DEFAULT_DELTA
from repro.core.study import StudyReport
from repro.corpus.ingest import ErrorPolicy
from repro.corpus.manifest import (
    ValidationReport,
    require_corpus_files,
    validate_corpus,
)


@dataclass(frozen=True, kw_only=True)
class GenerateOptions:
    """Knobs for :meth:`Study.generate`."""

    scale: float = 0.02
    duration_days: float = 30.0
    seed: int = 7
    jobs: int = 1
    resume: bool = False
    #: keep the committed per-day segments — required by :meth:`Study.stream`
    #: / :meth:`Study.watch` and ``repro advance``
    keep_segments: bool = True


@dataclass(frozen=True, kw_only=True)
class AnalyzeOptions:
    """Knobs for :meth:`Study.analyze`."""

    policy: Union[str, ErrorPolicy] = ErrorPolicy.SKIP
    host_min_days: int = 20
    analyses: Optional[Tuple[str, ...]] = None
    jobs: int = 1


@dataclass(frozen=True, kw_only=True)
class StreamOptions:
    """Knobs for :meth:`Study.stream` / :meth:`Study.watch`."""

    policy: Union[str, ErrorPolicy] = ErrorPolicy.SKIP
    host_min_days: int = 20
    delta: float = DEFAULT_DELTA
    analyses: Optional[Tuple[str, ...]] = None
    #: consult/populate the corpus-local result cache for the
    #: non-incremental analyses
    cache: bool = True
    #: ignore any existing stream checkpoint and consume from day 0
    fresh: bool = False
    #: live-feed tap specs (``[NAME=]FORMAT:PATH``) to supervise into the
    #: corpus's commit log before each tick; empty = tail-only watcher
    taps: Tuple[str, ...] = ()
    #: supervision knobs shared by every tap (None = library defaults);
    #: a :class:`repro.taps.TapConfig`
    tap_config: Optional[object] = None
    #: attach the operations plane (``.obs/`` snapshots + event log)
    obs: bool = False
    #: SLO thresholds the plane judges each tick against (None = library
    #: defaults); a :class:`repro.obs.SLORules`
    slo: Optional[object] = None
    #: run a quick integrity scrub every N ticks, surfacing damage
    #: through the obs plane (None disables)
    scrub_every: Optional[int] = None
    #: bound the result cache: LRU-evict entries past this many bytes
    cache_max_bytes: Optional[int] = None


@dataclass(frozen=True)
class Study:
    """A corpus directory plus the verbs that act on it.

    Instances are cheap handles: opening a study only checks that the
    three corpus files exist, and each verb reads what it needs, so a
    long-lived handle never holds packet arrays.
    """

    corpus_dir: Path

    # -- constructors --------------------------------------------------

    @classmethod
    def open(cls, corpus_dir: Union[str, Path]) -> "Study":
        """Handle to an existing corpus directory.

        Raises :class:`~repro.errors.CorpusError` when the directory is
        missing any of the three corpus files — the same check ``repro
        analyze`` performs.
        """
        return cls(require_corpus_files(corpus_dir))

    @classmethod
    def tap(cls, corpus_dir: Union[str, Path]) -> "Study":
        """Handle to a tap corpus directory, existing or not yet begun.

        Unlike :meth:`open` this performs no corpus-file checks: a tap
        corpus starts empty and grows as ``watch``/``stream`` (with
        :attr:`StreamOptions.taps` set) commit feed days into it.
        """
        return cls(Path(corpus_dir))

    @classmethod
    def generate(cls, corpus_dir: Union[str, Path], *,
                 options: GenerateOptions = GenerateOptions()) -> "Study":
        """Generate a corpus directory crash-safely and open it."""
        from repro import telemetry
        from repro.runtime.generate import checkpointed_generate
        from repro.scenario import ScenarioConfig

        config = ScenarioConfig.paper(scale=options.scale,
                                      duration_days=options.duration_days,
                                      seed=options.seed)
        run = telemetry.run_manifest("generate", seed=options.seed,
                                     config=config)
        checkpointed_generate(
            config, corpus_dir, resume=options.resume, run=run,
            jobs=options.jobs, keep_segments=options.keep_segments,
            extra_meta={"scale": options.scale,
                        "duration_days": options.duration_days,
                        "seed": options.seed})
        return cls(Path(corpus_dir))

    # -- verbs ---------------------------------------------------------

    def analyze(self, *,
                options: AnalyzeOptions = AnalyzeOptions()) -> StudyReport:
        """Batch-analyze the corpus; the classic full-study pass.

        Opens the corpus as ``repro analyze`` does and reads its planes
        once, before any analysis runs (an unreadable one raises
        :class:`~repro.errors.IngestError`)."""
        from repro.core.pipeline import AnalysisPipeline

        pipeline = AnalysisPipeline.open(self.corpus_dir,
                                         policy=options.policy,
                                         host_min_days=options.host_min_days)
        return pipeline.run_all(strict=pipeline.policy is ErrorPolicy.STRICT,
                                analyses=options.analyses,
                                jobs=options.jobs)

    def stream(self, *, options: StreamOptions = StreamOptions()):
        """Consume every committed day, then report incrementally.

        Equivalent to ``repro watch --once``: resumes (or starts) the
        stream checkpoint, ticks to the committed frontier, and returns
        a :class:`~repro.streaming.report.StreamReport` whose
        fingerprints match :meth:`analyze` over the consumed prefix.
        """
        engine = self.watch(options=options)
        engine.tick(final=True)
        return engine.report(options.analyses)

    def watch(self, *, options: StreamOptions = StreamOptions()):
        """The underlying :class:`~repro.streaming.engine.StreamEngine`.

        For callers that drive ticks themselves (or call
        ``engine.watch(...)`` with their own stop condition).  No day is
        consumed yet.
        """
        from repro.parallel.cache import ResultCache
        from repro.streaming import StreamEngine

        session = None
        if options.taps:
            # bootstrap the tap corpus first: it creates the journal the
            # engine insists on tailing
            from repro.taps import TapConfig, TapSession

            session = TapSession.open(
                self.corpus_dir, options.taps,
                config=options.tap_config or TapConfig())
        cache = ResultCache.for_corpus(
            self.corpus_dir, max_bytes=options.cache_max_bytes) \
            if options.cache else None
        engine = StreamEngine.open(self.corpus_dir, policy=options.policy,
                                   delta=options.delta,
                                   host_min_days=options.host_min_days,
                                   cache=cache, fresh=options.fresh,
                                   scrub_every=options.scrub_every)
        if session is not None:
            engine.attach_taps(session)
        if options.obs:
            from repro import telemetry
            from repro.obs import ObsPlane, SLORules

            # the plane needs a collecting registry and event channel;
            # API-driven sessions have no natural activate() scope, so
            # install one process-globally iff the no-op default is live
            telemetry.ensure_active()
            plane = ObsPlane(self.corpus_dir,
                             rules=options.slo or SLORules(),
                             command="watch")
            engine.attach_obs(plane)
        return engine

    def validate(self, *, cache_dir: Union[str, Path, None] = None,
                 ) -> ValidationReport:
        """Integrity-check the corpus directory (checksums + counts)."""
        return validate_corpus(self.corpus_dir, cache_dir=cache_dir)

    def doctor(self, *, repair: bool = False, deep: bool = True,
               cache_dir: Union[str, Path, None] = None):
        """Scrub the corpus's durable state; optionally heal it.

        With ``repair=False`` (the default) this is read-only and
        returns the :class:`~repro.doctor.DamageReport`.  With
        ``repair=True`` every damage found is repaired from redundancy
        (idempotently, under the doctor's own journal) and the
        :class:`~repro.doctor.RepairReport` comes back with a
        verification re-scrub attached as ``verified``.
        """
        from repro.doctor import repair_corpus, scrub_corpus

        report = scrub_corpus(self.corpus_dir, deep=deep,
                              cache_dir=cache_dir)
        if not repair:
            return report
        outcome = repair_corpus(self.corpus_dir, report, deep=deep,
                                cache_dir=cache_dir)
        outcome.verified = scrub_corpus(self.corpus_dir, deep=deep,
                                        cache_dir=cache_dir)
        return outcome
