"""End-to-end analysis pipeline.

:class:`AnalysisPipeline` strings every per-figure analysis together with
shared caching: events are extracted once, each event's packets are
gathered once (one index array over the corpus's destination order), and
the per-event traffic, the per-AS source table, the protocol mix, the
pre-RTBH classification and the host study are computed once; every
figure/table draws on those, and none recomputes another.
Consumes only the two corpora (plus the membership list and the PeeringDB
registry for the joins) — never scenario ground truth.

:meth:`AnalysisPipeline.open` turns a corpus directory into a pipeline
for ``analyze`` (the CLI and ``Study.analyze``): it checks the corpus
files and reads ``platform.json``.  The planes are ``cached_property``
slots read on first access, which the runner skips when every analysis
is an ``ok`` cache hit; ``analyze`` keys the cache only on plane files
that match the manifest (:meth:`AnalysisPipeline.planes_intact`, DESIGN
§9.2).  The constructor fills both slots with corpora already in hand.

The shared intermediates are ``cached_property`` slots too, so a caller
that maintains one elsewhere injects it instead: ``repro watch`` puts its
reducers' per-event traffic and pre-RTBH classification there (its RTBH
fold is already the control corpus's ``rtbh_fold``) and then runs the
same :meth:`AnalysisPipeline.run_all`.

Analyses are addressed by name through the registry
(:data:`repro.core.registry.ANALYSES`)::

    pipeline.run("fig10_merge_sweep")
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Union

from repro.core import classify as classify_mod
from repro.core import collateral as collateral_mod
from repro.core import droprate as droprate_mod
from repro.core import events as events_mod
from repro.core import filtering as filtering_mod
from repro.core import hosts as hosts_mod
from repro.core import load as load_mod
from repro.core import offset as offset_mod
from repro.core import pre_rtbh as pre_mod
from repro.core import protocols as protocols_mod
from repro.core import visibility as visibility_mod
from repro.core.events import DEFAULT_DELTA, RTBHEvent, merge_threshold_sweep
from repro.core.registry import ANALYSES, get_analysis
from repro.core.study import StudyReport
from repro.corpus.control import ControlPlaneCorpus
from repro.corpus.data import DataPlaneCorpus, WindowRows
from repro.corpus.ingest import ErrorPolicy, check_policy
from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    read_manifest,
    require_corpus_files,
    verify_file,
)
from repro.corpus.platform import load_platform
from repro.errors import CorpusError, IngestError
from repro.ixp.peeringdb import PeeringDB
from repro.runtime.supervisor import ingest_warnings, run_analyses

#: every analysis `run_all` executes, in study order; names are registry
#: names (see :data:`repro.core.registry.ANALYSES`) so reports stay
#: greppable against the paper
ANALYSIS_NAMES = tuple(spec.name for spec in ANALYSES)

#: the pipeline's ``cached_property`` intermediates, in dependency order;
#: the forked runner warms exactly these before it forks
SHARED_INTERMEDIATES = ("events", "pre_classification", "event_rows",
                        "event_traffic", "source_table", "protocol_mix",
                        "host_study")


class AnalysisPipeline:
    """Lazy, cached access to every analysis of the study."""

    def __init__(
        self,
        control: ControlPlaneCorpus,
        data: DataPlaneCorpus,
        peer_asns: Sequence[int],
        peeringdb: PeeringDB | None = None,
        route_server_asn: int = 64_500,
        delta: float = DEFAULT_DELTA,
        host_min_days: int = 20,
    ):
        self.control = control  # fills the lazily read plane slots
        self.data = data
        self.corpus_dir = self.policy = None
        self.peer_asns = list(peer_asns)
        self.peeringdb = peeringdb or PeeringDB()
        self.route_server_asn = route_server_asn
        self.delta = delta
        self.host_min_days = host_min_days

    @classmethod
    def open(cls, corpus_dir: Union[str, Path], *,
             policy: Union[str, ErrorPolicy] = ErrorPolicy.SKIP,
             host_min_days: int = 20) -> "AnalysisPipeline":
        """The pipeline over a corpus directory, its planes read under
        ``policy`` on first access.  Raises
        :class:`~repro.errors.MissingCorpusFileError` for a missing corpus
        file and :class:`~repro.errors.IngestError` for an unreadable one
        (``platform.json`` now, a plane on first access)."""
        path = require_corpus_files(corpus_dir)
        peers, rs_asn, peeringdb = load_platform(path)
        pipeline = cls(None, None, peers, peeringdb=peeringdb,
                       route_server_asn=rs_asn, host_min_days=host_min_days)
        del pipeline.control, pipeline.data  # empty slots: read on access
        pipeline.corpus_dir, pipeline.policy = path, check_policy(policy)
        return pipeline

    @cached_property
    def control(self) -> ControlPlaneCorpus:
        """The control plane; an opened pipeline reads it on first access."""
        return self._ingest(ControlPlaneCorpus.load_jsonl, CONTROL_FILE)

    @cached_property
    def data(self) -> DataPlaneCorpus:
        """The data plane; an opened pipeline reads it on first access."""
        return self._ingest(DataPlaneCorpus.load_npz, DATA_FILE)

    def _ingest(self, load, name: str):
        path = self.corpus_dir / name
        try:
            return load(path, on_error=self.policy)
        except IngestError:
            raise
        except CorpusError as exc:  # a strict refusal, a malformed store
            raise IngestError(f"{path}: {exc}") from exc

    def planes_intact(self) -> bool:
        """Whether this is an opened pipeline whose two plane files match
        the size and SHA-256 its manifest records: the condition under
        which the manifest's digest may key the result cache."""
        if self.corpus_dir is None:
            return False
        try:
            files = read_manifest(self.corpus_dir)["files"]
        except (OSError, ValueError):
            return False
        return all(isinstance(files.get(name), dict)
                   and verify_file(self.corpus_dir / name, files[name]) is None
                   for name in (CONTROL_FILE, DATA_FILE))

    # -- shared intermediates ---------------------------------------------------

    @cached_property
    def events(self) -> List[RTBHEvent]:
        """Δ-merged RTBH events (§5.1), from the control corpus's RTBH
        fold (§18)."""
        return self.control.rtbh_fold.events(self.delta)

    @cached_property
    def event_rows(self) -> WindowRows:
        """Every event's announced-window rows, gathered once (§14)."""
        return events_mod.event_rows(self.data, self.events)

    @cached_property
    def pre_classification(self) -> pre_mod.PreRTBHClassification:
        """Pre-RTBH traffic classification (§5.2–5.3)."""
        return pre_mod.classify_pre_rtbh_events(
            self.data, self.events,
            rows=pre_mod.pre_window_rows(self.data, self.events))

    @cached_property
    def event_traffic(self) -> List[droprate_mod.EventTraffic]:
        """Per-event during-blackhole traffic totals."""
        return droprate_mod.event_traffic(self.events, self.event_rows)

    @cached_property
    def source_table(self) -> droprate_mod.SourceTable:
        """Per-AS traffic towards /32 blackholes (Figs 7–8)."""
        return droprate_mod.source_table(self.events, self.event_rows)

    @cached_property
    def protocol_mix(self) -> protocols_mod.EventProtocolMix:
        """The §5.4 per-event protocol mix (§5.4, Table 3)."""
        return protocols_mod.event_protocol_mix(
            self.events, self.event_rows, self.pre_classification)

    @cached_property
    def host_study(self) -> hosts_mod.HostStudy:
        """Figs 16–17 / Table 4 host profiling."""
        return hosts_mod.classify_hosts(self.control, self.data, self.events,
                                        min_days=self.host_min_days)

    # -- named execution --------------------------------------------------------

    def run(self, name: str, /, **kwargs):
        """Run one analysis by its registry name.

        ``kwargs`` are forwarded to the analysis (e.g. ``top_n`` for
        ``fig7_top_sources``).  Unknown names raise
        :class:`~repro.errors.AnalysisError`.
        """
        return self.analysis_fn(name)(**kwargs)

    def analysis_fn(self, name: str) -> Callable:
        """The bound zero-argument callable for a registry name.

        The accessor the analysis runner uses.
        """
        return getattr(self, "_impl_" + get_analysis(name).name)

    # -- figures & tables -------------------------------------------------------

    def _impl_fig2_time_offset(self) -> "offset_mod.OffsetEstimate":
        return offset_mod.time_offset_analysis(self.control, self.data)

    def _impl_fig3_load(self) -> load_mod.RTBHLoadSeries:
        return self.control.rtbh_fold.load_series()

    def _impl_fig4_targeted_visibility(
            self, sample_interval: float = 3_600.0,
    ) -> visibility_mod.TargetedVisibilitySeries:
        return visibility_mod.targeted_visibility(
            self.control, self.peer_asns, self.route_server_asn,
            sample_interval=sample_interval,
        )

    def _impl_fig5_drop_by_length(self) -> droprate_mod.PrefixLengthDropRates:
        return droprate_mod.aggregate_drop_rates(self.event_traffic)

    def _impl_fig6_drop_cdfs(self, lengths=(24, 32)):
        return droprate_mod.drop_cdfs_from_traffic(self.event_traffic,
                                                   lengths=lengths)

    def _impl_fig7_top_sources(self, top_n: int = 100,
                               ) -> List[droprate_mod.SourceReaction]:
        return droprate_mod.top_source_reactions(self.source_table, top_n)

    def _impl_fig8_org_types(self, top_n: int = 100):
        return droprate_mod.top_source_org_types(
            droprate_mod.top_source_reactions(self.source_table, top_n),
            self.peeringdb)

    def _impl_fig10_merge_sweep(self, deltas=None):
        return merge_threshold_sweep(self.control, deltas)

    def _impl_table2_pre_classes(self) -> Dict[pre_mod.PreRTBHClass, float]:
        return self.pre_classification.class_shares()

    def _impl_sec54_protocol_mix(self) -> protocols_mod.EventProtocolMix:
        return self.protocol_mix

    def _impl_table3_amplification(self) -> Dict[int, float]:
        return protocols_mod.amplification_protocol_table(self.protocol_mix)

    def _impl_fig14_filterable(self):
        return filtering_mod.filterable_share_cdf(
            self.events, self.event_rows, self.pre_classification)

    def _impl_fig15_participation(self) -> filtering_mod.ASParticipation:
        return filtering_mod.as_participation(
            self.events, self.event_rows, self.pre_classification)

    def _impl_table4_host_types(self):
        return self.host_study.org_type_table(self.peeringdb)

    def _impl_fig18_collateral(self) -> collateral_mod.CollateralDamage:
        return collateral_mod.collateral_damage(
            self.events, self.event_rows, self.host_study)

    def _impl_fig19_use_cases(self) -> classify_mod.UseCaseClassification:
        # On short corpora the absolute month-scale squatting threshold is
        # unreachable; scale it down to a large fraction of the span.
        span_days = (self.control.end_time - self.control.start_time) / 86_400.0
        return classify_mod.classify_events(
            self.events, self.pre_classification, self.event_traffic,
            corpus_end=self.control.end_time,
            squatting_min_days=min(14.0, 0.5 * span_days),
            zombie_min_days=min(7.0, 0.3 * span_days),
        )

    # -- degraded-mode execution ------------------------------------------------

    @property
    def degraded_inputs(self) -> bool:
        """Whether either corpus lost records during (lenient) ingestion."""
        return bool(ingest_warnings(self))

    def warm_shared_caches(self) -> None:
        """Precompute the :data:`SHARED_INTERMEDIATES`.

        The analysis runner calls this in the parent before forking the
        per-analysis children, so every child inherits the caches via
        copy-on-write instead of recomputing them.  Typed failures are
        swallowed — the affected analyses will surface them individually.
        """
        from repro.errors import ReproError

        for attr in SHARED_INTERMEDIATES:
            try:
                getattr(self, attr)
            except ReproError:
                pass

    def run_all(self, strict: bool = True,
                analyses: Sequence[str] | None = None,
                supervisor=None, jobs: int = 1,
                cache=None, corpus_digest=None,
                config_hash=None) -> StudyReport:
        """Run every analysis of the study and report per-figure status.

        ``strict=True`` re-raises the first typed
        :class:`~repro.errors.ReproError`; ``strict=False`` captures typed
        failures per analysis so one rotten figure cannot take down the
        other fifteen.  Analyses that succeed on lossy inputs (lenient
        ingestion dropped records) are marked ``degraded`` rather than
        ``ok``.  Untyped exceptions always propagate — they are bugs, not
        data problems.

        A single call to :func:`~repro.runtime.supervisor.run_analyses`;
        see there for the modes.  Without a ``supervisor``
        (:class:`~repro.runtime.supervisor.SupervisorPolicy`) and with
        ``jobs=1`` — the reference path — analyses run in process.  A
        ``supervisor`` forks each analysis into a child under a
        wall-clock timeout with bounded retries, so a hung, killed or
        crashing analysis becomes a ``failed`` outcome; ``jobs > 1`` (0 =
        all CPUs) keeps up to ``jobs`` such children in flight.
        ``cache`` (a :class:`~repro.parallel.cache.ResultCache`, with the
        corpus digest and config hash to key on) skips analyses whose
        results are already cached for this exact corpus + config and
        stores the rest as they finish, so a killed run that is run
        again re-executes only unfinished analyses.
        """
        return run_analyses(self, analyses=analyses, jobs=jobs,
                            policy=supervisor, strict=strict, cache=cache,
                            corpus_digest=corpus_digest,
                            config_hash=config_hash)
