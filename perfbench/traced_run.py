"""The traced run: one repetition of a workload, in process, under spans.

Each step calls the public entry point of the layer it exercises —
``checkpointed_generate``, the corpus loaders, the pipeline factory the
CLI uses, ``run_all``, ``advance_corpus``, the streaming engine,
``validate_corpus``, ``scrub_corpus`` — inside a span the benchmark owns
(``bench.<step>`` around the step, ``bench.<layer>.<entry>`` around each
call).  A ``repro.telemetry`` context is active for the whole run, so the
spans the program emits itself nest under the benchmark's.  Layer
modules are imported inside the steps that call them, and the pipeline
factory falls back from ``repro.columnar.engine.build_pipeline`` to
``AnalysisPipeline``, so deleting the columnar layer leaves the traced
run working.
"""

from __future__ import annotations

import shutil
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from metrics_catalog import INTERMEDIATES, SPAN_METRICS

STEP_PREFIX = "bench."


@dataclass
class TracedSteps:
    """Spans and results of one traced repetition."""

    telem: object
    #: top-level step name -> wall seconds
    steps: Dict[str, float] = field(default_factory=dict)
    #: step name -> outcome digests / flags the checks need
    results: Dict[str, dict] = field(default_factory=dict)
    #: per-layer counts read off the entry points' return values
    counts: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def step(self, name: str):
        """A top-level step span; its wall time lands in :attr:`steps`."""
        with self.telem.span(STEP_PREFIX + name) as span:
            yield span
        self.steps[name] = span.seconds

    def entry(self, name: str):
        """A span around one call into a layer's entry point."""
        return self.telem.span(STEP_PREFIX + name)

    @property
    def records(self) -> List[dict]:
        return [r for r in self.telem.tracer.records if r["type"] == "span"]


def _pipeline_factory():
    """``(layer, factory)`` the way the CLI builds its pipeline."""
    try:
        from repro.columnar.engine import build_pipeline
    except ImportError:
        from repro import AnalysisPipeline

        def build(control, data, peers, corpus_dir, **kwargs):
            return AnalysisPipeline(control, data, peers, **kwargs)

        return "core", build

    def build(control, data, peers, corpus_dir, **kwargs):
        return build_pipeline(control, data, peers, engine="auto",
                              corpus_dir=corpus_dir, **kwargs)

    return "columnar", build


def _study_outcomes(report) -> dict:
    """Digest/status/cached maps of a StudyReport's outcomes."""
    return {
        "status": {o.name: o.status.value for o in report.outcomes},
        "digest": {o.name: o.value_digest for o in report.outcomes},
        "cached": sum(1 for o in report.outcomes if o.cached),
    }


def traced_generate(run: TracedSteps, step: str, corpus: Path, *,
                    scale: float, days: float, seed: int,
                    keep_segments: bool) -> None:
    from repro import telemetry
    from repro.runtime.generate import checkpointed_generate
    from repro.scenario import ScenarioConfig

    shutil.rmtree(corpus, ignore_errors=True)
    with run.step(step):
        config = ScenarioConfig.paper(scale=scale, duration_days=days,
                                      seed=seed)
        manifest = telemetry.run_manifest("generate", seed=seed,
                                          config=config)
        with run.entry("runtime.generate"):
            checkpointed_generate(
                config, corpus, run=manifest, keep_segments=keep_segments,
                extra_meta={"scale": scale, "duration_days": days,
                            "seed": seed})


def traced_analyze(run: TracedSteps, step: str, corpus: Path, *,
                   host_min_days: int, jobs: int = 1) -> None:
    """One ``analyze``; ``jobs > 1`` takes the pool path with the
    corpus-local result cache, exactly as the CLI does."""
    from repro import ControlPlaneCorpus, DataPlaneCorpus, telemetry
    from repro.corpus.ingest import ErrorPolicy
    from repro.corpus.manifest import CONTROL_FILE, DATA_FILE
    from repro.corpus.platform import load_platform

    with run.step(step):
        policy = ErrorPolicy.SKIP
        config_hash = telemetry.run_manifest(
            "analyze", corpus=str(corpus), policy=policy.value,
            config={"policy": policy.value,
                    "host_min_days": host_min_days})["config_hash"]
        cache = digest = None
        if jobs != 1:
            with run.entry("parallel.digest"):
                from repro.parallel.cache import ResultCache, corpus_digest

                digest = corpus_digest(corpus)
                cache = ResultCache.for_corpus(corpus)
        with run.entry("corpus.load"):
            control = ControlPlaneCorpus.load_jsonl(corpus / CONTROL_FILE,
                                                    on_error=policy)
            data = DataPlaneCorpus.load_npz(corpus / DATA_FILE,
                                            on_error=policy)
            peers, rs_asn, peeringdb = load_platform(corpus)
        layer, factory = _pipeline_factory()
        with run.entry(f"{layer}.pipeline"):
            pipeline = factory(control, data, peers, corpus,
                               peeringdb=peeringdb, route_server_asn=rs_asn,
                               host_min_days=host_min_days)
        if jobs == 1:
            for attr in INTERMEDIATES:
                with run.entry(f"core.{attr}"):
                    getattr(pipeline, attr)
            run.counts["core.event_count"] = len(pipeline.events)
            with run.entry("core.run_all"):
                report = pipeline.run_all(strict=False,
                                          config_hash=config_hash)
        else:
            with run.entry("parallel.run_all"):
                report = pipeline.run_all(strict=False, jobs=jobs,
                                          cache=cache, corpus_digest=digest,
                                          config_hash=config_hash)
    run.results[step] = _study_outcomes(report)


def traced_validate(run: TracedSteps, corpus: Path) -> None:
    from repro.corpus.manifest import validate_corpus

    with run.step("validate"):
        with run.entry("corpus.validate"):
            report = validate_corpus(corpus)
    run.results["validate"] = {"ok": report.ok}


def traced_doctor(run: TracedSteps, corpus: Path) -> None:
    from repro.doctor import scrub_corpus

    with run.step("doctor"):
        with run.entry("doctor.scrub"):
            report = scrub_corpus(corpus, deep=True)
    run.results["doctor"] = {"clean": report.clean}
    run.counts["doctor.damage_count"] = len(report.damages)


def traced_advance(run: TracedSteps, corpus: Path) -> None:
    from repro.streaming import advance_corpus

    with run.step("advance"):
        with run.entry("streaming.advance"):
            advance_corpus(corpus, 1)


def traced_watch(run: TracedSteps, step: str, corpus: Path, *,
                 host_min_days: int, analyses) -> None:
    """``watch --once`` as the CLI runs it: corpus-local cache, the
    operations plane attached, one final tick, then the report."""
    from repro.corpus.ingest import ErrorPolicy
    from repro.obs import ObsPlane, SLORules
    from repro.parallel.cache import ResultCache
    from repro.streaming import StreamEngine

    with run.step(step):
        with run.entry("streaming.watch"):
            engine = StreamEngine.open(
                corpus, policy=ErrorPolicy.SKIP, host_min_days=host_min_days,
                cache=ResultCache.for_corpus(corpus), scrub_every=60)
            plane = ObsPlane(corpus, rules=SLORules(), command="watch")
            engine.attach_obs(plane)
            try:
                engine.tick(final=True)
                report = engine.report(list(analyses))
            finally:
                plane.close()
    run.results[step] = _study_outcomes(report.study)
    run.counts["streaming.segments_consumed"] = report.segments_consumed


# -- span accounting -----------------------------------------------------


def self_times(records: List[dict]) -> Dict[int, float]:
    """span id -> its duration minus the time its children cover."""
    child_seconds: Dict[int, float] = defaultdict(float)
    for record in records:
        if record["parent_id"] is not None:
            child_seconds[record["parent_id"]] += record["seconds"]
    return {r["span_id"]: r["seconds"] - child_seconds[r["span_id"]]
            for r in records}


def span_table(records: List[dict]) -> Dict[str, dict]:
    """Per span name: count, inclusive seconds and self seconds."""
    own = self_times(records)
    table: Dict[str, dict] = {}
    for record in records:
        row = table.setdefault(record["name"],
                               {"count": 0, "seconds": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["seconds"] += record["seconds"]
        row["self_s"] += own[record["span_id"]]
    return table


def step_of(records: List[dict]) -> Dict[int, str]:
    """span id -> the top-level benchmark step it ran under."""
    by_id = {r["span_id"]: r for r in records}
    steps: Dict[int, str] = {}
    for record in records:
        root = record
        while root["parent_id"] is not None and root["parent_id"] in by_id:
            root = by_id[root["parent_id"]]
        steps[record["span_id"]] = root["name"][len(STEP_PREFIX):]
    return steps


def layer_metrics(run: TracedSteps) -> Dict[str, float]:
    """Per-layer metrics derived from the spans and counts of ``run``."""
    records = run.records
    table = span_table(records)
    metrics: Dict[str, float] = {}
    for metric, names in SPAN_METRICS.items():
        rows = [table[name] for name in names if name in table]
        if rows:
            metrics[metric] = sum(row["self_s"] for row in rows)

    def attr_sum(span: str, attr: str) -> Optional[int]:
        values = [r["attrs"].get(attr) for r in records
                  if r["name"] == span]
        values = [v for v in values if isinstance(v, (int, float))]
        return sum(values) if values else None

    for metric, span, attr in (
            ("scenario.updates", "generate.routes", "updates"),
            ("scenario.packets", "generate.sampling", "packets"),
            ("corpus.records_control", "ingest.control", "records"),
            ("corpus.records_data", "ingest.data", "records")):
        value = attr_sum(span, attr)
        if value is not None:
            metrics[metric] = value
    if "checkpoint.commit" in table:
        metrics["runtime.commit_count"] = table["checkpoint.commit"]["count"]

    steps = step_of(records)
    for step, prefix in (("analyze_cached", "parallel."),
                         ("analyze_parallel", "parallel.cold_")):
        queued = [r["attrs"].get("queued") for r in records
                  if r["name"] == "analyze.parallel"
                  and steps[r["span_id"]] == step]
        if queued:
            metrics[prefix + "queued"] = sum(queued)
    cached = run.results.get("analyze_cached")
    if cached is not None and cached["status"]:
        metrics["parallel.cache_hit_ratio"] = \
            cached["cached"] / len(cached["status"])
    metrics.update(run.counts)
    return metrics


def attributed_seconds(records: List[dict]) -> float:
    """Self time of every span a per-layer metric accounts for."""
    mapped = {name for names in SPAN_METRICS.values() for name in names}
    table = span_table(records)
    return sum(row["self_s"] for name, row in table.items()
               if name in mapped)
