"""Every metric the benchmark can emit: name, unit, and where it comes from.

End-to-end metrics are measured on the closed-loop CLI path with tracing
off.  Per-layer metrics come from the traced in-process run: most are the
*self time* of the spans listed in :data:`SPAN_METRICS` (a span's duration
minus the part its child spans cover), so summing them accounts for the
traced wall time.  Each per-layer metric belongs to the ``repro`` module
named by its prefix; when that module cannot be imported the metric is
reported as absent instead of failed (see :func:`layer_present`).

Only a subset is gated by ``BENCHMARK.json`` (:data:`GATED_END_TO_END`,
:data:`GATED_PER_LAYER`); the rest still land in the run record and the
printed tables.
"""

from __future__ import annotations

import importlib.util
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: the 16 registry analyses, in study order (mirrors repro.core.registry;
#: kept literal so a renamed analysis shows up as a catalog mismatch)
ANALYSES = (
    "fig2_time_offset", "fig3_load", "fig4_targeted_visibility",
    "fig5_drop_by_length", "fig6_drop_cdfs", "fig7_top_sources",
    "fig8_org_types", "fig10_merge_sweep", "table2_pre_classes",
    "sec54_protocol_mix", "table3_amplification", "fig14_filterable",
    "fig15_participation", "table4_host_types", "fig18_collateral",
    "fig19_use_cases",
)

#: the four shared intermediates the analyses draw on
INTERMEDIATES = ("events", "pre_classification", "event_traffic",
                 "host_study")

#: end-to-end metric -> (unit, definition); lower is better for all
END_TO_END = {
    "setup_s": ("s", "untimed preparation before the first timed step"),
    "generate_s": ("s", "wall time of `repro generate`"),
    "analyze_s": ("s", "`repro analyze` with default flags, no cache"),
    "analyze_parallel_s": ("s", "`analyze --jobs J` with an empty cache"),
    "analyze_cached_s": ("s", "`analyze --jobs J` with all 16 results cached"),
    "advance_s": ("s", "`repro advance --days 1`"),
    "watch_s": ("s", "`watch --once` consuming the advanced day"),
    "integrity_s": ("s", "`validate` + `doctor` on the final corpus"),
    "total_s": ("s", "sum of the timed steps"),
    "peak_rss_mb": ("MB", "highest per-command peak RSS"),
    "corpus_mb": ("MB", "on-disk bytes of the corpus directory at the end"),
    "error_rate": ("ratio", "failed operations / attempted operations"),
}

#: per-layer metric -> span names whose self time sums into it; spans
#: named ``bench.*`` are the benchmark's own, opened around each call
#: into a layer's public entry point
SPAN_METRICS = {
    "scenario.plan_s": ("generate.plan",),
    "scenario.members_s": ("generate.members",),
    "scenario.routes_s": ("generate.routes",),
    "scenario.traffic_s": ("generate.traffic",),
    "scenario.sampling_s": ("generate.sampling",),
    "scenario.observations_s": ("generate.observations",),
    "runtime.write_s": ("bench.runtime.generate", "generate.write",
                        "generate.segments", "generate.finalize"),
    "runtime.commit_s": ("checkpoint.commit",),
    "corpus.ingest_control_s": ("ingest.control",),
    "corpus.ingest_data_s": ("ingest.data",),
    "corpus.load_s": ("bench.corpus.load",),
    "corpus.validate_s": ("bench.corpus.validate",),
    "columnar.write_s": ("columnar.write", "columnar.encode"),
    "columnar.open_s": ("bench.columnar.pipeline",),
    "columnar.derive_s": ("columnar.derive",),
    "core.pipeline_s": ("bench.core.pipeline",),
    **{f"core.{name}_s": (f"bench.core.{name}",) for name in INTERMEDIATES},
    "core.run_all_s": ("bench.core.run_all",),
    **{f"core.{name}_s": (f"analyze.{name}",) for name in ANALYSES},
    "parallel.digest_s": ("bench.parallel.digest",),
    "parallel.warm_s": ("analyze.warm_caches",),
    "parallel.pool_s": ("bench.parallel.run_all", "analyze.parallel"),
    "streaming.advance_scenario_s": ("advance.scenario",),
    "streaming.advance_segments_s": ("advance.segments",),
    "streaming.advance_finalize_s": ("bench.streaming.advance",
                                     "advance.finalize"),
    "streaming.open_s": ("bench.streaming.watch",),
    "streaming.tick_s": ("stream.tick",),
    "streaming.report_s": ("stream.report",),
    "doctor.scrub_s": ("bench.doctor.scrub", "doctor.scrub"),
}

#: per-layer metrics that are not span self times: name -> (unit, source)
OTHER_PER_LAYER = {
    "cli.import_s": ("s", "fresh `import repro.cli` in a new interpreter"),
    "scenario.updates": ("count", "route-server updates replayed"),
    "scenario.packets": ("count", "sampled packets produced"),
    "runtime.commit_count": ("count", "checkpoint journal commits"),
    "corpus.records_control": ("count", "control records ingested"),
    "corpus.records_data": ("count", "data records ingested"),
    "corpus.control_mb": ("MB", "control.jsonl bytes"),
    "corpus.data_mb": ("MB", "data.npz bytes"),
    "corpus.segments_mb": ("MB", ".segments/ bytes"),
    "corpus.columnar_mb": ("MB", ".columnar/ sidecar bytes"),
    "corpus.cache_mb": ("MB", ".cache/ result-cache bytes"),
    "core.event_count": ("count", "Δ-merged RTBH events"),
    "parallel.queued": ("count", "analyses the all-hit cached run queued"),
    "parallel.cache_hit_ratio": ("ratio", "cache hits / lookups, cached run"),
    "parallel.cold_queued": ("count", "analyses queued by the cold pool run"),
    "streaming.segments_consumed": ("count", "day segments consumed"),
    "doctor.damage_count": ("count", "damages the scrub reported"),
    "telemetry.overhead_s": ("s", "traced total minus untraced total"),
    "trace.wall_s": ("s", "wall time of the traced in-process steps"),
    "trace.unattributed_s": ("s", "traced wall time outside mapped spans"),
}

#: CLI steps whose per-command peak RSS is reported as ``rss.<step>_mb``
RSS_STEPS = ("generate", "analyze", "analyze_parallel", "analyze_cached",
             "advance", "watch", "validate", "doctor")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit."""
    units = {name: "s" for name in SPAN_METRICS}
    units.update({name: unit for name, (unit, _) in OTHER_PER_LAYER.items()})
    units.update({f"rss.{step}_mb": "MB" for step in RSS_STEPS})
    return units


def end_to_end_units() -> dict:
    return {name: unit for name, (unit, _) in END_TO_END.items()}


#: gated in BENCHMARK.json: produced by every workload, never zero, and
#: steady across seeds.  Single commands (generate_s, analyze_s,
#: integrity_s) swing by 15-30% from run to run on a shared 2-CPU box,
#: so only their sum is gated; they stay in the table and the record.
GATED_END_TO_END = ("setup_s", "total_s", "peak_rss_mb", "corpus_mb")

#: gated in BENCHMARK.json: produced by every workload's traced run, from
#: layers the roadmap keeps (columnar and the result cache may go)
GATED_PER_LAYER = (
    "cli.import_s",
    "scenario.plan_s", "scenario.routes_s", "scenario.traffic_s",
    "scenario.sampling_s", "scenario.updates", "scenario.packets",
    "runtime.write_s", "runtime.commit_count", "runtime.commit_s",
    "corpus.ingest_control_s", "corpus.ingest_data_s",
    "corpus.records_control", "corpus.records_data", "corpus.validate_s",
    "corpus.control_mb", "corpus.data_mb",
    *(f"core.{name}_s" for name in INTERMEDIATES),
    "core.event_count",
    *(f"core.{name}_s" for name in ANALYSES),
    "doctor.scrub_s", "doctor.damage_count",
    "rss.generate_mb", "rss.analyze_mb", "rss.validate_mb", "rss.doctor_mb",
    "telemetry.overhead_s",
)


#: layers that are not ``repro`` modules and so are always present
_NON_MODULE_LAYERS = ("rss", "telemetry", "trace")


def metric_present(metric: str) -> bool:
    """False for a per-layer metric (``<layer>.<name>``) whose
    ``repro.<layer>`` module is gone."""
    return "." not in metric or layer_present(metric.split(".", 1)[0])


def layer_present(layer: str) -> bool:
    """Whether ``repro.<layer>`` can be imported (deleted layers cannot)."""
    if layer in _NON_MODULE_LAYERS:
        return True
    try:
        return importlib.util.find_spec(f"repro.{layer}") is not None
    except (ImportError, ValueError):
        return False
