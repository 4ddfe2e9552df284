"""Tracing spans: nesting, error capture, JSONL round trips, run manifests,
and the activate()/current() context plumbing."""

import json

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.scenario import ScenarioConfig
from repro.telemetry import NULL, NullTelemetry, Telemetry, activate, current
from repro.telemetry.manifest import config_hash, run_manifest
from repro.telemetry.report import load_trace, render_report
from repro.telemetry.trace import Tracer


class TestTracer:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.records[1], tracer.records[0]
        assert outer["name"] == "outer" and inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["parent_id"] is None

    def test_span_times_and_attrs(self):
        tracer = Tracer()
        with tracer.span("stage", flows=7) as sp:
            sp.attrs["extra"] = "yes"
        record = tracer.records[0]
        assert record["seconds"] >= 0.0
        assert record["attrs"] == {"flows": 7, "extra": "yes"}

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.records[0]["error"] == "ValueError"

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["a"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["b"]["parent_id"] == by_name["root"]["span_id"]


class TestTelemetryContext:
    def test_default_is_null(self):
        assert current() is NULL
        assert not current().enabled

    def test_activate_restores_previous(self):
        telem = Telemetry()
        with activate(telem):
            assert current() is telem
        assert current() is NULL

    def test_activate_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with activate(Telemetry()):
                raise RuntimeError
        assert current() is NULL

    def test_null_span_records_nothing(self):
        with NULL.span("anything", k="v") as sp:
            sp.attrs["more"] = 1
        assert NULL.tracer.records == []
        assert isinstance(NULL, NullTelemetry)

    def test_progress_callback_gets_stage_lines(self):
        lines = []
        telem = Telemetry(progress=lines.append)
        with telem.span("generate.traffic", flows=9):
            pass
        assert len(lines) == 1
        assert "generate.traffic" in lines[0] and "flows=9" in lines[0]


class TestRunManifest:
    def test_fields(self):
        m = run_manifest("generate", seed=7)
        assert m["type"] == "manifest"
        assert m["command"] == "generate"
        assert m["seed"] == 7
        assert m["wall_seconds"] is None
        assert m["repro_version"]

    def test_config_hash_stable_and_sensitive(self):
        a = ScenarioConfig.paper(scale=0.01, duration_days=7)
        b = ScenarioConfig.paper(scale=0.01, duration_days=7)
        c = ScenarioConfig.paper(scale=0.02, duration_days=7)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert config_hash(None) is None


class TestTraceFileRoundTrip:
    def test_write_then_load(self, tmp_path):
        telem = Telemetry()
        with telem.span("outer"):
            with telem.span("inner"):
                pass
        telem.counter("ingest.records", plane="control", outcome="ok").inc(3)
        manifest = run_manifest("analyze", seed=1)
        manifest["wall_seconds"] = 1.5
        path = telem.write_trace(tmp_path / "t.jsonl", manifest=manifest)
        trace = load_trace(path)
        assert trace.manifest["command"] == "analyze"
        assert trace.span_names() == ["inner", "outer"]
        assert trace.metrics["counters"][
            "ingest.records{outcome=ok,plane=control}"] == 3

    def test_render_report_mentions_spans_and_counters(self, tmp_path):
        telem = Telemetry()
        with telem.span("analyze.fig3_load"):
            pass
        telem.counter("sampler.packets_sampled").inc(10)
        path = telem.write_trace(tmp_path / "t.jsonl",
                                 manifest=run_manifest("analyze"))
        text = render_report(load_trace(path))
        assert "analyze.fig3_load" in text
        assert "sampler.packets_sampled" in text
        assert "command=analyze" in text

    def test_write_metrics_json(self, tmp_path):
        telem = Telemetry()
        telem.counter("x").inc(2)
        path = telem.write_metrics(tmp_path / "m.json",
                                   manifest=run_manifest("generate", seed=3))
        payload = json.loads(path.read_text())
        assert payload["manifest"]["seed"] == 3
        assert payload["metrics"]["counters"]["x"] == 2


class TestLoadTraceErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot read"):
            load_trace(tmp_path / "nope.jsonl")

    def test_non_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": "a", "seconds": 1}\n{oops\n')
        with pytest.raises(TelemetryError, match="bad trace record"):
            load_trace(path)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TelemetryError, match="not an object"):
            load_trace(path)

    def test_span_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        with pytest.raises(TelemetryError, match="missing name/seconds"):
            load_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(TelemetryError, match="no span or metrics"):
            load_trace(path)

    def test_unknown_record_types_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"type": "future-thing", "x": 1}\n'
            '{"type": "span", "name": "a", "seconds": 0.5}\n')
        trace = load_trace(path)
        assert trace.span_names() == ["a"]


class TestInstrumentationIntegration:
    def test_run_all_emits_all_analysis_spans(self):
        from repro import AnalysisPipeline
        from repro.core.pipeline import ANALYSIS_NAMES
        from repro.scenario import run_scenario

        config = ScenarioConfig.paper(scale=0.004, duration_days=3, seed=5)
        telem = Telemetry()
        with activate(telem):
            result = run_scenario(config)
            pipeline = AnalysisPipeline(
                result.control, result.data,
                peer_asns=result.ixp.member_asns,
                peeringdb=result.ixp.peeringdb, host_min_days=2)
            report = pipeline.run_all(strict=False)
        names = {r["name"] for r in telem.tracer.records}
        for analysis in ANALYSIS_NAMES:
            assert f"analyze.{analysis}" in names
        assert "generate.traffic" in names
        assert "generate.routes" in names
        routes = next(r for r in telem.tracer.records
                      if r["name"] == "generate.routes")["attrs"]
        # replay work next to its duration: refreshes run no policy
        assert 0 < routes["refreshes"] < routes["updates"]
        assert 0 < routes["policy_decisions"]
        snap = telem.metrics_snapshot()
        assert snap["counters"]["sampler.packets_sampled"] > 0
        assert snap["counters"]["route_server.updates{action=announce}"] > 0
        # the study report carries the snapshot when telemetry is on
        assert report.telemetry is not None
        assert report.telemetry["counters"]["pipeline.analyses{status=ok}"] \
            == len(ANALYSIS_NAMES)

    def test_finalize_spans_count_segments_and_rows(self, tmp_path):
        from repro.runtime.generate import checkpointed_generate
        from repro.streaming.advance import advance_corpus

        config = ScenarioConfig.paper(scale=0.004, duration_days=3, seed=5)
        corpus = tmp_path / "corpus"
        telem = Telemetry()
        with activate(telem):
            generated = checkpointed_generate(
                config, corpus, keep_segments=True,
                extra_meta={"scale": 0.004, "duration_days": 3, "seed": 5})
            advanced = advance_corpus(corpus, 1)
        attrs = {r["name"]: r["attrs"] for r in telem.tracer.records}
        # two segments (control and data) per day, every packet row once;
        # every data segment's compressed rows are spliced, none deflated
        # a second time
        assert attrs["generate.finalize"] == {
            "segments": 6, "rows": generated.data_packets,
            "spliced": 3, "reencoded": 0}
        assert attrs["advance.finalize"] == {
            "segments": 8, "rows": advanced.data_packets,
            "spliced": 4, "reencoded": 0}
        assert 0 < generated.data_packets < advanced.data_packets

    def test_run_all_without_telemetry_attaches_none(self):
        from repro import AnalysisPipeline
        from repro.scenario import run_scenario

        config = ScenarioConfig.paper(scale=0.004, duration_days=3, seed=5)
        result = run_scenario(config)
        pipeline = AnalysisPipeline(
            result.control, result.data,
            peer_asns=result.ixp.member_asns,
            peeringdb=result.ixp.peeringdb, host_min_days=2)
        report = pipeline.run_all(strict=False)
        assert report.telemetry is None
        assert telemetry.current() is NULL
