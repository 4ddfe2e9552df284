"""StreamEngine: golden equivalence with batch, checkpointed resume,
cache modes, and guardrails against a corpus changing underfoot."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro import AnalyzeOptions, Study, telemetry
from repro.cli import EXIT_OK, main
from repro.core.study import AnalysisOutcome, AnalysisStatus
from repro.corpus.control import ControlReducer
from repro.corpus.manifest import validate_corpus
from repro.doctor import scrub_corpus
from repro.errors import StreamError
from repro.parallel.cache import ResultCache
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import JOURNAL_FILE, SEGMENT_DIR, committed_days
from repro.streaming import (
    STREAM_CHECKPOINT_FILE,
    StreamEngine,
    load_state,
)
from repro.streaming.reducers import PreRTBHReducer, TrafficReducer
from repro.streaming.state import ConsumedDay, stream_digest
from repro.streaming.report import (
    MODE_BATCH,
    MODE_CACHED,
    MODE_INCREMENTAL,
)

INCREMENTAL = {"fig3_load", "fig5_drop_by_length", "fig6_drop_cdfs",
               "table2_pre_classes", "fig19_use_cases"}


@pytest.fixture(scope="module")
def batch_fingerprints(stream_corpus):
    report = Study.open(stream_corpus).analyze(
        options=AnalyzeOptions(host_min_days=1))
    return {o.name: o.value_digest for o in report.outcomes}


def test_tick_consumes_all_committed_days(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    assert engine.tick() == 3
    assert engine.watermark_days == 3
    assert engine.tick() == 0


def test_report_modes_and_equivalence(corpus, batch_fingerprints):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    report = engine.report()
    assert report.fingerprints() == batch_fingerprints
    for name, mode in report.modes.items():
        expected = MODE_INCREMENTAL if name in INCREMENTAL else MODE_BATCH
        assert mode == expected, name


def test_cache_serves_second_report(corpus, batch_fingerprints):
    # incremental analyses go through the cache too: a warm report at
    # the same watermark serves every analysis from it
    cache = ResultCache.for_corpus(corpus)
    engine = StreamEngine.open(corpus, host_min_days=1, cache=cache)
    engine.tick()
    first = engine.report()
    second = engine.report()
    assert second.fingerprints() == batch_fingerprints
    assert set(second.modes.values()) == {MODE_CACHED}
    assert first.fingerprints() == second.fingerprints()


def test_checkpoint_resume_restores_watermark(corpus, batch_fingerprints):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    raw = json.loads((corpus / STREAM_CHECKPOINT_FILE).read_text())
    # the RTBH automaton is not persisted: resume re-folds the messages
    assert "control_state" not in raw

    resumed = StreamEngine.open(corpus, host_min_days=1)
    assert resumed.watermark_days == 3
    for attr in ("windows", "open_at", "origin_of", "rtbh_messages",
                 "message_count", "start_time", "end_time"):
        assert getattr(resumed._control, attr) == \
            getattr(engine._control, attr), attr
    assert resumed.tick() == 0
    assert resumed.report().fingerprints() == batch_fingerprints


def test_report_runs_the_rtbh_automaton_zero_times(corpus,
                                                   batch_fingerprints,
                                                   monkeypatch):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    feeds = []
    feed = ControlReducer.feed

    def counted(self, msg):
        feeds.append(msg)
        return feed(self, msg)

    monkeypatch.setattr(ControlReducer, "feed", counted)
    assert engine.report().fingerprints() == batch_fingerprints
    assert feeds == []


#: a ``control_state`` in the layout earlier watchers persisted (the RTBH
#: automaton's eight keys).  It describes none of the test corpus's
#: blackholes, so a watcher that read it would diverge from batch.
OLDER_CONTROL_STATE = {
    "active": [[200, "203.0.113.7/32"], [300, "198.51.100.0/24"]],
    "open_at": [[200, "203.0.113.7/32", 20.0],
                [300, "198.51.100.0/24", 90.0]],
    "windows": {"203.0.113.7/32": [[10.0, 70.5, 100]]},
    "origin_of": [["203.0.113.7/32", 100, 65001],
                  ["203.0.113.7/32", 200, 65002],
                  ["198.51.100.0/24", 300, 300]],
    "rtbh_times": [10.0, 20.0, 70.5, 90.0],
    "message_count": 5,
    "start_time": 10.0,
    "end_time": 90.0,
}


def test_older_checkpoint_with_control_state_resumes(corpus,
                                                    batch_fingerprints):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    raw = json.loads((corpus / STREAM_CHECKPOINT_FILE).read_text())
    # earlier watchers wrote control_state between the ledger and the
    # two data-plane states
    older = {key: raw[key] for key in ("version", "policy", "delta",
                                       "host_min_days", "consumed")}
    older["control_state"] = OLDER_CONTROL_STATE
    older["traffic_state"] = raw["traffic_state"]
    older["pre_state"] = raw["pre_state"]
    (corpus / STREAM_CHECKPOINT_FILE).write_text(json.dumps(older))

    resumed = StreamEngine.open(corpus, host_min_days=1)
    assert resumed.watermark_days == 3
    assert resumed.tick() == 0
    assert resumed.report().fingerprints() == batch_fingerprints
    assert validate_corpus(corpus).ok
    assert scrub_corpus(corpus).clean


def test_data_corpus_owns_its_packets(corpus, batch_fingerprints):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    data = engine._data_corpus()
    before = data.packets.copy()
    engine._chunks[0][:] = engine._chunks[-1][-1]
    assert np.array_equal(data.packets, before)
    assert engine.report().fingerprints() == batch_fingerprints


def test_fresh_ignores_checkpoint(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    fresh = StreamEngine.open(corpus, host_min_days=1, fresh=True)
    assert fresh.watermark_days == 0
    assert fresh.tick() == 3


def test_resume_refuses_config_mismatch(corpus):
    StreamEngine.open(corpus, host_min_days=1).tick()
    with pytest.raises(StreamError, match="config"):
        StreamEngine.open(corpus, host_min_days=2)


def test_resume_refuses_regenerated_corpus(corpus):
    StreamEngine.open(corpus, host_min_days=1).tick()
    state = load_state(corpus)
    state.consumed[0].control_sha256 = "0" * 64
    (corpus / STREAM_CHECKPOINT_FILE).write_text(
        json.dumps(state.to_json()))
    with pytest.raises(StreamError, match="regenerated"):
        StreamEngine.open(corpus, host_min_days=1)


def test_missing_segments_are_a_typed_error(corpus):
    shutil.rmtree(corpus / SEGMENT_DIR)
    engine = StreamEngine.open(corpus, host_min_days=1)
    with pytest.raises(StreamError, match="keep-segments"):
        engine.tick()


def test_missing_journal_is_a_typed_error(corpus):
    (corpus / JOURNAL_FILE).unlink()
    engine = StreamEngine.open(corpus, host_min_days=1)
    with pytest.raises(StreamError, match="journal"):
        engine.tick()


def test_watch_until_days(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    naps = []
    watermark = engine.watch(until_days=3, interval=0.01,
                             sleep=naps.append)
    assert watermark == 3
    assert naps == []  # everything was already committed


def test_stream_digest_is_the_two_plane_ledger_key():
    # the (control, data) key earlier watchers wrote for two-plane
    # analyses, so their cache entries keep hitting
    ledger = [ConsumedDay(0, "a" * 64, "b" * 64),
              ConsumedDay(1, "c" * 64, "d" * 64)]
    assert stream_digest(ledger) == (
        "stream:92021b159d4ec0192e5e71bdfc1d5ce59ef1a2e1d94613de0dd0387e5cc"
        "0338f")
    assert stream_digest([]) == "stream:" + hashlib.sha256().hexdigest()


def test_control_only_entries_of_older_watchers_audit_as_stream(corpus):
    # earlier watchers keyed Figs 4 and 10 by the control plane alone
    h = hashlib.sha256()
    days = committed_days(CheckpointJournal.load(corpus / JOURNAL_FILE))
    for day, (control, _) in enumerate(days):
        h.update(f"control:{day}:{control['sha256']}\n".encode("utf-8"))
    ResultCache.for_corpus(corpus).put(
        "stream:" + h.hexdigest(), "7dea753ec805",
        AnalysisOutcome(name="fig10_merge_sweep", status=AnalysisStatus.OK,
                        value=None, value_digest="0" * 16))
    assert validate_corpus(corpus).ok
    assert scrub_corpus(corpus).clean


def test_cached_report_serializes_no_reducer(corpus, batch_fingerprints,
                                             monkeypatch):
    engine = StreamEngine.open(corpus, host_min_days=1,
                               cache=ResultCache.for_corpus(corpus))
    engine.tick()
    engine.report()

    def refuse(self):
        raise AssertionError("report serialized a reducer")

    for reducer in (TrafficReducer, PreRTBHReducer):
        monkeypatch.setattr(reducer, "to_state", refuse)
    cached = engine.report()
    assert set(cached.modes.values()) == {MODE_CACHED}
    assert cached.fingerprints() == batch_fingerprints
    # the config hash earlier watchers keyed their entries on
    assert telemetry.config_hash(engine._config()) == "7dea753ec805"


def test_watch_trace_splits_report_by_analysis(corpus, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    names = ["fig3_load", "fig4_targeted_visibility", "fig19_use_cases"]
    rc = main(["watch", str(corpus), "--once", "--host-min-days", "1",
               "--analyses", ",".join(names), "--trace", str(trace), "-q"])
    assert rc == EXIT_OK
    capsys.readouterr()
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    spans = [r for r in spans if r["type"] == "span"]
    (report,) = [r for r in spans if r["name"] == "stream.report"]
    analyses = [r for r in spans if r["name"].startswith("analyze.")]
    assert sorted(r["name"] for r in analyses) == sorted(
        f"analyze.{name}" for name in names)
    assert all(r["parent_id"] == report["span_id"] for r in analyses)


def test_incremental_report_builds_no_destination_order(
        corpus, batch_fingerprints, monkeypatch):
    # the watch path gathers through the reducers' window_packets: it
    # must never pay for the batch pipeline's destination order
    from repro.corpus.data import DataPlaneCorpus

    built = []
    real = DataPlaneCorpus.window_rows
    monkeypatch.setattr(DataPlaneCorpus, "window_rows",
                        lambda self, *a: built.append("rows") or real(self, *a))
    monkeypatch.setattr(DataPlaneCorpus, "dst_order",
                        property(lambda self: built.append("order")))
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    report = engine.report(sorted(INCREMENTAL))
    assert built == []
    assert report.fingerprints() == {
        name: batch_fingerprints[name] for name in INCREMENTAL}
