"""The ``Study`` facade: one object, five verbs, stable knobs."""

import dataclasses
import shutil

import pytest

from repro import (
    AnalyzeOptions,
    ErrorPolicy,
    GenerateOptions,
    StreamOptions,
    Study,
    StudyReport,
)
from repro.errors import CorpusError


def test_open_missing_directory_raises(tmp_path):
    with pytest.raises(CorpusError, match="missing"):
        Study.open(tmp_path / "nowhere")


def test_open_requires_all_corpus_files(tmp_path):
    (tmp_path / "control.jsonl").write_text("")
    with pytest.raises(CorpusError):
        Study.open(tmp_path)


def test_generate_returns_open_handle(stream_corpus):
    study = Study.open(stream_corpus)
    assert study.corpus_dir == stream_corpus
    assert (stream_corpus / "manifest.json").exists()
    assert (stream_corpus / ".segments").is_dir()


def test_analyze_runs_the_full_study(stream_corpus):
    report = Study.open(stream_corpus).analyze(
        options=AnalyzeOptions(host_min_days=1))
    assert isinstance(report, StudyReport)
    assert len(report.outcomes) == 16


def test_analyze_subset(stream_corpus):
    report = Study.open(stream_corpus).analyze(options=AnalyzeOptions(
        host_min_days=1, analyses=("fig3_load", "table2_pre_classes")))
    assert [o.name for o in report.outcomes] == [
        "fig3_load", "table2_pre_classes"]


def test_stream_matches_analyze_fingerprints(stream_corpus, tmp_path):
    # stream() checkpoints reducer state into the corpus — work on a
    # private copy so the shared fixture stays pristine
    target = tmp_path / "corpus"
    shutil.copytree(stream_corpus, target)
    study = Study.open(target)
    batch = study.analyze(options=AnalyzeOptions(host_min_days=1))
    stream = study.stream(options=StreamOptions(host_min_days=1))
    assert stream.fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}
    assert stream.watermark_days == 3


def test_validate_reports_ok(stream_corpus):
    report = Study.open(stream_corpus).validate()
    assert report.ok, report.format()


def test_options_are_keyword_only():
    with pytest.raises(TypeError):
        GenerateOptions(0.01)
    with pytest.raises(TypeError):
        AnalyzeOptions("strict")
    with pytest.raises(TypeError):
        StreamOptions("strict")


def test_options_are_frozen():
    options = AnalyzeOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.host_min_days = 5


def test_analyze_options_have_no_engine_knob():
    # one analysis engine: the retired engine choice is not an option
    with pytest.raises(TypeError, match="engine"):
        AnalyzeOptions(engine="records")


def test_options_accept_policy_enum_and_string(stream_corpus):
    study = Study.open(stream_corpus)
    by_enum = study.analyze(options=AnalyzeOptions(
        policy=ErrorPolicy.STRICT, host_min_days=1,
        analyses=("fig3_load",)))
    by_str = study.analyze(options=AnalyzeOptions(
        policy="strict", host_min_days=1, analyses=("fig3_load",)))
    assert by_enum.outcomes[0].value_digest == by_str.outcomes[0].value_digest
