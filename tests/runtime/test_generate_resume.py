"""Tests for checkpointed corpus generation: a run interrupted at any
commit point must resume to a byte-identical corpus, and the journal must
refuse to resume a different configuration."""

import json

import pytest

from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    META_FILE,
    file_sha256,
)
from repro.errors import CheckpointError
from repro.runtime import checkpoint as checkpoint_mod
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    FINALIZE_KEY,
    JOURNAL_FILE,
    SEGMENT_DIR,
    checkpointed_generate,
    verify_resumable,
)
from repro.scenario.config import ScenarioConfig

CONFIG = ScenarioConfig.paper(scale=0.004, duration_days=3.0, seed=3)

CORPUS_FILES = (CONTROL_FILE, DATA_FILE, META_FILE)


class Interrupted(Exception):
    """Stands in for SIGKILL in in-process crash simulations."""


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """An uninterrupted run: the bytes every resumed run must reproduce."""
    out = tmp_path_factory.mktemp("baseline") / "corpus"
    report = checkpointed_generate(CONFIG, out)
    assert report.segments_written == report.segments_total == 6  # 2 planes x 3 days
    return out


def corpus_bytes(out):
    return {name: (out / name).read_bytes() for name in CORPUS_FILES}


def manifest_files(out):
    return json.loads((out / MANIFEST_FILE).read_text())["files"]


def crash_at(monkeypatch, key, *, after_commit):
    """Arrange for ``journal.commit(key)`` to die before or after the
    entry is made durable — the two sides of a mid-run kill."""
    original = checkpoint_mod.CheckpointJournal.commit

    def dying_commit(self, commit_key, **payload):
        if commit_key == key and not after_commit:
            raise Interrupted(key)
        entry = original(self, commit_key, **payload)
        if commit_key == key:
            raise Interrupted(key)
        return entry

    monkeypatch.setattr(checkpoint_mod.CheckpointJournal, "commit",
                        dying_commit)


class TestResumeByteIdentity:
    @pytest.mark.parametrize("key,after_commit", [
        ("segment:control:000", False),  # segment written, commit lost
        ("segment:data:001", True),      # died right after the fsync
        ("finalize", False),             # all segments done, no finalize
    ])
    def test_interrupted_run_resumes_identically(self, tmp_path, monkeypatch,
                                                 baseline, key, after_commit):
        out = tmp_path / "corpus"
        crash_at(monkeypatch, key, after_commit=after_commit)
        with pytest.raises(Interrupted):
            checkpointed_generate(CONFIG, out)
        monkeypatch.undo()

        report = checkpointed_generate(CONFIG, out, resume=True)
        assert report.resumed and not report.already_complete
        assert report.segments_skipped >= (1 if after_commit else 0)
        assert corpus_bytes(out) == corpus_bytes(baseline)
        assert manifest_files(out) == manifest_files(baseline)

    def test_resume_tolerates_torn_journal_tail(self, tmp_path, monkeypatch,
                                                baseline):
        out = tmp_path / "corpus"
        crash_at(monkeypatch, "segment:data:000", after_commit=True)
        with pytest.raises(Interrupted):
            checkpointed_generate(CONFIG, out)
        monkeypatch.undo()
        with open(out / JOURNAL_FILE, "a", encoding="utf-8") as fh:
            fh.write('{"type": "step", "key": "segment:data:001", "sha')
        checkpointed_generate(CONFIG, out, resume=True)
        assert corpus_bytes(out) == corpus_bytes(baseline)

    def test_scratch_state_is_cleaned_up(self, baseline):
        assert not (baseline / SEGMENT_DIR).exists()
        assert not any(p.name.startswith(".tmp-")
                       for p in baseline.iterdir())

    def test_runtime_internals_stay_out_of_manifest(self, baseline):
        assert (baseline / JOURNAL_FILE).exists()
        assert JOURNAL_FILE not in manifest_files(baseline)
        assert set(manifest_files(baseline)) == set(CORPUS_FILES)

    def test_finalize_entry_checksums_the_corpus_files(self, baseline):
        """The ``finalize`` commit takes its checksums from the manifest
        finalize just wrote; they must be the files' own SHA-256."""
        finalized = CheckpointJournal.load(
            baseline / JOURNAL_FILE).committed(FINALIZE_KEY)
        assert finalized["control_sha256"] == file_sha256(
            baseline / CONTROL_FILE)
        assert finalized["data_sha256"] == file_sha256(baseline / DATA_FILE)
        files = manifest_files(baseline)
        assert finalized["control_sha256"] == files[CONTROL_FILE]["sha256"]
        assert finalized["data_sha256"] == files[DATA_FILE]["sha256"]


class TestResumeGuards:
    def test_completed_run_resumes_as_noop(self, tmp_path):
        out = tmp_path / "corpus"
        checkpointed_generate(CONFIG, out)
        before = corpus_bytes(out)
        report = checkpointed_generate(CONFIG, out, resume=True)
        assert report.already_complete
        assert "already complete" in report.format()
        assert corpus_bytes(out) == before

    def test_resume_refuses_different_config(self, tmp_path):
        out = tmp_path / "corpus"
        checkpointed_generate(CONFIG, out)
        other = ScenarioConfig.paper(scale=0.004, duration_days=3.0, seed=4)
        with pytest.raises(CheckpointError, match="different run"):
            checkpointed_generate(other, out, resume=True)

    def test_verify_resumable_requires_journal(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            verify_resumable(tmp_path, CONFIG)

    def test_fresh_run_overwrites_foreign_journal(self, tmp_path):
        out = tmp_path / "corpus"
        other = ScenarioConfig.paper(scale=0.004, duration_days=3.0, seed=4)
        checkpointed_generate(other, out)
        # without --resume a new run must not care about the old journal
        report = checkpointed_generate(CONFIG, out)
        assert not report.resumed
        verify_resumable(out, CONFIG)
