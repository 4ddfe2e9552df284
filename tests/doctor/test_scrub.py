"""The scrub pass: every artifact kind's damage is detected, typed, and
carries the repair plan the engine dispatches on — and scrubbing never
mutates the corpus it examines."""

import json

import pytest

from repro.doctor import (
    DOCTOR_JOURNAL_FILE,
    scrub_corpus,
)
from repro.doctor.scrub import generation_params, scan_journal_file
from repro.errors import DoctorError
from repro.runtime.generate import JOURNAL_FILE, SEGMENT_DIR


def damages_by_kind(report, kind):
    return [d for d in report.damages if d.kind == kind]


class TestCleanCorpus:
    def test_pristine_corpus_scrubs_clean(self, corpus):
        report = scrub_corpus(corpus)
        assert report.clean
        assert report.deep
        assert "CLEAN" in report.format()

    def test_quick_scrub_clean(self, corpus):
        report = scrub_corpus(corpus, deep=False)
        assert report.clean and not report.deep

    def test_scrub_never_mutates(self, corpus):
        before = sorted((p.name, p.stat().st_size)
                        for p in corpus.rglob("*") if p.is_file())
        (corpus / JOURNAL_FILE).write_bytes(b"garbage\n")
        scrub_corpus(corpus)
        after = sorted((p.name, p.stat().st_size)
                       for p in corpus.rglob("*") if p.is_file())
        assert before != after  # the damage itself
        assert (corpus / JOURNAL_FILE).read_bytes() == b"garbage\n"

    def test_non_corpus_dir_raises(self, tmp_path):
        with pytest.raises(DoctorError, match="not a corpus"):
            scrub_corpus(tmp_path)
        with pytest.raises(DoctorError, match="not a directory"):
            scrub_corpus(tmp_path / "nope")


class TestJournalScrub:
    def test_torn_tail_detected_at_byte_offset(self, corpus):
        path = corpus / JOURNAL_FILE
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"type": "step", "key": "trunc')
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "journal")
        assert damage.damage == "torn-tail"
        assert damage.plan == "truncate-journal"
        assert damage.context["offset"] == len(intact)

    def test_bad_header_plans_regenerate(self, corpus):
        path = corpus / JOURNAL_FILE
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([b"not json"] + lines[1:]))
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "journal")
        assert damage.damage == "bad-header"
        assert damage.plan == "regenerate"
        assert damage.context["resume"] is False

    def test_derived_journal_discardable(self, corpus):
        (corpus / DOCTOR_JOURNAL_FILE).write_text("not json\n")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "journal")
        assert damage.artifact == DOCTOR_JOURNAL_FILE
        assert damage.plan == "discard-journal"
        assert damage.severity == "warning"

    def test_scan_reports_exact_truncation_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = b'{"type": "header"}\n{"type": "step", "key": "a"}\n'
        path.write_bytes(good + b"{torn")
        scan = scan_journal_file(path)
        assert scan.torn_offset == len(good)
        assert not scan.header_bad
        assert "a" in scan.steps


class TestSegmentScrub:
    def test_checksum_drift_plans_regenerate(self, corpus):
        seg = corpus / SEGMENT_DIR / "control-001.jsonl"
        data = seg.read_bytes()
        seg.write_bytes(b"X" * len(data))  # same size, different bytes
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "segment")
        assert damage.damage == "checksum-drift"
        assert damage.plan == "regenerate"
        assert damage.context["day"] == 1

    def test_quick_scrub_misses_same_size_drift(self, corpus):
        seg = corpus / SEGMENT_DIR / "control-001.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)
        assert scrub_corpus(corpus, deep=False).clean

    def test_missing_segment(self, corpus):
        (corpus / SEGMENT_DIR / "data-002.npz").unlink()
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "segment")
        assert damage.damage == "missing"

    def test_untrusted_params_quarantine_not_regenerate(self, corpus):
        # tampering with platform.json's generation parameters must not
        # drive a "repair" that regenerates a different corpus
        meta = json.loads((corpus / "platform.json").read_text())
        meta["seed"] = 999
        (corpus / "platform.json").write_text(json.dumps(meta))
        (corpus / SEGMENT_DIR / "control-000.jsonl").unlink()
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "segment")
        assert damage.plan == "quarantine"

    def test_generation_params_cross_checked(self, corpus):
        scan = scan_journal_file(corpus / JOURNAL_FILE)
        params = generation_params(corpus, scan.header)
        assert params == {"scale": 0.01, "duration_days": 3.0, "seed": 11}


class TestCorpusFileScrub:
    def test_garbled_manifest_rebuildable(self, corpus):
        (corpus / "manifest.json").write_text("{torn")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "manifest")
        assert damage.damage == "garbled"
        assert damage.plan == "rebuild-manifest"

    def test_missing_manifest_rebuildable(self, corpus):
        (corpus / "manifest.json").unlink()
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "manifest")
        assert damage.damage == "missing"
        assert damage.plan == "rebuild-manifest"

    def test_corpus_file_drift_detected(self, corpus):
        path = corpus / "control.jsonl"
        path.write_bytes(path.read_bytes()[:-10])
        report = scrub_corpus(corpus)
        damaged = damages_by_kind(report, "corpus-file")
        assert damaged and damaged[0].artifact == "control.jsonl"
        assert damaged[0].plan == "regenerate"

    def test_finalize_entry_is_second_witness(self, corpus):
        # with the manifest gone, the finalize journal entry's checksums
        # still convict a drifted corpus file
        (corpus / "manifest.json").unlink()
        path = corpus / "control.jsonl"
        path.write_bytes(path.read_bytes() + b"extra\n")
        report = scrub_corpus(corpus)
        drifted = damages_by_kind(report, "corpus-file")
        assert any(d.artifact == "control.jsonl"
                   and d.damage == "checksum-drift" for d in drifted)


class TestDerivedStateScrub:
    def test_garbled_stream_checkpoint(self, corpus):
        (corpus / ".stream.checkpoint.json").write_text("{torn")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "stream-checkpoint")
        assert damage.plan == "discard-stream-checkpoint"

    def test_fence_mismatch_plans_rebuild(self, corpus):
        from repro import Study

        Study.open(corpus).stream()
        path = corpus / ".stream.checkpoint.json"
        state = json.loads(path.read_text())
        state["consumed"][0]["control_sha256"] = "00" * 32
        path.write_text(json.dumps(state))
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "stream-checkpoint")
        assert damage.damage == "fence-mismatch"
        assert damage.plan == "rebuild-stream-checkpoint"
        assert "config" in damage.context

    def test_garbled_cache_entry(self, corpus):
        entry_dir = corpus / ".cache" / "analysis"
        entry_dir.mkdir(parents=True)
        (entry_dir / "deadbeef.json").write_text("{torn")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "cache-entry")
        assert damage.plan == "evict-cache-entry"

    def test_stale_cache_entry_digest_drift(self, corpus):
        entry_dir = corpus / ".cache" / "analysis"
        entry_dir.mkdir(parents=True)
        (entry_dir / "deadbeef.json").write_text(json.dumps(
            {"version": 1, "corpus_digest": "ff" * 32}))
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "cache-entry")
        assert damage.damage == "digest-drift"

    def test_garbled_obs_snapshot(self, corpus):
        obs = corpus / ".obs"
        obs.mkdir()
        (obs / "snapshot.json").write_text("{torn")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "obs-snapshot")
        assert damage.plan == "discard-obs-snapshot"
        assert damage.severity == "warning"

    def test_torn_event_lines(self, corpus):
        obs = corpus / ".obs"
        obs.mkdir()
        (obs / "events.jsonl").write_text(
            '{"event": "ok"}\n{"torn\n')
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "obs-events")
        assert damage.plan == "trim-events"
        assert "1 unparseable" in damage.detail

    def test_garbled_tap_offset(self, corpus):
        taps = corpus / ".taps"
        taps.mkdir()
        (taps / "feed.offset.json").write_text("{torn")
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "tap-offset")
        assert damage.plan == "reset-tap-offset"

    def test_offset_beyond_truncated_source(self, corpus, tmp_path):
        source = tmp_path / "feed.ris"
        source.write_text("short\n")
        taps = corpus / ".taps"
        taps.mkdir()
        (taps / "feed.offset.json").write_text(json.dumps(
            {"offset": 10_000, "source": str(source)}))
        report = scrub_corpus(corpus)
        (damage,) = damages_by_kind(report, "tap-offset")
        assert damage.damage == "beyond-source"

    def test_tmp_orphans(self, corpus):
        (corpus / ".tmp-orphan").write_text("half a write")
        (corpus / SEGMENT_DIR / ".tmp-seg").write_text("x")
        report = scrub_corpus(corpus)
        orphans = damages_by_kind(report, "tmp")
        assert len(orphans) == 2
        assert all(d.plan == "remove-tmp" for d in orphans)
