"""The repair engine: every damage class heals from redundancy, actions
are journaled and idempotent, and the repaired corpus converges to the
same fingerprint an undamaged run produces."""

import json

import pytest

from repro.doctor import (
    DOCTOR_JOURNAL_FILE,
    DOCTOR_QUARANTINE_DIR,
    repair_corpus,
    scrub_corpus,
)
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    committed_days,
    segment_entry,
)
from tests.doctor.conftest import corpus_fingerprint


def heal(corpus, **kwargs):
    outcome = repair_corpus(corpus, **kwargs)
    outcome.verified = scrub_corpus(corpus)
    return outcome


class TestConvergence:
    def test_multi_damage_heals_to_baseline_fingerprint(
            self, corpus, baseline_fingerprint):
        # four damage classes at once: torn journal tail, drifted
        # segment, garbled manifest, tmp orphan
        journal = corpus / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes() + b"{torn")
        seg = corpus / SEGMENT_DIR / "control-001.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)
        (corpus / "manifest.json").write_text("{torn")
        (corpus / ".tmp-orphan").write_text("x")

        assert not scrub_corpus(corpus).clean
        outcome = heal(corpus)
        assert outcome.ok
        assert outcome.verified.clean
        assert corpus_fingerprint(corpus) == baseline_fingerprint

    def test_regenerate_deduplicates_into_one_action(self, corpus):
        for name in ("control-000.jsonl", "control-001.jsonl"):
            (corpus / SEGMENT_DIR / name).unlink()
        (corpus / "control.jsonl").write_text("drifted\n")
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        regens = [a for a in outcome.actions if a.plan == "regenerate"
                  and "superseded" not in a.detail]
        assert len(regens) == 1

    def test_repair_is_idempotent(self, corpus, baseline_fingerprint):
        seg = corpus / SEGMENT_DIR / "data-000.npz"
        seg.write_bytes(b"\x00" * seg.stat().st_size)
        first = heal(corpus)
        assert first.ok and first.verified.clean
        second = heal(corpus)
        assert second.ok and not second.actions
        assert corpus_fingerprint(corpus) == baseline_fingerprint

    def test_repair_of_clean_corpus_is_noop(self, corpus):
        before = corpus_fingerprint(corpus)
        outcome = heal(corpus)
        assert outcome.ok and not outcome.actions
        assert corpus_fingerprint(corpus) == before


class TestIndividualPlans:
    def test_truncate_journal_makes_tear_permanent(self, corpus):
        journal = corpus / JOURNAL_FILE
        intact = journal.read_bytes()
        journal.write_bytes(intact + b"{torn")
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert journal.read_bytes() == intact

    def test_remove_tmp(self, corpus):
        orphan = corpus / ".tmp-orphan"
        orphan.write_text("x")
        outcome = heal(corpus)
        assert outcome.ok and not orphan.exists()

    def test_discard_analysis_journal(self, corpus):
        from repro.doctor import ANALYSIS_JOURNAL_FILE

        path = corpus / ANALYSIS_JOURNAL_FILE
        path.write_text("not json\n")
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert not path.exists()

    def test_evict_cache_entry(self, corpus):
        entry_dir = corpus / ".cache" / "analysis"
        entry_dir.mkdir(parents=True)
        bad = entry_dir / "deadbeef.json"
        bad.write_text("{torn")
        outcome = heal(corpus)
        assert outcome.ok and not bad.exists()

    def test_discard_obs_snapshot(self, corpus):
        obs = corpus / ".obs"
        obs.mkdir()
        snap = obs / "snapshot.json"
        snap.write_text("{torn")
        outcome = heal(corpus)
        assert outcome.ok and not snap.exists()

    def test_trim_events_keeps_parseable_lines(self, corpus):
        obs = corpus / ".obs"
        obs.mkdir()
        events = obs / "events.jsonl"
        events.write_text('{"event": "a"}\n{torn\n{"event": "b"}\n')
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        kept = [json.loads(line) for line in
                events.read_text().splitlines()]
        assert kept == [{"event": "a"}, {"event": "b"}]

    def test_reset_tap_offset(self, corpus, tmp_path):
        source = tmp_path / "feed.ris"
        source.write_text("short\n")
        taps = corpus / ".taps"
        taps.mkdir()
        sidecar = taps / "feed.offset.json"
        sidecar.write_text(json.dumps(
            {"offset": 10_000, "source": str(source)}))
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert json.loads(sidecar.read_text())["offset"] == 0

    def test_garbled_offset_without_source_is_unlinked(self, corpus):
        taps = corpus / ".taps"
        taps.mkdir()
        sidecar = taps / "feed.offset.json"
        sidecar.write_text("{torn")
        outcome = heal(corpus)
        assert outcome.ok and not sidecar.exists()

    def test_discard_garbled_stream_checkpoint(self, corpus):
        path = corpus / ".stream.checkpoint.json"
        path.write_text("{torn")
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert not path.exists()

    def test_rebuild_stream_checkpoint_by_replay(self, corpus):
        from repro import Study

        Study.open(corpus).stream()
        path = corpus / ".stream.checkpoint.json"
        pristine = json.loads(path.read_text())
        tampered = json.loads(path.read_text())
        tampered["consumed"][0]["control_sha256"] = "00" * 32
        path.write_text(json.dumps(tampered))
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert json.loads(path.read_text()) == pristine

    def test_unrecoverable_artifacts_are_quarantined(self, corpus):
        # break the generation-parameter trust chain, then damage a
        # segment: no redundancy remains, so the doctor quarantines the
        # evidence instead of silently deleting it
        meta = json.loads((corpus / "platform.json").read_text())
        meta["seed"] = 999
        (corpus / "platform.json").write_text(json.dumps(meta))
        seg = corpus / SEGMENT_DIR / "control-000.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)
        outcome = repair_corpus(corpus)
        quarantine = corpus / DOCTOR_QUARANTINE_DIR
        assert quarantine.is_dir() and any(quarantine.iterdir())
        assert not seg.exists()
        # quarantine preserves evidence but restores nothing — the
        # report must refuse to call that a successful repair
        assert outcome.unrecoverable and not outcome.ok


class TestTapSegments:
    @staticmethod
    def tap_corpus(tmp_path):
        """A two-day tap corpus: control segments from one feed, empty
        data segments."""
        from repro.taps import TapConfig, TapSession, write_feed
        from tests.taps.conftest import FakeClock, make_messages

        feed = write_feed(tmp_path / "a.ris", make_messages(days=2), "ris")
        session = TapSession.open(
            tmp_path / "corpus", [f"ris:{feed}"],
            config=TapConfig(stall_timeout=1.0), clock=FakeClock())
        assert session.pump(final=True).days_committed == 2
        return tmp_path / "corpus"

    @pytest.mark.parametrize("writer", ["segment-writer", "savez"])
    def test_lost_data_segment_is_resliced(self, tmp_path, writer):
        """A lost empty data segment is rebuilt in the encoding the
        journal vouches for, so no committed day is dropped."""
        import numpy as np

        from repro.dataplane.packet import PACKET_DTYPE

        corpus = self.tap_corpus(tmp_path)
        seg_dir = corpus / SEGMENT_DIR
        if writer == "savez":
            # the data segments of a tap corpus from an older writer
            journal = CheckpointJournal.load(corpus / JOURNAL_FILE)
            for day in range(2):
                np.savez_compressed(seg_dir / f"data-{day:03d}.npz",
                                    packets=np.zeros(0, dtype=PACKET_DTYPE))
                journal.commit(_segment_key("data", day),
                               **segment_entry(seg_dir, "data", day))
        assert scrub_corpus(corpus).clean
        lost = seg_dir / "data-001.npz"
        original = lost.read_bytes()
        lost.unlink()

        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean
        assert [a.plan for a in outcome.actions] == ["repair-tap-segments"]
        assert lost.read_bytes() == original
        journal = CheckpointJournal.load(corpus / JOURNAL_FILE)
        assert len(committed_days(journal)) == 2


class TestRepairJournal:
    def test_actions_are_journaled(self, corpus):
        (corpus / ".tmp-orphan").write_text("x")
        heal(corpus)
        journal = (corpus / DOCTOR_JOURNAL_FILE).read_text()
        records = [json.loads(line) for line in journal.splitlines()]
        assert records[0]["command"] == "doctor"
        assert any(r.get("key", "").startswith("remove-tmp:")
                   for r in records)

    def test_damaged_doctor_journal_self_heals_first(self, corpus):
        (corpus / DOCTOR_JOURNAL_FILE).write_text("not json\n")
        (corpus / ".tmp-orphan").write_text("x")
        outcome = heal(corpus)
        assert outcome.ok and outcome.verified.clean


class TestFacade:
    def test_study_doctor_scrub_only(self, corpus):
        from repro import Study
        from repro.doctor import DamageReport

        report = Study.open(corpus).doctor()
        assert isinstance(report, DamageReport) and report.clean

    def test_study_doctor_repair(self, corpus, baseline_fingerprint):
        from repro import Study
        from repro.doctor import RepairReport

        (corpus / "manifest.json").write_text("{torn")
        outcome = Study.open(corpus).doctor(repair=True)
        assert isinstance(outcome, RepairReport)
        assert outcome.ok and outcome.verified.clean
        assert corpus_fingerprint(corpus) == baseline_fingerprint
