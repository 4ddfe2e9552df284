"""Tests for the checkpoint journal: durable commits, reload semantics,
torn-tail tolerance, and header guards against cross-run resume."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.runtime.checkpoint import CheckpointJournal, scan_journal_file
from repro.runtime.generate import FINALIZE_KEY, committed_days, finalize

HEADER = {"command": "generate", "seed": 7, "config_hash": "abc123"}


@pytest.fixture
def journal(tmp_path):
    j = CheckpointJournal(tmp_path / "journal.jsonl")
    j.start(HEADER)
    return j


class TestCommitRoundtrip:
    def test_commit_then_reload(self, journal):
        journal.commit("segment:control:000", sha256="aa", bytes=10)
        journal.commit("segment:data:000", sha256="bb", bytes=20)
        reloaded = CheckpointJournal.load(journal.path)
        assert reloaded.header["seed"] == 7
        assert len(reloaded) == 2
        assert reloaded.committed("segment:control:000")["sha256"] == "aa"
        assert reloaded.committed("segment:data:000")["bytes"] == 20
        assert reloaded.committed("never-committed") is None

    def test_keys_in_insertion_order(self, journal):
        for key in ("a", "b", "c"):
            journal.commit(key)
        assert list(CheckpointJournal.load(journal.path).keys()) == ["a", "b", "c"]

    def test_start_truncates_previous_run(self, journal):
        journal.commit("stale-step")
        journal.start({"command": "generate", "seed": 8})
        reloaded = CheckpointJournal.load(journal.path)
        assert len(reloaded) == 0
        assert reloaded.header["seed"] == 8

    def test_missing_file_loads_empty(self, tmp_path):
        j = CheckpointJournal.load(tmp_path / "absent.jsonl")
        assert j.header is None and len(j) == 0


class TestCrashTolerance:
    def test_torn_trailing_line_is_dropped(self, journal):
        journal.commit("done:1")
        journal.commit("done:2")
        # simulate a crash mid-append: a partial JSON line at the tail
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "step", "key": "torn:3", "sha2')
        reloaded = CheckpointJournal.load(journal.path)
        assert reloaded.committed("done:1") is not None
        assert reloaded.committed("done:2") is not None
        assert reloaded.committed("torn:3") is None

    def test_everything_after_torn_line_is_ignored(self, journal):
        journal.commit("done:1")
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("garbage not json\n")
            fh.write('{"type": "step", "key": "after-garbage"}\n')
        reloaded = CheckpointJournal.load(journal.path)
        assert reloaded.committed("done:1") is not None
        assert reloaded.committed("after-garbage") is None

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CheckpointError, match="corrupt journal header"):
            CheckpointJournal.load(path)

    def test_undecodable_line_is_a_torn_tail(self, journal):
        journal.commit("done:1")
        journal.commit("done:2")
        blob = bytearray(journal.path.read_bytes())
        second_step = blob.rindex(b"done:2")
        blob[second_step] ^= 0xFF  # 'd' -> 0x9b, not valid UTF-8
        journal.path.write_bytes(bytes(blob))
        reloaded = CheckpointJournal.load(journal.path)
        assert reloaded.committed("done:1") is not None
        assert reloaded.committed("done:2") is None

    def test_commits_after_a_tear_survive_reload(self, journal):
        journal.commit("done:1")
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "step", "key": "torn:2", "sha2')
        resumed = CheckpointJournal.load(journal.path)
        resumed.commit("after:2")
        resumed.commit("after:3")
        reloaded = CheckpointJournal.load(journal.path)
        assert list(reloaded.keys()) == ["done:1", "after:2", "after:3"]
        assert b"torn:2" not in journal.path.read_bytes()

    def test_unterminated_parseable_line_is_dropped_then_truncated(
            self, journal):
        journal.commit("done:1")
        intact = journal.path.read_bytes()
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "step", "key": "unterminated:2"}')
        loaded = CheckpointJournal.load(journal.path)
        assert loaded.committed("unterminated:2") is None
        # loading alone never writes
        assert journal.path.read_bytes().endswith(b'"unterminated:2"}')
        loaded.commit("next:2")
        assert journal.path.read_bytes().startswith(intact)
        assert b"unterminated:2" not in journal.path.read_bytes()
        assert list(CheckpointJournal.load(journal.path).keys()) == [
            "done:1", "next:2"]

    def test_undecodable_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"type": "header", "seed": \xff}\n')
        with pytest.raises(CheckpointError, match="corrupt journal header"):
            CheckpointJournal.load(path)


class TestHeaderGuard:
    def test_matching_header_passes(self, journal):
        CheckpointJournal.load(journal.path).require_header(HEADER)

    def test_mismatched_value_refuses_resume(self, journal):
        reloaded = CheckpointJournal.load(journal.path)
        with pytest.raises(CheckpointError, match="different run"):
            reloaded.require_header({**HEADER, "seed": 8})

    def test_no_header_refuses_resume(self, tmp_path):
        j = CheckpointJournal.load(tmp_path / "absent.jsonl")
        with pytest.raises(CheckpointError, match="nothing to resume"):
            j.require_header(HEADER)


class TestCommittedDays:
    @pytest.mark.parametrize("missing", ["control", "data"])
    def test_stops_at_first_day_missing_a_plane(self, journal, missing):
        for day in range(3):
            for plane in ("control", "data"):
                if not (day == 1 and plane == missing):
                    journal.commit(f"segment:{plane}:{day:03d}",
                                   sha256=f"{plane}{day}")
        journal.commit(FINALIZE_KEY)
        days = committed_days(journal)
        assert [(c["sha256"], d["sha256"]) for c, d in days] == [
            ("control0", "data0")]
        assert committed_days(CheckpointJournal.load(journal.path)) == days
        assert committed_days(scan_journal_file(journal.path).steps) == days

    def test_empty_log_has_no_days(self, journal):
        assert committed_days(journal) == []

    def test_finalize_of_zero_days_publishes_an_empty_corpus(self, tmp_path,
                                                             journal):
        counts = finalize(tmp_path, journal, 0, sampling_rate=10_000)
        assert counts == {"control_messages": 0, "data_packets": 0}
        assert (tmp_path / "control.jsonl").read_bytes() == b""
        with np.load(tmp_path / "data.npz") as archive:
            assert len(archive["packets"]) == 0
        assert CheckpointJournal.load(journal.path).committed(
            FINALIZE_KEY)["data_packets"] == 0


def test_resume_over_a_torn_journal_matches_a_clean_run(tmp_path):
    """A journal torn inside its first data-segment commit, with the
    manifest gone: ``generate --resume`` truncates the tear before it
    appends, so every commit it makes is reachable and the journal ends
    byte-identical to an uninterrupted run's."""
    from repro.doctor import scrub_corpus
    from repro.runtime.generate import JOURNAL_FILE, checkpointed_generate
    from repro.scenario.config import ScenarioConfig

    config = ScenarioConfig.paper(scale=0.005, duration_days=3, seed=3)
    clean, torn = tmp_path / "clean", tmp_path / "torn"
    for out in (clean, torn):
        checkpointed_generate(config, out, keep_segments=True)
    path = torn / JOURNAL_FILE
    lines = path.read_bytes().split(b"\n")
    assert b"segment:data:000" in lines[4]
    path.write_bytes(b"\n".join(lines[:4]) + b"\n" + lines[4][:20])
    (torn / "manifest.json").unlink()

    checkpointed_generate(config, torn, resume=True, keep_segments=True)

    journal = CheckpointJournal.load(path)
    assert len(journal) == 7
    assert len(committed_days(journal)) == 3
    assert scrub_corpus(torn).clean
    assert path.read_bytes() == (clean / JOURNAL_FILE).read_bytes()
