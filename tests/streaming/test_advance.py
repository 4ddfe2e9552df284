"""``repro advance``: incremental corpus extension through the commit
log, and the watcher's equivalence with batch across the extension."""

import json
import shutil

import pytest

from repro import AnalyzeOptions, Study
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE, MANIFEST_FILE
from repro.errors import StreamError
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    committed_days,
    finalize,
)
from repro.streaming import StreamEngine, advance_corpus

#: incremental analyses plus the two batch ones most sensitive to the
#: day-boundary fence — keeps the extended-corpus comparison affordable
CHECKED = ("fig3_load", "fig5_drop_by_length", "fig6_drop_cdfs",
           "table2_pre_classes", "fig19_use_cases")


def test_advance_rejects_bad_day_count(corpus):
    with pytest.raises(StreamError, match="cannot advance"):
        advance_corpus(corpus, 0)


def test_advance_requires_journal(corpus):
    (corpus / JOURNAL_FILE).unlink()
    with pytest.raises(StreamError, match="journal"):
        advance_corpus(corpus, 1)


def test_advance_requires_kept_segments(corpus):
    shutil.rmtree(corpus / SEGMENT_DIR)
    with pytest.raises(StreamError, match="keep-segments"):
        advance_corpus(corpus, 1)


def test_advance_extends_and_stream_matches_batch(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    assert engine.tick() == 3

    report = advance_corpus(corpus, 1)
    assert report.day_count == 4
    assert report.segments_written == 2
    assert Study.open(corpus).validate().ok

    # the same engine picks the new day up as journal tail growth
    assert engine.tick() == 1
    stream = engine.report(CHECKED)

    batch = Study.open(corpus).analyze(options=AnalyzeOptions(
        host_min_days=1, analyses=CHECKED))
    assert stream.fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}


def test_advance_over_savez_segments(corpus):
    """Kept data segments that ``np.savez_compressed`` wrote, as older
    versions did, are re-encoded into the extended corpus: it scrubs
    clean and the stream still matches batch."""
    import numpy as np

    from repro.doctor import scrub_corpus
    from repro.runtime.generate import _segment_key, segment_entry

    seg_dir = corpus / SEGMENT_DIR
    journal = CheckpointJournal.load(corpus / JOURNAL_FILE)
    days = len(committed_days(journal))
    for day in range(days):
        path = seg_dir / f"data-{day:03d}.npz"
        with np.load(path) as archive:
            packets = archive["packets"]
        np.savez_compressed(path, packets=packets)
        journal.commit(_segment_key("data", day),
                       **segment_entry(seg_dir, "data", day))
    with np.load(corpus / DATA_FILE) as archive:
        before = archive["packets"]

    report = advance_corpus(corpus, 1)
    assert report.day_count == days + 1
    assert scrub_corpus(corpus).clean
    with np.load(corpus / DATA_FILE) as archive:
        after = archive["packets"]
    assert after[:len(before)].tobytes() == before.tobytes()
    assert len(after) == report.data_packets > len(before)

    engine = StreamEngine.open(corpus, host_min_days=1)
    assert engine.tick() == days + 1
    batch = Study.open(corpus).analyze(options=AnalyzeOptions(
        host_min_days=1, analyses=CHECKED))
    assert engine.report(CHECKED).fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}


def test_advance_resume_completes_torn_finalize(corpus):
    """A re-run after a crash between the segment commits and finalize
    resumes the interrupted extension instead of stacking days on it."""
    from repro.corpus.manifest import file_sha256

    first = advance_corpus(corpus, 1)
    assert first.day_count == 4
    shas = {name: file_sha256(corpus / name)
            for name in (CONTROL_FILE, DATA_FILE)}

    # simulate the torn state: segments journaled, finalize not yet
    # reflected in the platform sidecar
    meta_path = corpus / "platform.json"
    meta = json.loads(meta_path.read_text())
    meta["duration_days"] = 3
    meta_path.write_text(json.dumps(meta))

    resumed = advance_corpus(corpus, 1)
    assert resumed.day_count == 4
    assert resumed.segments_written == 0
    for name, sha in shas.items():
        assert file_sha256(corpus / name) == sha
    assert Study.open(corpus).validate().ok


def test_crash_inside_finalize_leaves_platform_behind(corpus, monkeypatch):
    """``finalize`` writes ``platform.json`` only after ``data.npz``, so
    a crash while it packs the data plane leaves the finalized duration
    behind the journal and the re-run finishes the same extension."""
    import repro.runtime.generate as generate

    real_writer = generate.atomic_writer

    def dying_writer(path, *args, **kwargs):
        if path.name == DATA_FILE:
            raise OSError("simulated crash while packing data.npz")
        return real_writer(path, *args, **kwargs)

    monkeypatch.setattr(generate, "atomic_writer", dying_writer)
    with pytest.raises(OSError, match="simulated crash"):
        advance_corpus(corpus, 1)
    monkeypatch.undo()
    meta = json.loads((corpus / "platform.json").read_text())
    assert meta["duration_days"] == 3

    resumed = advance_corpus(corpus, 1)
    assert resumed.day_count == 4
    assert resumed.segments_written == 0
    assert Study.open(corpus).validate().ok


def _published(corpus):
    manifest = json.loads((corpus / MANIFEST_FILE).read_text())
    return ((corpus / CONTROL_FILE).read_bytes(),
            (corpus / DATA_FILE).read_bytes(),
            manifest["files"], manifest["counts"])


@pytest.mark.parametrize("advance_days", [0, 1])
def test_finalize_reproduces_the_published_corpus(corpus, advance_days):
    """``finalize`` over the committed segments rebuilds exactly the
    corpus files and manifest that ``generate`` (and ``advance``)
    published."""
    if advance_days:
        advance_corpus(corpus, advance_days)
    before = _published(corpus)
    journal = CheckpointJournal.load(corpus / JOURNAL_FILE)
    sampling_rate = json.loads(
        (corpus / "platform.json").read_text())["sampling_rate"]
    days = len(committed_days(journal))
    assert days == 3 + advance_days
    counts = finalize(corpus, journal, days, sampling_rate=sampling_rate)
    assert _published(corpus) == before
    assert counts == before[3]
