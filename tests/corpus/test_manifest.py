"""Manifest + validate_corpus: checksums, counts, gaps, and exit semantics."""

import json
import shutil

import numpy as np
import pytest

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.corpus import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    META_FILE,
    ControlPlaneCorpus,
    DataPlaneCorpus,
    validate_corpus,
    write_manifest,
)
from repro.dataplane.packet import packets_from_arrays
from repro.faults import files as fault_files
from repro.net import IPv4Address, IPv4Prefix

PREFIX = IPv4Prefix("203.0.113.9/32")
NH = IPv4Address("192.0.2.1")


def _write_corpus(path, n=200, step=30.0):
    msgs = []
    for i in range(n // 2):
        t = step * 2 * i
        msgs.append(announce(t, 100, PREFIX, NH,
                             communities=frozenset({BLACKHOLE})))
        msgs.append(withdraw(t + step, 100, PREFIX))
    control = ControlPlaneCorpus(msgs)
    control.save_jsonl(path / CONTROL_FILE)
    rng = np.random.default_rng(4)
    data = DataPlaneCorpus(packets_from_arrays({
        "time": np.sort(rng.uniform(0.0, step * n, 5_000)),
        "dst_ip": np.full(5_000, int(PREFIX.network), dtype=np.uint32),
    }))
    data.save_npz(path / DATA_FILE)
    (path / META_FILE).write_text(json.dumps({"peer_asns": [100],
                                              "peeringdb": []}))
    write_manifest(path, counts={"control_messages": len(control),
                                 "data_packets": len(data)})
    return control, data


class TestManifest:
    def test_clean_corpus_validates_ok(self, tmp_path):
        _write_corpus(tmp_path)
        report = validate_corpus(tmp_path)
        assert report.ok
        assert not [i for i in report.issues if i.severity == "error"]
        assert report.control_ingest.ok and report.data_ingest.ok

    def test_manifest_lists_all_files(self, tmp_path):
        _write_corpus(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert set(manifest["files"]) == {CONTROL_FILE, DATA_FILE, META_FILE}
        for meta in manifest["files"].values():
            assert len(meta["sha256"]) == 64
            assert meta["bytes"] > 0

    def test_missing_dir(self, tmp_path):
        report = validate_corpus(tmp_path / "nope")
        assert not report.ok
        assert report.issues[0].code == "missing-dir"

    def test_missing_file(self, tmp_path):
        _write_corpus(tmp_path)
        (tmp_path / DATA_FILE).unlink()
        report = validate_corpus(tmp_path)
        assert not report.ok
        assert any(i.code == "missing-file" for i in report.issues)

    def test_tampered_file_fails_checksum(self, tmp_path):
        _write_corpus(tmp_path)
        # same-size tamper: flip bytes so only the checksum can catch it
        rng = np.random.default_rng(0)
        fault_files.flip_bytes(tmp_path / CONTROL_FILE, 10, rng)
        report = validate_corpus(tmp_path)
        assert not report.ok
        assert any(i.code in ("checksum-mismatch", "bad-records")
                   for i in report.issues)

    def test_truncated_control_fails(self, tmp_path):
        _write_corpus(tmp_path)
        fault_files.truncate_file(tmp_path / CONTROL_FILE, 0.5)
        report = validate_corpus(tmp_path)
        assert not report.ok
        codes = {i.code for i in report.issues}
        assert "size-mismatch" in codes
        assert "count-mismatch" in codes

    def test_corrupt_npz_fails(self, tmp_path):
        _write_corpus(tmp_path)
        rng = np.random.default_rng(1)
        fault_files.flip_bytes(tmp_path / DATA_FILE, 64, rng)
        report = validate_corpus(tmp_path)
        assert not report.ok
        codes = {i.code for i in report.issues}
        assert codes & {"checksum-mismatch", "unreadable"}

    def test_garbled_records_counted(self, tmp_path):
        _write_corpus(tmp_path)
        rng = np.random.default_rng(2)
        garbled = fault_files.garble_jsonl(tmp_path / CONTROL_FILE, 0.2, rng)
        assert garbled > 0
        report = validate_corpus(tmp_path)
        assert not report.ok
        assert any(i.code == "bad-records" for i in report.issues)
        # some garbage payloads are empty lines, which the reader ignores
        assert 0 < report.control_ingest.skipped <= garbled

    def test_no_manifest_is_warning_not_error(self, tmp_path):
        _write_corpus(tmp_path)
        (tmp_path / MANIFEST_FILE).unlink()
        report = validate_corpus(tmp_path)
        assert report.ok
        assert any(i.code == "no-manifest" and i.severity == "warning"
                   for i in report.issues)

    def test_gap_detection(self, tmp_path):
        msgs = []
        # dense 10s cadence, then 12h of silence mid-feed
        for i in range(500):
            t = 10.0 * i + (12 * 3_600.0 if i >= 250 else 0.0)
            if i % 2 == 0:
                msgs.append(announce(t, 100, PREFIX, NH,
                                     communities=frozenset({BLACKHOLE})))
            else:
                msgs.append(withdraw(t, 100, PREFIX))
        ControlPlaneCorpus(msgs).save_jsonl(tmp_path / CONTROL_FILE)
        DataPlaneCorpus(packets_from_arrays({
            "time": np.linspace(0.0, 5000.0 + 12 * 3600.0, 2_000),
        })).save_npz(tmp_path / DATA_FILE)
        (tmp_path / META_FILE).write_text("{}")
        report = validate_corpus(tmp_path)
        assert report.control_gaps
        start, end = report.control_gaps[0]
        assert end - start >= 12 * 3_600.0
        assert any(i.code == "feed-gap" for i in report.issues)
        # gaps alone are warnings: the corpus still validates
        assert report.ok

    def test_format_mentions_verdict(self, tmp_path):
        _write_corpus(tmp_path)
        assert "OK" in validate_corpus(tmp_path).format()
        fault_files.truncate_file(tmp_path / CONTROL_FILE, 0.9)
        assert "CORRUPT" in validate_corpus(tmp_path).format()


def _cached_copy(stream_corpus, tmp_path):
    """A copy of the corpus with one result-cache entry, so ``validate``
    and the doctor scrub both read the commit log for stream digests."""
    from repro.core.study import AnalysisOutcome, AnalysisStatus
    from repro.parallel.cache import ResultCache, corpus_digest

    corpus = tmp_path / "corpus"
    shutil.copytree(stream_corpus, corpus,
                    ignore=shutil.ignore_patterns(".cache", ".stream*"))
    ResultCache.for_corpus(corpus).put(
        corpus_digest(corpus), None,
        AnalysisOutcome(name="fig3_load", status=AnalysisStatus.OK,
                        value=None, value_digest="0" * 16))
    return corpus


def _journal_damages(corpus):
    from repro.doctor import scrub_corpus

    return {(d.kind, d.damage) for d in scrub_corpus(corpus).damages}


def test_unreadable_journal_header_leaves_validate_to_the_corpus_files(
        stream_corpus, tmp_path):
    """With a result cache present, a garbled commit-log header yields no
    stream digests instead of crashing ``validate``; the doctor scrub
    still reports the header."""
    from repro.runtime.generate import JOURNAL_FILE

    corpus = _cached_copy(stream_corpus, tmp_path)
    journal = corpus / JOURNAL_FILE
    steps = journal.read_text().splitlines(keepends=True)[1:]
    journal.write_text("{garbage\n" + "".join(steps))

    assert validate_corpus(corpus).ok
    assert ("journal", "bad-header") in _journal_damages(corpus)


def test_flipped_journal_byte_is_reported_not_raised(stream_corpus,
                                                     tmp_path):
    """A non-UTF-8 byte on a later commit-log line (``flip_bytes``
    damage) is a torn tail: with a result cache present, ``validate``
    stays ok and the doctor scrub reports the tear."""
    from repro.runtime.generate import JOURNAL_FILE

    corpus = _cached_copy(stream_corpus, tmp_path)
    journal = corpus / JOURNAL_FILE
    blob = bytearray(journal.read_bytes())
    blob[blob.index(b"\n") + 1] ^= 0xFF  # '{' of the first step line
    journal.write_bytes(bytes(blob))

    assert validate_corpus(corpus).ok
    assert ("journal", "torn-tail") in _journal_damages(corpus)


def _list_absent_file(corpus):
    manifest = json.loads((corpus / MANIFEST_FILE).read_text())
    manifest["files"]["notes.txt"] = {"sha256": "0" * 64, "bytes": 1}
    (corpus / MANIFEST_FILE).write_text(json.dumps(manifest))


def _truncate_data(corpus):
    blob = (corpus / DATA_FILE).read_bytes()
    (corpus / DATA_FILE).write_bytes(blob[:len(blob) // 2])


def _flip_control_byte(corpus):
    blob = bytearray((corpus / CONTROL_FILE).read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (corpus / CONTROL_FILE).write_bytes(bytes(blob))


def _garble_manifest(corpus):
    (corpus / MANIFEST_FILE).write_text("{torn")


def _cache_entry(corpus, digest):
    from repro.core.study import AnalysisOutcome, AnalysisStatus
    from repro.parallel.cache import ResultCache

    return ResultCache.for_corpus(corpus).put(
        digest, None,
        AnalysisOutcome(name="fig3_load", status=AnalysisStatus.OK,
                        value=None, value_digest="0" * 16))


def _stale_cache_entry(corpus):
    _cache_entry(corpus, "f" * 64)


def _stream_cache_entry(corpus):
    from repro.streaming.state import stream_corpus_digests

    _cache_entry(corpus, max(stream_corpus_digests(corpus)))


def _garbled_cache_entry(corpus):
    _cache_entry(corpus, "f" * 64).write_text("{torn")


@pytest.mark.parametrize("damage, code, scrubbed", [
    (_list_absent_file, "missing-file", ("corpus-file", "missing")),
    (_truncate_data, "size-mismatch", ("corpus-file", "checksum-drift")),
    (_flip_control_byte, "checksum-mismatch",
     ("corpus-file", "checksum-drift")),
    (_garble_manifest, "bad-manifest", ("manifest", "garbled")),
    (_stale_cache_entry, "stale-cache", ("cache-entry", "digest-drift")),
    (_stream_cache_entry, None, None),
    (_garbled_cache_entry, None, ("cache-entry", "garbled")),
], ids=["absent-listed-file", "truncated-data", "flipped-control-byte",
        "garbled-manifest", "stale-cache", "stream-prefix-cache",
        "garbled-cache"])
def test_validate_and_doctor_agree(stream_corpus, tmp_path, damage, code,
                                   scrubbed):
    """One integrity verdict per damage: validate's issue code (or its
    absence) and the doctor scrub's ``(kind, damage)`` come from the same
    file verifier and cache audit."""
    from repro.doctor import scrub_corpus

    corpus = tmp_path / "corpus"
    shutil.copytree(stream_corpus, corpus,
                    ignore=shutil.ignore_patterns(".cache", ".stream*"))
    damage(corpus)
    errors = {i.code for i in validate_corpus(corpus).issues
              if i.severity == "error"}
    damages = {(d.kind, d.damage) for d in scrub_corpus(corpus).damages}
    if code is None:
        assert not errors
    else:
        assert code in errors
    if scrubbed is None:
        assert not damages
    else:
        assert scrubbed in damages
