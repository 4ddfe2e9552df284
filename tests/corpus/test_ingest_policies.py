"""Per-record error policies on both loaders: strict raises typed errors,
skip drops with accounting, collect quarantines payloads."""

import numpy as np
import pytest

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.dataplane.packet import PACKET_DTYPE, packets_from_arrays
from repro.errors import CorpusError, IngestError
from repro.net import IPv4Address, IPv4Prefix

PREFIX = IPv4Prefix("203.0.113.9/32")
NH = IPv4Address("192.0.2.1")

GOOD_LINE = ('{"time": %f, "peer_asn": 100, "action": "announce", '
             '"prefix": "203.0.113.9/32", "next_hop": "192.0.2.1", '
             '"as_path": [100], "communities": ["65535:666"]}')
BAD_LINES = [
    "not json at all",
    '{"time": "soon", "peer_asn": 1, "action": "announce", '
    '"prefix": "10.0.0.0/8", "next_hop": "192.0.2.1", "as_path": [], '
    '"communities": []}',
    '{"missing": "fields"}',
]


def _mixed_jsonl(path):
    lines = [GOOD_LINE % 1.0, BAD_LINES[0], GOOD_LINE % 2.0, BAD_LINES[1],
             GOOD_LINE % 3.0, BAD_LINES[2]]
    path.write_text("\n".join(lines) + "\n")
    return 3, 3  # good, bad


class TestControlPolicies:
    def test_unknown_policy_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _mixed_jsonl(path)
        with pytest.raises(IngestError):
            ControlPlaneCorpus.load_jsonl(path, on_error="yolo")

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _mixed_jsonl(path)
        with pytest.raises(IngestError, match=r"c\.jsonl:2"):
            ControlPlaneCorpus.load_jsonl(path)

    def test_skip_recovers_good_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good, bad = _mixed_jsonl(path)
        corpus = ControlPlaneCorpus.load_jsonl(path, on_error="skip")
        assert len(corpus) == good
        report = corpus.ingest_report
        assert report.total == good + bad
        assert report.loaded == good
        assert report.skipped == bad
        assert not report.ok
        assert len(report.problems) == bad

    def test_collect_quarantines_payloads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        qpath = tmp_path / "quarantine.jsonl"
        _, bad = _mixed_jsonl(path)
        corpus = ControlPlaneCorpus.load_jsonl(path, on_error="collect",
                                               quarantine_path=qpath)
        assert len(corpus.ingest_report.quarantined) == bad
        saved = qpath.read_text().splitlines()
        assert saved == corpus.ingest_report.quarantined

    def test_missing_file_raises_ingest_error(self, tmp_path):
        with pytest.raises(IngestError):
            ControlPlaneCorpus.load_jsonl(tmp_path / "absent.jsonl",
                                          on_error="skip")

    def test_init_rejects_non_finite_times_strict(self):
        msgs = [announce(1.0, 100, PREFIX, NH,
                         communities=frozenset({BLACKHOLE})),
                withdraw(float("nan"), 100, PREFIX),
                withdraw(float("inf"), 100, PREFIX)]
        with pytest.raises(CorpusError):
            ControlPlaneCorpus(msgs)
        corpus = ControlPlaneCorpus(msgs, on_error="skip")
        assert len(corpus) == 1
        assert corpus.ingest_report.skipped == 2

    def test_clean_init_reports_ok(self):
        corpus = ControlPlaneCorpus([
            announce(1.0, 100, PREFIX, NH,
                     communities=frozenset({BLACKHOLE}))])
        assert corpus.ingest_report.ok
        assert corpus.ingest_report.loaded == 1


class TestDataPolicies:
    def _packets(self, times):
        return packets_from_arrays({"time": np.asarray(times, dtype=np.float64)})

    def test_init_rejects_bad_times_strict(self):
        for bad in (np.nan, np.inf, -np.inf, -5.0):
            with pytest.raises(CorpusError):
                DataPlaneCorpus(self._packets([1.0, bad, 3.0]))

    def test_skip_drops_bad_rows_with_accounting(self):
        packets = self._packets([1.0, np.nan, 3.0, -2.0, 5.0])
        corpus = DataPlaneCorpus(packets, on_error="skip")
        assert len(corpus) == 3
        assert corpus.packets["time"].tolist() == [1.0, 3.0, 5.0]
        assert corpus.ingest_report.skipped == 2

    def test_lenient_unsorted_store_moves_whole_records(self):
        # the lenient drop and the stable time sort gather whole records:
        # every byte of every kept row matches boolean-mask + argsort
        # indexing, ties keep their input order, and select() agrees
        rng = np.random.default_rng(5)
        n = 400
        packets = np.frombuffer(rng.bytes(n * PACKET_DTYPE.itemsize),
                                dtype=PACKET_DTYPE).copy()
        packets["time"] = rng.integers(0, 40, n).astype(np.float64)
        packets["time"][rng.choice(n, 30, replace=False)] = np.nan
        packets["time"][rng.choice(n, 10, replace=False)] = -1.0
        packets["dropped"] = rng.random(n) < 0.5
        t = packets["time"]
        kept = packets[np.isfinite(t) & (t >= 0.0)]
        expected = kept[np.argsort(kept["time"], kind="stable")]
        corpus = DataPlaneCorpus(packets, on_error="skip")
        assert corpus.packets.tobytes() == expected.tobytes()
        window = corpus.select(t0=10.0, t1=30.0, dropped=True)
        mask = ((expected["time"] >= 10.0) & (expected["time"] < 30.0)
                & expected["dropped"])
        assert window.tobytes() == expected[mask].tobytes()

    def test_rejects_non_1d(self):
        with pytest.raises(CorpusError):
            DataPlaneCorpus(self._packets([1.0, 2.0]).reshape(2, 1))

    def test_rejects_bad_sampling_rate(self):
        with pytest.raises(CorpusError):
            DataPlaneCorpus(self._packets([1.0]), sampling_rate=0)
        with pytest.raises(CorpusError):
            DataPlaneCorpus(self._packets([1.0]), sampling_rate="many")

    def test_load_npz_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            DataPlaneCorpus.load_npz(tmp_path / "absent.npz")

    def test_load_npz_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(IngestError):
            DataPlaneCorpus.load_npz(path)

    def test_load_npz_columnar_archive_assembled(self, tmp_path):
        path = tmp_path / "cols.npz"
        np.savez(path, time=np.array([3.0, 1.0]),
                 size=np.array([100, 200], dtype=np.uint16),
                 sampling_rate=1_000)
        corpus = DataPlaneCorpus.load_npz(path)
        assert len(corpus) == 2
        assert corpus.sampling_rate == 1_000
        assert corpus.packets["time"].tolist() == [1.0, 3.0]

    def test_load_npz_mismatched_column_lengths(self, tmp_path):
        path = tmp_path / "bad_cols.npz"
        np.savez(path, time=np.zeros(3), size=np.zeros(2, dtype=np.uint16),
                 sampling_rate=1_000)
        with pytest.raises(CorpusError):
            DataPlaneCorpus.load_npz(path)

    def test_load_npz_lenient_scrubs_corrupt_rows(self, tmp_path):
        packets = self._packets([1.0, 2.0, 3.0, 4.0])
        packets["time"][1] = np.nan
        path = tmp_path / "dirty.npz"
        from repro.corpus.data import write_packets_npz
        write_packets_npz(packets, 500, path)
        with pytest.raises(CorpusError):
            DataPlaneCorpus.load_npz(path)
        corpus = DataPlaneCorpus.load_npz(path, on_error="skip")
        assert len(corpus) == 3
        assert corpus.ingest_report.skipped == 1
        assert corpus.sampling_rate == 500
