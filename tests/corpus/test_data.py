"""Tests for the data-plane corpus."""

import numpy as np
import pytest

from repro.corpus import DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.errors import CorpusError
from repro.net import IPv4Address, IPv4Prefix

V1 = int(IPv4Address("203.0.113.7"))
V2 = int(IPv4Address("198.51.100.9"))
P1 = IPv4Prefix("203.0.113.7/32")
NET1 = IPv4Prefix("203.0.113.0/24")


@pytest.fixture
def corpus():
    packets = packets_from_arrays({
        "time": np.array([5.0, 1.0, 3.0, 9.0, 7.0]),
        "dst_ip": np.array([V1, V1, V2, V1, V2], dtype=np.uint32),
        "src_ip": np.array([V2, V2, V1, 42, 42], dtype=np.uint32),
        "dropped": np.array([True, False, False, True, False]),
        "size": np.array([100, 200, 300, 400, 500], dtype=np.uint16),
    })
    return DataPlaneCorpus(packets, sampling_rate=10_000)


class TestSelection:
    def test_sorted_by_time(self, corpus):
        assert corpus.packets["time"].tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert corpus.start_time == 1.0 and corpus.end_time == 9.0

    def test_mask_dst_host(self, corpus):
        assert corpus.mask_dst_in(P1).sum() == 3

    def test_mask_dst_net(self, corpus):
        assert corpus.mask_dst_in(NET1).sum() == 3

    def test_mask_src(self, corpus):
        assert corpus.mask_src_in(IPv4Prefix("203.0.113.0/24")).sum() == 1

    def test_select_combined(self, corpus):
        got = corpus.select(dst_prefix=P1, dropped=True, t0=0.0, t1=6.0)
        assert got["time"].tolist() == [5.0]

    def test_select_default_route(self, corpus):
        assert len(corpus.select(dst_prefix=IPv4Prefix(0, 0))) == 5

    def test_dropped_share(self, corpus):
        assert corpus.dropped_share() == pytest.approx(0.4)

    def test_total_bytes(self, corpus):
        assert corpus.total_bytes() == 1500


class TestValidationAndPersistence:
    def test_wrong_dtype_rejected(self):
        with pytest.raises(CorpusError):
            DataPlaneCorpus(np.zeros(3))

    def test_empty_corpus(self):
        corpus = DataPlaneCorpus(packets_from_arrays({}))
        assert len(corpus) == 0
        with pytest.raises(CorpusError):
            _ = corpus.start_time
        with pytest.raises(CorpusError):
            corpus.dropped_share()

    def test_npz_roundtrip(self, corpus, tmp_path):
        path = tmp_path / "data.npz"
        corpus.save_npz(path)
        loaded = DataPlaneCorpus.load_npz(path)
        assert len(loaded) == 5
        assert loaded.sampling_rate == 10_000
        np.testing.assert_array_equal(loaded.packets, corpus.packets)

    def test_load_missing_key(self, tmp_path):
        path = tmp_path / "broken.npz"
        np.savez(path, nonsense=np.zeros(3))
        with pytest.raises(CorpusError):
            DataPlaneCorpus.load_npz(path)
