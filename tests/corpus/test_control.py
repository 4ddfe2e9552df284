"""Tests for the control-plane corpus."""

import numpy as np
import pytest

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.events import extract_events, merge_threshold_sweep
from repro.core.hosts import _origin_lookup, _origins
from repro.core.load import rtbh_load_series
from repro.core.visibility import targeted_visibility
from repro.corpus import ControlPlaneCorpus
from repro.corpus.control import ControlReducer
from repro.errors import CorpusError
from repro.net import IPv4Address, IPv4Prefix

HOST = IPv4Prefix("203.0.113.7/32")
NET = IPv4Prefix("198.51.100.0/24")
NH = IPv4Address("192.0.2.66")


def bh(t, peer, prefix=HOST):
    return announce(t, peer, prefix, NH, communities=frozenset({BLACKHOLE}))


class TestClassification:
    def test_rtbh_announce_flagged(self):
        corpus = ControlPlaneCorpus([bh(1.0, 100), announce(2.0, 100, NET, NH)])
        rtbh = corpus.rtbh_updates()
        assert len(rtbh) == 1 and rtbh[0].prefix == HOST

    def test_withdraw_paired_with_blackhole(self):
        corpus = ControlPlaneCorpus([
            bh(1.0, 100),
            withdraw(2.0, 100, HOST),
            announce(3.0, 100, NET, NH),
            withdraw(4.0, 100, NET),  # withdraws a non-BH route
        ])
        assert corpus.rtbh_message_count() == 2

    def test_reannounce_without_community_counts_once(self):
        corpus = ControlPlaneCorpus([
            bh(1.0, 100),
            announce(2.0, 100, HOST, NH),  # downgraded to a normal route
            withdraw(3.0, 100, HOST),       # withdraws the *normal* route
        ])
        flags = [m.time for m in corpus.rtbh_updates()]
        assert flags == [1.0, 2.0]

    def test_sorted_on_construction(self):
        corpus = ControlPlaneCorpus([withdraw(5.0, 100, HOST), bh(1.0, 100)])
        assert corpus[0].time == 1.0
        assert corpus.start_time == 1.0 and corpus.end_time == 5.0

    def test_empty_corpus_times_raise(self):
        corpus = ControlPlaneCorpus([])
        with pytest.raises(CorpusError):
            _ = corpus.start_time

    def test_rtbh_prefixes(self):
        corpus = ControlPlaneCorpus([bh(1.0, 100), bh(2.0, 100, NET)])
        assert corpus.rtbh_prefixes() == {HOST, NET}


class TestWindows:
    def test_windows_paired(self):
        corpus = ControlPlaneCorpus([
            bh(1.0, 100), withdraw(5.0, 100, HOST),
            bh(10.0, 100), withdraw(12.0, 100, HOST),
        ])
        windows = corpus.rtbh_windows_by_prefix()
        assert windows[HOST] == [(1.0, 5.0, 100), (10.0, 12.0, 100)]

    def test_dangling_window_closed_at_corpus_end(self):
        corpus = ControlPlaneCorpus([bh(1.0, 100), bh(3.0, 200, NET), withdraw(9.0, 200, NET)])
        windows = corpus.rtbh_windows_by_prefix()
        assert windows[HOST] == [(1.0, 9.0, 100)]

    def test_two_announcers_independent_windows(self):
        corpus = ControlPlaneCorpus([
            bh(1.0, 100), bh(2.0, 200),
            withdraw(3.0, 100, HOST), withdraw(4.0, 200, HOST),
        ])
        assert sorted(corpus.rtbh_windows_by_prefix()[HOST]) == [
            (1.0, 3.0, 100), (2.0, 4.0, 200)
        ]


class TestDowngrade:
    """A blackhole replaced by a plain route closes its window at the
    replacement; the later withdrawal of the plain route is unrelated."""

    DAY = 86_400.0

    def corpus(self):
        return ControlPlaneCorpus([
            bh(60.0, 100),
            announce(600.0, 100, HOST, NH, as_path=(100, 65099)),
            withdraw(1200.0, 100, HOST),
            announce(30 * self.DAY, 200, NET, NH),
        ])

    def test_windows(self):
        assert self.corpus().rtbh_windows_by_prefix() == {
            HOST: [(60.0, 600.0, 100)]}

    def test_reducer(self):
        reducer = ControlReducer()
        flags = [reducer.feed(msg) for msg in self.corpus()]
        assert flags == [True, True, False, False]
        assert reducer.active == set() and reducer.open_at == {}
        assert reducer.windows_snapshot() == {HOST: [(60.0, 600.0, 100)]}

    def test_events_and_fig10(self):
        corpus = self.corpus()
        [event] = extract_events(corpus)
        assert event.windows == ((60.0, 600.0),) and event.origin_asn == 100
        _, fraction = merge_threshold_sweep(corpus, deltas=[600.0])
        assert fraction.tolist() == [1.0]  # one announcement, one event

    def test_fig3_load(self):
        series = rtbh_load_series(self.corpus())
        # minutes counted from the first message at t=60
        assert series.active_prefixes[:9].tolist() == [1] * 9
        assert series.active_prefixes[9:].max() == 0
        assert series.messages_per_minute.sum() == 2

    def test_fig4_visibility(self):
        series = targeted_visibility(self.corpus(), [100, 200, 300])
        assert series.announced[0] == 1
        assert series.announced[1:].max() == 0

    def test_host_origin_is_the_blackhole_announcers(self):
        origins = _origins(self.corpus())
        assert origins[HOST] == 100
        hosts = np.array([HOST.network_int], dtype=np.uint32)
        assert _origin_lookup(origins, hosts).tolist() == [100]


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        messages = [
            bh(1.0, 100),
            withdraw(2.0, 100, HOST),
            announce(3.0, 200, NET, NH, as_path=(200, 65000)),
        ]
        corpus = ControlPlaneCorpus(messages)
        path = tmp_path / "control.jsonl"
        corpus.save_jsonl(path)
        loaded = ControlPlaneCorpus.load_jsonl(path)
        assert len(loaded) == 3
        assert loaded[0].is_blackhole
        assert loaded[2].as_path == (200, 65000)
        assert loaded[1].next_hop is None

    def test_load_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0}\n')
        with pytest.raises(CorpusError):
            ControlPlaneCorpus.load_jsonl(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "control.jsonl"
        ControlPlaneCorpus([bh(1.0, 100)]).save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(ControlPlaneCorpus.load_jsonl(path)) == 1
