"""Tests for the pre-RTBH classification (§5.2–5.3) on synthetic corpora
with planted anomalies."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pre_rtbh
from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import (
    N_SLOTS,
    PRE_WINDOW,
    PreRTBHClass,
    SLOT,
    classify_pre_rtbh_events,
    pre_window_rows,
    slot_features,
    window_slot_features,
)
from repro.corpus import DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.net import IPv4Address, IPv4Prefix

VICTIM = IPv4Prefix("203.0.113.7/32")
VIP = int(IPv4Address("203.0.113.7"))


def make_event(eid, start):
    return RTBHEvent(event_id=eid, prefix=VICTIM,
                     windows=((start, start + 1800.0),),
                     announcer_asns=(100,), origin_asn=65000)


def baseline_packets(rng, t0, t1, rate_per_slot=3.0):
    """Steady background traffic to the victim."""
    n = rng.poisson(rate_per_slot * (t1 - t0) / SLOT)
    times = rng.uniform(t0, t1, n)
    return {
        "time": times,
        "dst_ip": np.full(n, VIP, dtype=np.uint32),
        "src_ip": rng.integers(0, 1000, n).astype(np.uint32),
        "src_port": rng.integers(1024, 65536, n).astype(np.uint16),
        "dst_port": np.full(n, 443, dtype=np.uint16),
        "protocol": np.full(n, 6, dtype=np.uint8),
    }


def attack_packets(rng, t0, t1, count=500):
    times = rng.uniform(t0, t1, count)
    return {
        "time": times,
        "dst_ip": np.full(count, VIP, dtype=np.uint32),
        "src_ip": rng.integers(10_000, 20_000, count).astype(np.uint32),
        "src_port": np.full(count, 123, dtype=np.uint16),
        "dst_port": rng.integers(1024, 65536, count).astype(np.uint16),
        "protocol": np.full(count, 17, dtype=np.uint8),
    }


def combine(*column_dicts):
    keys = column_dicts[0].keys()
    merged = {k: np.concatenate([d[k] for d in column_dicts]) for k in keys}
    return DataPlaneCorpus(packets_from_arrays(merged))


class TestSlotFeatures:
    def test_shapes_and_counts(self):
        rng = np.random.default_rng(0)
        data = combine(baseline_packets(rng, 0.0, PRE_WINDOW))
        features = slot_features(data.packets, 0.0)
        assert features.shape == (N_SLOTS, 5)
        assert features[:, 0].sum() == len(data)

    def test_empty(self):
        features = slot_features(np.zeros(0, dtype=combine(
            baseline_packets(np.random.default_rng(0), 0.0, 10.0)).packets.dtype), 0.0)
        assert features.sum() == 0

    def test_unique_counts(self):
        packets = packets_from_arrays({
            "time": np.array([1.0, 2.0, 3.0]),
            "src_ip": np.array([1, 1, 2], dtype=np.uint32),
            "dst_port": np.array([80, 80, 443], dtype=np.uint16),
            "protocol": np.array([6, 17, 6], dtype=np.uint8),
        })
        features = slot_features(packets, 0.0, n_slots=1)
        packets_n, flows, srcs, ports, non_tcp = features[0]
        assert packets_n == 3
        assert srcs == 2
        assert ports == 2
        assert non_tcp == 1

    def test_out_of_range_ignored(self):
        packets = packets_from_arrays({"time": np.array([-5.0, 1e9])})
        assert slot_features(packets, 0.0).sum() == 0


def oracle_slot_features(packets, window_start, n_slots, slot):
    """The per-slot ``np.unique`` loop: the reference for the batched
    features, ``(5, n_slots)``."""
    features = np.zeros((5, n_slots))
    slots = ((packets["time"] - window_start) // slot).astype(np.int64)
    flow_key = (
        packets["src_ip"].astype(np.uint64) * np.uint64(2654435761)
        ^ (packets["dst_ip"].astype(np.uint64) << np.uint64(16))
        ^ (packets["src_port"].astype(np.uint64) << np.uint64(32))
        ^ (packets["dst_port"].astype(np.uint64) << np.uint64(48))
        ^ packets["protocol"].astype(np.uint64)
    )
    for s in range(n_slots):
        rows = slots == s
        chunk, keys = packets[rows], flow_key[rows]
        non_tcp = chunk["protocol"] != 6
        features[:, s] = (rows.sum(), len(np.unique(keys)),
                          len(np.unique(chunk["src_ip"])),
                          len(np.unique(chunk["dst_port"])),
                          len(np.unique(keys[non_tcp])))
    return features


@st.composite
def tagged_windows(draw):
    """Rows of several windows, tagged with their window, in any order.

    Small value pools make repeated flows, sources and ports common;
    times reach before and past each window, and whole slots may carry
    only non-TCP traffic or nothing at all.
    """
    n_windows = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 6))
    starts = draw(st.lists(st.integers(0, 40), min_size=n_windows,
                           max_size=n_windows))
    n = draw(st.integers(0, 60))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    window = np.array(column(st.integers(0, n_windows - 1)), dtype=np.int64)
    offset = np.array(column(st.integers(-3, 3 * n_slots + 3)), dtype=np.float64)
    window_starts = np.array(starts, dtype=np.float64) * 5.0
    packets = packets_from_arrays({
        "time": window_starts[window] + offset * 10.0 / 3.0 if n else np.zeros(0),
        "src_ip": np.array(column(st.integers(0, 3)), dtype=np.uint32),
        "dst_ip": np.array(column(st.sampled_from([VIP, VIP + 1])),
                           dtype=np.uint32),
        "src_port": np.array(column(st.sampled_from([53, 123, 40000])),
                             dtype=np.uint16),
        "dst_port": np.array(column(st.integers(0, 2)), dtype=np.uint16),
        "protocol": np.array(column(st.sampled_from([6, 6, 17, 1])),
                             dtype=np.uint8),
    })
    return packets, window, window_starts, n_slots


class TestWindowSlotFeaturesOracle:
    @settings(deadline=None)
    @given(tagged_windows())
    def test_matches_per_slot_unique_loop(self, case):
        packets, window, window_starts, n_slots = case
        slot = 10.0
        got = window_slot_features(packets, window, window_starts,
                                   n_slots=n_slots, slot=slot)
        assert got.shape == (len(window_starts), 5, n_slots)
        for w, start in enumerate(window_starts):
            want = oracle_slot_features(packets[window == w], start,
                                        n_slots, slot)
            assert np.array_equal(got[w], want)

    def test_non_tcp_only_and_empty_slots(self):
        packets = packets_from_arrays({
            "time": np.array([1.0, 2.0, 21.0, 22.0, 23.0]),
            "src_ip": np.array([1, 1, 2, 2, 3], dtype=np.uint32),
            "src_port": np.array([5, 5, 6, 7, 6], dtype=np.uint16),
            "protocol": np.array([17, 17, 1, 6, 1], dtype=np.uint8),
        })
        got = window_slot_features(packets, np.zeros(5, dtype=np.int64),
                                   [0.0], n_slots=3, slot=10.0)[0]
        assert np.array_equal(got, oracle_slot_features(packets, 0.0, 3, 10.0))
        assert np.array_equal(got[:, 1], np.zeros(5))   # the empty slot
        assert got[4, 0] == 1 and got[4, 2] == 2        # non-TCP flows


class TestBatchBoundaries:
    def test_row_budget_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(9)
        end = PRE_WINDOW + 3 * 3600.0
        data = combine(
            baseline_packets(rng, 0.0, end),
            attack_packets(rng, PRE_WINDOW + 3000.0, PRE_WINDOW + 3500.0),
        )
        # truncated windows, a window without data, full windows that end
        # at, during and after the attack
        events = [make_event(i, 20 * 3600.0 + i * 2400.0) for i in range(4)]
        events += [make_event(4 + i, PRE_WINDOW + 2400.0 + i * 600.0)
                   for i in range(4)]
        events.append(RTBHEvent(event_id=8, prefix=IPv4Prefix("198.51.100.0/24"),
                                windows=((end, end + 60.0),),
                                announcer_asns=(100,), origin_asn=65000))
        events.append(make_event(9, PRE_WINDOW + 3600.0))
        runs = {}
        for budget in (1, 10**9):
            monkeypatch.setattr(pre_rtbh, "_BATCH_ROWS", budget)
            runs[budget] = classify_pre_rtbh_events(data, events).events
        assert [e.event_id for e in runs[1]] == list(range(10))
        classes = {e.classification for e in runs[1]}
        assert classes == set(PreRTBHClass)
        # repr: NaN amplification factors compare unequal to themselves
        assert repr(runs[1]) == repr(runs[10**9])


@st.composite
def pre_rtbh_cases(draw):
    """A victim with background traffic and an optional attack, a
    neighbour in the same /24, and events on the victim, the /24 and an
    empty prefix, starting before and after a full pre-window of data."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    corpus_start = draw(st.sampled_from([0.0, 3600.0]))
    end = PRE_WINDOW + 6 * 3600.0
    starts = st.sampled_from([2 * 3600.0, 30 * 3600.0, PRE_WINDOW,
                              PRE_WINDOW + 3000.0, end - 60.0])
    parts = [baseline_packets(rng, corpus_start, end,
                              rate_per_slot=draw(st.sampled_from([0.05, 2.0])))]
    if draw(st.booleans()):  # an attack shortly before some event start
        attack_at = draw(starts) - draw(st.sampled_from([300.0, 900.0, 5400.0]))
        parts.append(attack_packets(rng, attack_at, attack_at + 290.0,
                                    count=draw(st.integers(1, 300))))
    neighbour = baseline_packets(rng, corpus_start, end, rate_per_slot=0.5)
    neighbour["dst_ip"][:] = VIP + 1
    parts.append(neighbour)
    prefixes = [VICTIM, IPv4Prefix("203.0.113.0/24"),
                IPv4Prefix("198.51.100.0/24")]
    events = [RTBHEvent(event_id=i, prefix=draw(st.sampled_from(prefixes)),
                        windows=((start, start + 1800.0),),
                        announcer_asns=(100,), origin_asn=65000)
              for i, start in enumerate(draw(st.lists(
                  starts, min_size=1, max_size=6)))]
    return combine(*parts), events


class TestFlatGatherOracle:
    @settings(deadline=None)
    @given(pre_rtbh_cases())
    def test_flat_rows_match_the_window_packets_path(self, case):
        data, events = case
        runs = []
        for budget in (1, 10**9):
            with mock.patch.object(pre_rtbh, "_BATCH_ROWS", budget):
                for rows in (pre_window_rows(data, events), None):
                    # repr: NaN amplification factors compare unequal
                    runs.append(repr(classify_pre_rtbh_events(
                        data, events, rows=rows).events))
        assert runs[1:] == runs[:1] * 3


class TestClassification:
    def test_no_data(self):
        rng = np.random.default_rng(1)
        event_start = PRE_WINDOW + 7200.0
        # traffic exists but not towards the victim
        other = baseline_packets(rng, 0.0, event_start)
        other["dst_ip"] = np.full(len(other["time"]), 42, dtype=np.uint32)
        data = combine(other)
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        assert result.events[0].classification is PreRTBHClass.NO_DATA

    def test_data_no_anomaly(self):
        rng = np.random.default_rng(2)
        event_start = PRE_WINDOW + 7200.0
        data = combine(baseline_packets(rng, 0.0, event_start))
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        assert result.events[0].classification is PreRTBHClass.DATA_NO_ANOMALY
        assert result.events[0].slots_with_data > 500

    def test_attack_right_before_event_detected(self):
        rng = np.random.default_rng(3)
        event_start = PRE_WINDOW + 7200.0
        data = combine(
            baseline_packets(rng, 0.0, event_start),
            attack_packets(rng, event_start - 480.0, event_start),
        )
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        ev = result.events[0]
        assert ev.classification is PreRTBHClass.DATA_ANOMALY
        assert ev.has_anomaly_within["10min"]
        # level: all five features spike
        assert max(level for _, level in ev.anomalies) >= 4

    def test_old_anomaly_not_within_10min(self):
        rng = np.random.default_rng(4)
        event_start = PRE_WINDOW + 7200.0
        data = combine(
            baseline_packets(rng, 0.0, event_start),
            attack_packets(rng, event_start - 7200.0, event_start - 5400.0),
        )
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        ev = result.events[0]
        assert ev.classification is PreRTBHClass.DATA_NO_ANOMALY
        assert not ev.has_anomaly_within["10min"]
        assert ev.has_anomaly_within["1h"] is False  # ~90-120 min before
        assert len(ev.anomalies) > 0

    def test_amplification_factor_large_for_attack(self):
        rng = np.random.default_rng(5)
        event_start = PRE_WINDOW + 7200.0
        data = combine(
            baseline_packets(rng, 0.0, event_start),
            attack_packets(rng, event_start - 290.0, event_start, count=2000),
        )
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        ev = result.events[0]
        finite = [f for f in ev.amplification_factors if np.isfinite(f)]
        assert max(finite) > 50
        assert ev.last_slot_is_max

    def test_truncated_window_does_not_false_alarm(self):
        # event 30 h after corpus start: the pre-window head is empty by
        # construction; steady traffic afterwards must NOT alarm
        rng = np.random.default_rng(6)
        event_start = 30 * 3600.0
        data = combine(baseline_packets(rng, 0.0, event_start))
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        assert result.events[0].classification is PreRTBHClass.DATA_NO_ANOMALY

    def test_class_shares_sum_to_one(self):
        rng = np.random.default_rng(7)
        event_start = PRE_WINDOW + 7200.0
        data = combine(baseline_packets(rng, 0.0, event_start))
        result = classify_pre_rtbh_events(
            data, [make_event(0, event_start), make_event(1, event_start + 60.0)])
        shares = result.class_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_fig11_histogram(self):
        rng = np.random.default_rng(8)
        event_start = PRE_WINDOW + 7200.0
        data = combine(baseline_packets(rng, 0.0, event_start, rate_per_slot=0.01))
        result = classify_pre_rtbh_events(data, [make_event(0, event_start)])
        ks, cumulative = result.slots_with_data_histogram()
        assert cumulative[-1] == 1  # the single event appears at its slot count
