"""Tests for the §5.4/§5.5 analyses (Table 3, Figs 14–15)."""

import numpy as np
import pytest

from repro.core.events import RTBHEvent, event_rows
from repro.core.filtering import as_participation, filterable_share_cdf
from repro.core.pre_rtbh import PreRTBHClass, PreRTBHClassification, PreRTBHEvent
from repro.core.protocols import amplification_protocol_table, event_protocol_mix
from repro.corpus import DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.errors import AnalysisError
from repro.net import IPv4Address, IPv4Prefix
from repro.net.protocols import IPProtocol

VICTIM = IPv4Prefix("203.0.113.7/32")
VIP = int(IPv4Address("203.0.113.7"))


def make_event(eid, start=100.0, end=200.0):
    return RTBHEvent(event_id=eid, prefix=VICTIM, windows=((start, end),),
                     announcer_asns=(100,), origin_asn=65000)


def pre(eid, cls):
    return PreRTBHEvent(event_id=eid, classification=cls, slots_with_data=1,
                        total_packets=10)


def on_rows(analysis, data, events, classification):
    """Run a per-event analysis over the events' window rows."""
    return analysis(events, event_rows(data, events), classification)


def data_from(times, src_ports, protocols, ingress=None, origins=None, src_ips=None):
    n = len(times)
    return DataPlaneCorpus(packets_from_arrays({
        "time": np.asarray(times, dtype=np.float64),
        "dst_ip": np.full(n, VIP, dtype=np.uint32),
        "src_ip": np.asarray(src_ips if src_ips is not None else range(n), dtype=np.uint32),
        "src_port": np.asarray(src_ports, dtype=np.uint16),
        "protocol": np.asarray(protocols, dtype=np.uint8),
        "ingress_asn": np.asarray(ingress if ingress is not None else [1] * n,
                                  dtype=np.uint32),
        "origin_asn": np.asarray(origins if origins is not None else [9] * n,
                                 dtype=np.uint32),
    }))


class TestProtocolMix:
    def test_window_packet_selection(self):
        data = data_from([50.0, 150.0, 250.0], [123] * 3, [17] * 3)
        rows = event_rows(data, [make_event(0)])
        assert rows.counts.tolist() == [1]
        assert rows.records(0)["time"].tolist() == [150.0]

    def test_udp_dominates_and_amp_count(self):
        # 8 NTP + 1 DNS + 1 TCP packet during the event
        data = data_from(
            [150.0] * 10,
            [123] * 8 + [53, 4444],
            [17] * 9 + [6],
        )
        events = [make_event(0)]
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        mix = on_rows(event_protocol_mix, data, events, classification)
        assert mix.events_with_data == 1
        assert mix.events_with_data_and_anomaly == 1
        assert mix.protocol_shares[IPProtocol.UDP] == pytest.approx(0.9)
        assert mix.protocol_shares[IPProtocol.TCP] == pytest.approx(0.1)
        assert mix.amplification_protocol_counts == (2,)  # NTP + DNS

    def test_non_anomaly_events_excluded_from_mix(self):
        data = data_from([150.0], [123], [17])
        events = [make_event(0)]
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_NO_ANOMALY)])
        mix = on_rows(event_protocol_mix, data, events, classification)
        assert mix.events_with_data == 1
        assert mix.events_with_data_and_anomaly == 0

    def test_alignment_enforced(self):
        data = data_from([150.0], [123], [17])
        with pytest.raises(AnalysisError):
            on_rows(event_protocol_mix, data, [make_event(0)], PreRTBHClassification(events=[]))

    def test_table3(self):
        data = data_from([150.0] * 4, [123, 53, 19, 4444], [17] * 4)
        events = [make_event(0)]
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        mix = on_rows(event_protocol_mix, data, events, classification)
        table = amplification_protocol_table(mix)
        assert table[3] == 1.0
        assert sum(table.values()) == pytest.approx(1.0)

    def test_table3_requires_anomaly_events(self):
        mix_empty = on_rows(
            event_protocol_mix, data_from([999.0], [1], [6]), [make_event(0)],
            PreRTBHClassification(events=[pre(0, PreRTBHClass.NO_DATA)]))
        with pytest.raises(AnalysisError):
            amplification_protocol_table(mix_empty)


class TestFiltering:
    def test_fully_filterable_event(self):
        data = data_from([150.0] * 5, [123] * 5, [17] * 5)
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        cdf = on_rows(filterable_share_cdf, data, [make_event(0)], classification)
        assert cdf.median == 1.0

    def test_syn_flood_not_filterable(self):
        data = data_from([150.0] * 5, [4444] * 5, [6] * 5)
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        cdf = on_rows(filterable_share_cdf, data, [make_event(0)], classification)
        assert cdf.median == 0.0

    def test_tcp_port_123_not_filterable(self):
        data = data_from([150.0] * 4, [123] * 4, [6] * 4)
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        cdf = on_rows(filterable_share_cdf, data, [make_event(0)], classification)
        assert cdf.median == 0.0

    def test_no_anomaly_events_rejected(self):
        data = data_from([150.0], [123], [17])
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.NO_DATA)])
        with pytest.raises(AnalysisError):
            on_rows(filterable_share_cdf, data, [make_event(0)], classification)


class TestParticipation:
    def test_per_as_shares(self):
        # two events; AS 5 hands over amp traffic in both, AS 6 in one
        data = data_from(
            [150.0, 150.0, 450.0],
            [123, 123, 53],
            [17, 17, 17],
            ingress=[5, 6, 5],
            origins=[70, 71, 70],
            src_ips=[1, 2, 3],
        )
        events = [make_event(0), make_event(1, 400.0, 500.0)]
        classification = PreRTBHClassification(events=[
            pre(0, PreRTBHClass.DATA_ANOMALY), pre(1, PreRTBHClass.DATA_ANOMALY)])
        part = on_rows(as_participation, data, events, classification)
        assert part.total_events == 2
        assert part.handover[5] == 1.0
        assert part.handover[6] == 0.5
        assert part.origin[70] == 1.0 and part.origin[71] == 0.5
        assert part.top("handover", 1) == [(5, 1.0)]

    def test_non_amp_traffic_ignored(self):
        data = data_from([150.0], [4444], [6], ingress=[5])
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        with pytest.raises(AnalysisError):
            on_rows(as_participation, data, [make_event(0)], classification)

    def test_mean_counters(self):
        data = data_from([150.0, 151.0], [123, 53], [17, 17],
                         ingress=[5, 6], origins=[70, 71], src_ips=[1, 2])
        classification = PreRTBHClassification(
            events=[pre(0, PreRTBHClass.DATA_ANOMALY)])
        part = on_rows(as_participation, data, [make_event(0)], classification)
        assert part.mean_amplifiers_per_event == 2.0
        assert part.mean_handover_asns_per_event == 2.0
        assert part.mean_origin_asns_per_event == 2.0
