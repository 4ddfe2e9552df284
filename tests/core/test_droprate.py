"""Tests for the acceptance/drop-rate analyses (Figs 5–8) on hand-built
corpora with known drop behaviour."""

import numpy as np
import pytest

from repro.core.droprate import (
    drop_rate_by_prefix_length,
    drop_rate_cdf_by_length,
    event_traffic,
    reaction_buckets,
    source_table,
    top_source_org_types,
    top_source_reactions,
)
from repro.core.events import RTBHEvent, event_rows
from repro.corpus import DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.errors import AnalysisError
from repro.ixp.peeringdb import OrgType, PeeringDB, PeeringDBRecord
from repro.net import IPv4Address, IPv4Prefix

V32 = IPv4Prefix("203.0.113.7/32")
V24 = IPv4Prefix("198.51.100.0/24")
IP32 = int(IPv4Address("203.0.113.7"))
IP24 = int(IPv4Address("198.51.100.9"))


def make_event(eid, prefix, windows):
    return RTBHEvent(event_id=eid, prefix=prefix, windows=tuple(windows),
                     announcer_asns=(100,), origin_asn=65000)


def traffic(data, events):
    return event_traffic(events, event_rows(data, events))


def top_sources(data, events, top_n=100):
    return top_source_reactions(
        source_table(events, event_rows(data, events)), top_n)


def corpus(rows):
    """rows: (time, dst_ip, ingress, dropped, size)"""
    t, d, i, dr, s = zip(*rows)
    return DataPlaneCorpus(packets_from_arrays({
        "time": np.array(t, dtype=np.float64),
        "dst_ip": np.array(d, dtype=np.uint32),
        "ingress_asn": np.array(i, dtype=np.uint32),
        "dropped": np.array(dr, dtype=bool),
        "size": np.array(s, dtype=np.uint16),
    }))


class TestEventTraffic:
    def test_counts_only_window_traffic(self):
        data = corpus([
            (50.0, IP32, 1, False, 100),    # before window
            (150.0, IP32, 1, True, 100),    # inside
            (160.0, IP32, 1, False, 200),   # inside
            (250.0, IP32, 1, True, 100),    # after
        ])
        event = make_event(0, V32, [(100.0, 200.0)])
        [t] = traffic(data, [event])
        assert t.packets == 2 and t.dropped_packets == 1
        assert t.bytes == 300 and t.dropped_bytes == 100
        assert t.drop_share_packets == 0.5

    def test_prefix_selectivity(self):
        data = corpus([(150.0, IP24, 1, True, 100), (150.0, IP32, 1, True, 100)])
        event = make_event(0, V32, [(100.0, 200.0)])
        [t] = traffic(data, [event])
        assert t.packets == 1

    def test_empty_event(self):
        data = corpus([(150.0, IP32, 1, True, 100)])
        event = make_event(0, V32, [(300.0, 400.0)])
        [t] = traffic(data, [event])
        assert t.packets == 0 and t.drop_share_packets == 0.0


class TestDropByLength:
    def test_aggregates_per_length(self):
        data = corpus(
            [(150.0, IP32, 1, i % 2 == 0, 100) for i in range(10)]
            + [(150.0, IP24, 1, True, 100) for _ in range(5)]
        )
        events = [make_event(0, V32, [(100.0, 200.0)]),
                  make_event(1, V24, [(100.0, 200.0)])]
        rates = drop_rate_by_prefix_length(events, event_rows(data, events))
        drop32, _, share32 = rates.row(32)
        drop24, _, share24 = rates.row(24)
        assert drop32 == pytest.approx(0.5)
        assert drop24 == pytest.approx(1.0)
        assert share32 == pytest.approx(10 / 15)
        assert rates.average_drop_packets == pytest.approx(10 / 15)

    def test_no_traffic_rejected(self):
        data = corpus([(50.0, IP32, 1, False, 100)])
        with pytest.raises(AnalysisError):
            events = [make_event(0, V32, [(100.0, 200.0)])]
            drop_rate_by_prefix_length(events, event_rows(data, events))


class TestDropCDF:
    def test_min_packets_filter(self):
        data = corpus([(150.0, IP32, 1, True, 100) for _ in range(3)])
        events = [make_event(0, V32, [(100.0, 200.0)])]
        with pytest.raises(AnalysisError):
            drop_rate_cdf_by_length(events, event_rows(data, events), lengths=(32,), min_packets=10)
        cdfs = drop_rate_cdf_by_length(events, event_rows(data, events), lengths=(32,), min_packets=2)
        assert cdfs[32].median == 1.0


class TestTopSources:
    def test_per_as_reaction_and_buckets(self):
        rows = []
        rows += [(150.0, IP32, 1, True, 100) for _ in range(100)]   # AS1 drops all
        rows += [(150.0, IP32, 2, False, 100) for _ in range(80)]   # AS2 forwards all
        rows += [(150.0, IP32, 3, i < 30, 100) for i in range(60)]  # AS3 inconsistent
        data = corpus(rows)
        events = [make_event(0, V32, [(100.0, 200.0)])]
        reactions = top_sources(data, events, top_n=10)
        assert [r.asn for r in reactions] == [1, 3, 2]  # sorted by drop share
        buckets = reaction_buckets(reactions)
        assert buckets == {"drop_ge_99": 1, "forward_ge_99": 1, "inconsistent": 1}

    def test_top_n_truncates(self):
        rows = [(150.0, IP32, asn, False, 100) for asn in range(1, 31)]
        data = corpus(rows)
        events = [make_event(0, V32, [(100.0, 200.0)])]
        assert len(top_sources(data, events, top_n=5)) == 5

    def test_org_type_join(self):
        db = PeeringDB()
        db.register(PeeringDBRecord(asn=1, name="a", org_type=OrgType.NSP))
        rows = [(150.0, IP32, 1, True, 100), (150.0, IP32, 2, True, 100)]
        events = [make_event(0, V32, [(100.0, 200.0)])]
        reactions = top_sources(corpus(rows), events, top_n=10)
        hist = top_source_org_types(reactions, db)
        assert hist[OrgType.NSP] == 1 and hist[OrgType.UNKNOWN] == 1

    def test_no_traffic_rejected(self):
        data = corpus([(50.0, IP32, 1, False, 100)])
        with pytest.raises(AnalysisError):
            top_sources(data, [make_event(0, V32, [(100.0, 200.0)])])
