"""Tests for interval sets and the acceptance timeline."""

import numpy as np
import pytest

from repro.bgp import BLACKHOLE, BlackholeWhitelistPolicy, MaxPrefixLengthPolicy, RouteServer
from repro.bgp.message import announce, withdraw
from repro.dataplane import AcceptanceTimeline, IntervalSet
from repro.dataplane.listener import TimelineRecorder
from repro.dataplane.packet import packets_from_arrays
from repro.errors import FabricError
from repro.net import IPv4Address, IPv4Prefix

HOST = IPv4Prefix("203.0.113.7/32")
NH = IPv4Address("192.0.2.66")


class TestIntervalSet:
    def test_basic_membership(self):
        iset = IntervalSet()
        iset.open_at(10.0)
        iset.close_at(20.0)
        iset.open_at(30.0)
        iset.finalize(40.0)
        times = np.array([5.0, 10.0, 15.0, 20.0, 25.0, 35.0, 45.0])
        assert iset.contains(times).tolist() == [False, True, True, False, False, True, False]

    def test_half_open_semantics(self):
        iset = IntervalSet()
        iset.open_at(0.0)
        iset.close_at(1.0)
        iset.finalize(1.0)
        assert iset.contains_scalar(0.0)
        assert not iset.contains_scalar(1.0)

    def test_zero_length_interval_dropped(self):
        iset = IntervalSet()
        iset.open_at(5.0)
        iset.close_at(5.0)
        iset.finalize(10.0)
        assert len(iset) == 0

    def test_double_open_rejected(self):
        iset = IntervalSet()
        iset.open_at(0.0)
        with pytest.raises(FabricError):
            iset.open_at(1.0)

    def test_close_without_open_rejected(self):
        with pytest.raises(FabricError):
            IntervalSet().close_at(1.0)

    def test_out_of_order_rejected(self):
        iset = IntervalSet()
        iset.open_at(10.0)
        iset.close_at(20.0)
        with pytest.raises(FabricError):
            iset.open_at(15.0)

    def test_finalize_closes_dangling(self):
        iset = IntervalSet()
        iset.open_at(10.0)
        iset.finalize(100.0)
        assert iset.intervals == [(10.0, 100.0)]

    def test_query_before_finalize_rejected(self):
        with pytest.raises(FabricError):
            IntervalSet().contains(np.array([1.0]))

    def test_edges_in_time_order(self):
        iset = IntervalSet()
        iset.open_at(10.0)
        iset.close_at(20.0)
        iset.open_at(20.0)
        iset.finalize(40.0)
        assert iset.edges.tolist() == [10.0, 20.0, 20.0, 40.0]
        assert IntervalSet().finalize(0.0).edges.tolist() == []
        with pytest.raises(FabricError):
            IntervalSet().edges

    def test_total_duration(self):
        iset = IntervalSet()
        iset.open_at(0.0)
        iset.close_at(10.0)
        iset.open_at(20.0)
        iset.close_at(25.0)
        iset.finalize(25.0)
        assert iset.total_duration() == 15.0


def bh(t, peer, prefix=HOST):
    return announce(t, peer, prefix, NH, communities=frozenset({BLACKHOLE}))


@pytest.fixture
def server_and_recorder():
    server = RouteServer()
    server.add_peer(100)  # the victim / announcer
    server.add_peer(200, policy=BlackholeWhitelistPolicy())  # accepts /32 BH
    server.add_peer(300, policy=MaxPrefixLengthPolicy())  # rejects /32
    recorder = TimelineRecorder(server)
    return server, recorder


class TestTimelineRecorder:
    def test_acceptance_intervals_follow_announce_withdraw(self, server_and_recorder):
        server, recorder = server_and_recorder
        server.process(bh(100.0, 100))
        server.process(withdraw(200.0, 100, HOST))
        tl = recorder.timeline.finalize(1000.0)
        accepted = tl.accepted_intervals(200, HOST)
        assert accepted.intervals == [(100.0, 200.0)]
        rejected = tl.accepted_intervals(300, HOST)
        assert rejected is None or len(rejected) == 0

    def test_server_announce_intervals_refcount(self, server_and_recorder):
        server, recorder = server_and_recorder
        server.process(bh(10.0, 100))
        server.process(bh(20.0, 200))   # second announcer, same prefix
        server.process(withdraw(30.0, 100, HOST))
        server.process(withdraw(40.0, 200, HOST))
        tl = recorder.timeline.finalize(100.0)
        assert tl.announced_intervals(HOST).intervals == [(10.0, 40.0)]

    def test_was_dropped_point_queries(self, server_and_recorder):
        server, recorder = server_and_recorder
        server.process(bh(100.0, 100))
        server.process(withdraw(200.0, 100, HOST))
        tl = recorder.timeline.finalize(1000.0)
        dst = int(IPv4Address("203.0.113.7"))
        assert tl.was_dropped(200, dst, 150.0)
        assert not tl.was_dropped(200, dst, 250.0)
        assert not tl.was_dropped(300, dst, 150.0)  # rejected the route
        assert not tl.was_dropped(200, int(IPv4Address("203.0.113.8")), 150.0)

    def test_covering_prefixes(self, server_and_recorder):
        server, recorder = server_and_recorder
        net24 = IPv4Prefix("203.0.113.0/24")
        server.process(bh(10.0, 100))
        server.process(bh(20.0, 100, prefix=net24))
        tl = recorder.timeline.finalize(100.0)
        covering = tl.covering_prefixes(int(IPv4Address("203.0.113.7")))
        assert set(covering) == {HOST, net24}

    def test_mark_dropped_bulk(self, server_and_recorder):
        server, recorder = server_and_recorder
        server.process(bh(100.0, 100))
        server.process(withdraw(200.0, 100, HOST))
        tl = recorder.timeline.finalize(1000.0)
        dst = int(IPv4Address("203.0.113.7"))
        packets = packets_from_arrays({
            "time": np.array([50.0, 150.0, 150.0, 150.0, 250.0]),
            "dst_ip": np.full(5, dst, dtype=np.uint32),
            "ingress_asn": np.array([200, 200, 300, 200, 200], dtype=np.uint32),
        })
        tl.mark_dropped(packets)
        assert packets["dropped"].tolist() == [False, True, False, True, False]

    def test_mark_dropped_requires_finalize(self):
        tl = AcceptanceTimeline()
        packets = packets_from_arrays({"time": np.array([1.0])})
        with pytest.raises(FabricError):
            tl.mark_dropped(packets)

    def test_mark_dropped_empty_ok(self, server_and_recorder):
        _, recorder = server_and_recorder
        tl = recorder.timeline.finalize(0.0)
        packets = packets_from_arrays({})
        assert len(tl.mark_dropped(packets)) == 0

    def test_withdraw_before_announce_tolerated(self):
        tl = AcceptanceTimeline()
        tl.record_server_withdraw(HOST, 5.0)
        tl.finalize(10.0)
        assert tl.announced_intervals(HOST) is None or len(tl.announced_intervals(HOST)) == 0

    def test_reannounce_without_blackhole_community_closes_interval(self, server_and_recorder):
        server, recorder = server_and_recorder
        server.process(bh(10.0, 100))
        server.process(announce(20.0, 100, HOST, NH))  # same prefix, no BH community
        tl = recorder.timeline.finalize(100.0)
        assert tl.announced_intervals(HOST).intervals == [(10.0, 20.0)]


class TestRecorderFedByServer:
    """The recorder reads only the peers whose Loc-RIB entry the server
    reports changed. A change no update carries (a session set up or torn
    down) is read at the prefix's next update, as the full candidate walk
    it replaced did."""

    @pytest.fixture
    def server(self):
        server = RouteServer()
        for asn in (100, 200, 300):
            server.add_peer(asn)  # accept-all
        return server

    def test_refresh_that_loses_a_tie_ends_acceptance(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        # same age and path length: AS100's blackhole wins on the ASN
        server.process(announce(10.0, 200, HOST, NH))
        server.process(bh(20.0, 100))  # the refresh is newer and loses
        tl = recorder.timeline.finalize(100.0)
        assert server.refreshes == 1
        assert server.peer(300).loc_rib.get(HOST).peer_asn == 200
        assert tl.accepted_intervals(300, HOST).intervals == [(10.0, 20.0)]

    def test_late_peer_is_read_at_the_next_update(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.add_peer(400)  # receives the standing blackhole
        server.process(bh(20.0, 100))
        tl = recorder.timeline.finalize(100.0)
        assert tl.accepted_intervals(400, HOST).intervals == [(20.0, 100.0)]

    def test_removed_holder_closes_at_the_next_update(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.remove_peer(300)
        server.process(bh(20.0, 100))
        tl = recorder.timeline.finalize(100.0)
        assert tl.accepted_intervals(300, HOST).intervals == [(10.0, 20.0)]
        assert tl.accepted_intervals(200, HOST).intervals == [(10.0, 100.0)]

    def test_removed_announcer_ends_acceptance_at_the_next_update(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.remove_peer(100)
        server.process(withdraw(20.0, 200, HOST))  # any update of the prefix
        tl = recorder.timeline.finalize(100.0)
        assert tl.accepted_intervals(200, HOST).intervals == [(10.0, 20.0)]
        assert tl.accepted_intervals(300, HOST).intervals == [(10.0, 20.0)]

    def test_removed_announcer_ends_the_announcement_at_the_next_update(
            self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.remove_peer(100)
        server.process(withdraw(20.0, 200, HOST))  # any update of the prefix
        tl = recorder.timeline.finalize(100.0)
        assert server.announced_blackholes() == set()
        assert tl.announced_intervals(HOST).intervals == [(10.0, 20.0)]

    def test_removed_announcer_beside_a_standing_one(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.process(bh(15.0, 200))
        server.remove_peer(100)
        server.process(bh(20.0, 300))
        server.process(withdraw(30.0, 200, HOST))
        server.process(withdraw(40.0, 300, HOST))
        tl = recorder.timeline.finalize(100.0)
        assert tl.announced_intervals(HOST).intervals == [(10.0, 40.0)]

    def test_re_added_announcer_keeps_its_new_announcement(self, server):
        recorder = TimelineRecorder(server)
        server.process(bh(10.0, 100))
        server.remove_peer(100)
        server.add_peer(100)
        server.process(bh(20.0, 100))  # the new session announces again
        server.process(withdraw(30.0, 100, HOST))
        tl = recorder.timeline.finalize(100.0)
        assert tl.announced_intervals(HOST).intervals == [(10.0, 30.0)]
