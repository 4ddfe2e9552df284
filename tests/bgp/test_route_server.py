"""Integration tests for the route server: redistribution, targeted
announcements, policy interaction, and implicit withdraws."""

import pytest

from repro.bgp import (
    BLACKHOLE,
    BlackholeWhitelistPolicy,
    MaxPrefixLengthPolicy,
    RouteServer,
)
from repro.bgp.community import announce_to, do_not_announce_to, suppress_all
from repro.bgp.message import announce, withdraw
from repro.bgp.policy import ImportPolicy
from repro.bgp.route_server import RouteServerPeer
from repro.errors import BGPError
from repro.net import IPv4Address, IPv4Prefix
from repro.scenario import runner

RS_ASN = 64500
NH = IPv4Address("192.0.2.66")
HOST = IPv4Prefix("203.0.113.7/32")
NET = IPv4Prefix("203.0.113.0/24")


@pytest.fixture
def server():
    srv = RouteServer(asn=RS_ASN)
    for asn in (100, 200, 300):
        srv.add_peer(asn)
    return srv


def bh_announce(t, peer, prefix, extra=()):
    return announce(t, peer, prefix, NH,
                    communities=frozenset({BLACKHOLE, *extra}))


class TestMembership:
    def test_duplicate_peer_rejected(self, server):
        with pytest.raises(BGPError):
            server.add_peer(100)

    def test_unknown_peer_update_rejected(self, server):
        with pytest.raises(BGPError):
            server.process(bh_announce(0.0, 999, HOST))

    def test_remove_peer_flushes_routes(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        server.remove_peer(100)
        assert server.announced_blackholes() == set()
        assert HOST not in server.peer(200).visible_blackholes()

    def test_remove_unknown_peer(self, server):
        with pytest.raises(BGPError):
            server.remove_peer(999)


class TestRedistribution:
    def test_default_reaches_all_other_peers(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        assert HOST in server.peer(200).visible_blackholes()
        assert HOST in server.peer(300).visible_blackholes()
        assert HOST not in server.peer(100).visible_blackholes()

    def test_withdraw_revokes_everywhere(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        server.process(withdraw(1.0, 100, HOST))
        assert server.announced_blackholes() == set()
        assert server.peer(200).visible_blackholes() == set()
        assert server.peer(200).accepted_blackholes() == set()

    def test_withdraw_of_unannounced_prefix_is_noop(self, server):
        server.process(withdraw(0.0, 100, HOST))
        assert len(server.log) == 1

    def test_targeted_announce_reaches_only_target(self, server):
        comms = (suppress_all(RS_ASN), announce_to(RS_ASN, 200))
        server.process(bh_announce(0.0, 100, HOST, extra=comms))
        assert HOST in server.peer(200).visible_blackholes()
        assert HOST not in server.peer(300).visible_blackholes()

    def test_deny_community_hides_from_peer(self, server):
        server.process(bh_announce(0.0, 100, HOST, extra=(do_not_announce_to(300),)))
        assert HOST in server.peer(200).visible_blackholes()
        assert HOST not in server.peer(300).visible_blackholes()

    def test_reannounce_with_narrower_targets_implicitly_withdraws(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        assert HOST in server.peer(300).visible_blackholes()
        comms = (suppress_all(RS_ASN), announce_to(RS_ASN, 200))
        server.process(bh_announce(1.0, 100, HOST, extra=comms))
        assert HOST not in server.peer(300).visible_blackholes()
        assert HOST in server.peer(200).visible_blackholes()

    def test_visibility_map(self, server):
        server.process(bh_announce(0.0, 100, HOST, extra=(do_not_announce_to(200),)))
        vis = server.blackhole_visibility()
        assert vis[200] == set() and vis[300] == {HOST}


class TestPolicyInteraction:
    def test_default_policy_peer_rejects_host_route(self):
        srv = RouteServer(asn=RS_ASN)
        srv.add_peer(100)
        srv.add_peer(200, policy=MaxPrefixLengthPolicy())
        srv.process(bh_announce(0.0, 100, HOST))
        peer = srv.peer(200)
        assert HOST in peer.visible_blackholes()  # it sees the route ...
        assert HOST not in peer.accepted_blackholes()  # ... but rejects it
        assert peer.loc_rib.lookup(IPv4Address("203.0.113.7")) is None

    def test_whitelist_policy_peer_accepts_host_blackhole(self):
        srv = RouteServer(asn=RS_ASN)
        srv.add_peer(100)
        srv.add_peer(200, policy=BlackholeWhitelistPolicy())
        srv.process(bh_announce(0.0, 100, HOST))
        assert HOST in srv.peer(200).accepted_blackholes()
        assert srv.peer(200).loc_rib.lookup(IPv4Address("203.0.113.7")).is_blackhole

    def test_24_blackhole_accepted_by_default_policy(self):
        srv = RouteServer(asn=RS_ASN)
        srv.add_peer(100)
        srv.add_peer(200, policy=MaxPrefixLengthPolicy())
        srv.process(bh_announce(0.0, 100, NET))
        assert NET in srv.peer(200).accepted_blackholes()

    def test_log_records_everything(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        server.process(withdraw(1.0, 100, HOST))
        assert len(server.log) == 2
        assert server.log[0].is_announce and server.log[1].is_withdraw

    def test_listener_fires(self, server):
        seen = []
        server.subscribe(seen.append)
        server.process(bh_announce(0.0, 100, HOST))
        assert len(seen) == 1 and seen[0].prefix == HOST

    def test_two_announcers_same_prefix_withdraw_one(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        server.process(bh_announce(1.0, 200, HOST))
        server.process(withdraw(2.0, 100, HOST))
        # AS300 must still see/accept the AS200 route.
        assert HOST in server.peer(300).visible_blackholes()
        assert HOST in server.peer(300).accepted_blackholes()


class CountingPolicy(ImportPolicy):
    """Wraps a policy and remembers every route it evaluated."""

    def __init__(self, inner: ImportPolicy):
        self.inner = inner
        self.name = inner.name
        self.evaluated = []

    def evaluate(self, route):
        self.evaluated.append(route)
        return self.inner.evaluate(route)


@pytest.fixture
def offered_counts(monkeypatch):
    """Per ``receive`` call: how often the peer's policy evaluated the
    offered route during that call."""
    counts = []
    original = RouteServerPeer.receive

    def receive(self, route):
        self.policy.evaluated = []
        accepted = original(self, route)
        counts.append(sum(r is route for r in self.policy.evaluated))
        return accepted

    monkeypatch.setattr(RouteServerPeer, "receive", receive)
    return counts


class TestOnePolicyEvaluation:
    def test_each_offered_route_is_evaluated_once(self, offered_counts):
        srv = RouteServer(asn=RS_ASN)
        srv.add_peer(100, policy=CountingPolicy(MaxPrefixLengthPolicy()))
        srv.add_peer(200, policy=CountingPolicy(BlackholeWhitelistPolicy()))
        srv.add_peer(300, policy=CountingPolicy(MaxPrefixLengthPolicy()))
        srv.process(bh_announce(0.0, 100, HOST))
        srv.process(bh_announce(1.0, 300, HOST))  # a second candidate
        srv.process(bh_announce(2.0, 100, NET))
        srv.process(bh_announce(3.0, 100, HOST))  # re-announce replaces
        assert len(offered_counts) == 8  # two receiving peers per update
        assert set(offered_counts) == {1}
        assert HOST in srv.peer(200).accepted_blackholes()
        assert HOST not in srv.peer(300).accepted_blackholes()

    def test_counted_replay_matches_the_plain_replay(self, monkeypatch,
                                                     offered_counts,
                                                     tiny_config, tiny_result):
        policy_for = runner._policy_for
        monkeypatch.setattr(runner, "_policy_for", lambda kind, salt:
                            CountingPolicy(policy_for(kind, salt)))
        plan = runner.build_paper_plan(tiny_config)
        ixp = runner._build_ixp(tiny_config, plan)
        runner._replay_control_plane(tiny_config, plan, ixp)
        timeline = ixp.finalize_timeline(tiny_config.duration)

        assert offered_counts and set(offered_counts) == {1}
        plain, plain_timeline = tiny_result.ixp, tiny_result.timeline
        assert ixp.route_server.peer_asns == plain.route_server.peer_asns
        for asn in plain.route_server.peer_asns:
            assert (ixp.route_server.peer(asn).accepted_blackholes()
                    == plain.route_server.peer(asn).accepted_blackholes())
        prefixes = plain_timeline.blackhole_prefixes()
        assert prefixes and timeline.blackhole_prefixes() == prefixes

        def intervals(iset):
            return None if iset is None else iset.intervals

        for prefix in prefixes:
            assert (intervals(timeline.announced_intervals(prefix))
                    == intervals(plain_timeline.announced_intervals(prefix)))
            for asn in plain.route_server.peer_asns:
                assert (intervals(timeline.accepted_intervals(asn, prefix))
                        == intervals(plain_timeline.accepted_intervals(asn, prefix)))
