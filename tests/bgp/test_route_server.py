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
from repro.errors import BGPError
from repro.telemetry import Telemetry, activate
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

    def test_removed_peer_leaves_standing_target_sets(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        server.remove_peer(300)
        assert server.peers_with_route(HOST) == {200}
        server.process(bh_announce(1.0, 100, HOST,
                                   extra=(do_not_announce_to(200),)))
        assert server.peers_with_route(HOST) == set()
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
    """Wraps a policy and remembers every route it evaluated. It declares
    no decision key, so no other peer ever shares its decisions."""

    def __init__(self, inner: ImportPolicy):
        self.inner = inner
        self.name = inner.name
        self.evaluated = []

    def evaluate(self, route):
        self.evaluated.append(route)
        return self.inner.evaluate(route)


#: every (decision key, route) a keyed counting policy evaluated
EVALUATIONS = []


class CountingLe24(MaxPrefixLengthPolicy):
    def evaluate(self, route):
        EVALUATIONS.append((self.decision_key, route))
        return super().evaluate(route)


class CountingWhitelist(BlackholeWhitelistPolicy):
    def evaluate(self, route):
        EVALUATIONS.append((self.decision_key, route))
        return super().evaluate(route)


class TestOnePolicyEvaluation:
    """At most one ``evaluate`` per (update, policy class); refreshes run
    none."""

    def test_each_offered_route_is_evaluated_once(self):
        srv = RouteServer(asn=RS_ASN)
        for asn in (100, 300, 400):
            srv.add_peer(asn, policy=CountingLe24())
        srv.add_peer(200, policy=CountingWhitelist())
        updates = [
            bh_announce(0.0, 100, HOST),
            bh_announce(1.0, 300, HOST),   # a second candidate
            bh_announce(2.0, 100, NET),
            bh_announce(3.0, 100, HOST),   # a refresh: no evaluation
            bh_announce(4.0, 100, HOST, extra=(do_not_announce_to(400),)),
        ]
        per_update = []
        for update in updates:
            EVALUATIONS.clear()
            srv.process(update)
            per_update.append(sorted(key[0].__name__ for key, route in EVALUATIONS
                                     if route.learned_at == update.time))
            assert len(EVALUATIONS) == len(per_update[-1])
        both = ["CountingLe24", "CountingWhitelist"]
        assert per_update == [both, both, both, [], both]
        assert srv.refreshes == 1 and srv.policy_decisions == 8
        assert HOST in srv.peer(200).accepted_blackholes()
        assert HOST not in srv.peer(300).accepted_blackholes()

    def test_keyless_policies_are_never_shared(self):
        srv = RouteServer(asn=RS_ASN)
        srv.add_peer(100)
        first = CountingPolicy(MaxPrefixLengthPolicy())
        second = CountingPolicy(MaxPrefixLengthPolicy())
        srv.add_peer(200, policy=first)
        srv.add_peer(300, policy=second)
        assert first.decision_key is None
        srv.process(bh_announce(0.0, 100, HOST))
        srv.process(bh_announce(1.0, 100, NET))
        assert [r.prefix for r in first.evaluated] == [HOST, NET]
        assert [r.prefix for r in second.evaluated] == [HOST, NET]

    def test_counted_replay_matches_the_plain_replay(self, monkeypatch,
                                                     tiny_config, tiny_result):
        policy_for = runner._policy_for
        monkeypatch.setattr(runner, "_policy_for", lambda kind, salt:
                            CountingPolicy(policy_for(kind, salt)))
        plan = runner.build_paper_plan(tiny_config)
        ixp = runner._build_ixp(tiny_config, plan)
        server = ixp.route_server
        counts = []

        def count_evaluations(update):
            # keyless wrappers: one evaluation per receiving peer, none
            # for a refresh and none for a withdraw
            for asn in server.peer_asns:
                policy = server.peer(asn).policy
                counts.append(len(policy.evaluated))
                policy.evaluated.clear()

        for asn in server.peer_asns:  # the t=0 regular routes
            server.peer(asn).policy.evaluated.clear()
        server.subscribe(count_evaluations)
        runner._replay_control_plane(tiny_config, plan, ixp)
        timeline = ixp.finalize_timeline(tiny_config.duration)

        assert counts and set(counts) == {0, 1}
        assert server.refreshes > 0
        plain, plain_timeline = tiny_result.ixp, tiny_result.timeline
        assert server.peer_asns == plain.route_server.peer_asns
        for asn in plain.route_server.peer_asns:
            assert (server.peer(asn).accepted_blackholes()
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


class TestUpdateCounter:
    """``route_server.updates{action=…}`` is resolved once per action and
    telemetry context, not once per update."""

    @staticmethod
    def _lookups(telem):
        names = []
        lookup = telem.registry.counter

        def counting(name, /, **labels):
            names.append((name, labels.get("action")))
            return lookup(name, **labels)

        telem.registry.counter = counting
        return names

    def test_series_is_looked_up_once_per_action_per_replay(self, server):
        updates = [bh_announce(float(t), 100, HOST) for t in range(5)]
        updates += [withdraw(5.0, 100, HOST), withdraw(6.0, 200, NET),
                    bh_announce(7.0, 200, NET)]
        for _replay in range(2):
            telem = Telemetry()
            lookups = self._lookups(telem)
            with activate(telem):
                for update in updates:
                    server.process(update)
            assert sorted(lookups) == [("route_server.updates", "announce"),
                                       ("route_server.updates", "withdraw")]
            counters = telem.metrics_snapshot()["counters"]
            assert counters["route_server.updates{action=announce}"] == 6
            assert counters["route_server.updates{action=withdraw}"] == 2

    def test_updates_without_telemetry_count_nowhere(self, server):
        server.process(bh_announce(0.0, 100, HOST))
        telem = Telemetry()
        with activate(telem):
            server.process(withdraw(1.0, 100, HOST))
        assert telem.metrics_snapshot()["counters"] == {
            "route_server.updates{action=withdraw}": 1}
