"""The route server decides each announcement once per policy class and
lets refreshes skip re-selection; this checks it against the per-peer
replay of :mod:`tests.bgp.route_server_oracle` on random update streams.

The streams put several announcers on one prefix, refresh standing routes
(often at an unchanged time, so best-path ties fall to the ASN), change
next hops and AS paths, target and deny peers by community, downgrade a
blackhole to a plain route, withdraw routes that were never announced,
and add and remove peers while routes stand. The membership mixes shared
policy classes, salted per-peer classes and a keyless wrapper.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE, RouteServer
from repro.bgp.community import announce_to, do_not_announce_to, suppress_all
from repro.bgp.message import announce, withdraw
from repro.bgp.policy import (
    AcceptAllPolicy,
    BlackholeWhitelistPolicy,
    FullBlackholePolicy,
    ImportPolicy,
    MaxPrefixLengthPolicy,
    NoBlackholePolicy,
    PartialBlackholePolicy,
    PolicyDecision,
)
from repro.dataplane.listener import TimelineRecorder
from repro.net import IPv4Address, IPv4Prefix
from tests.bgp.route_server_oracle import (
    OracleRecorder,
    OracleRouteServer,
    rib_snapshot,
    timeline_snapshot,
)

RS_ASN = 64500
PREFIXES = (IPv4Prefix("203.0.113.7/32"), IPv4Prefix("203.0.113.0/24"),
            IPv4Prefix("198.51.100.0/25"))
NEXT_HOPS = (IPv4Address("192.0.2.66"), IPv4Address("192.0.2.67"))
ORIGINS = (65001, 65002)


class PathFilter(ImportPolicy):
    """A keyless wrapper that also reads the next hop and the AS path, so
    a re-announcement changing either is no refresh to it. It never
    shares a decision with another peer."""

    def __init__(self, inner: ImportPolicy):
        self.inner = inner

    def evaluate(self, route):
        if (route.next_hop == NEXT_HOPS[1]) != (len(route.as_path) == 1):
            return PolicyDecision.REJECT
        return self.inner.evaluate(route)


def _policies():
    return {
        "le24": MaxPrefixLengthPolicy,
        "whitelist": BlackholeWhitelistPolicy,
        "any": FullBlackholePolicy,
        "none": NoBlackholePolicy,
        "all": AcceptAllPolicy,
        "partial-1": lambda: PartialBlackholePolicy(0.5, salt=1),
        "partial-2": lambda: PartialBlackholePolicy(0.5, salt=2),
        "filtered": lambda: PathFilter(BlackholeWhitelistPolicy()),
        "filtered-le24": lambda: PathFilter(MaxPrefixLengthPolicy()),
    }


POLICY_NAMES = tuple(_policies())
#: founding members and their policies; classes repeat on purpose
FOUNDERS = ((100, "le24"), (200, "whitelist"), (300, "le24"),
            (400, "partial-1"), (500, "whitelist"), (600, "filtered"),
            (650, "filtered-le24"))
ASNS = tuple(asn for asn, _ in FOUNDERS) + (700,)


#: action kinds, weighted by repetition
KINDS = ("announce",) * 3 + ("refresh", "reroute") * 2 + (
    "withdraw", "add", "remove")


@st.composite
def streams(draw):
    """Membership changes and UPDATEs, as plain tuples. Refreshes and
    reroutes pick an (announcer, prefix) announced before."""
    actions = []
    announced = []
    time = 0.0
    for _ in range(draw(st.integers(1, 40))):
        time += draw(st.sampled_from((0.0, 0.0, 1.0, 30.0)))
        kind = draw(st.sampled_from(KINDS))
        if kind in ("refresh", "reroute") and announced:
            asn, prefix = draw(st.sampled_from(announced))
        else:
            asn = draw(st.sampled_from(ASNS))
            prefix = draw(st.sampled_from(PREFIXES))
        path = (draw(st.sampled_from(NEXT_HOPS)),
                draw(st.sampled_from(((asn,), (asn, ORIGINS[0]),
                                      (asn, ORIGINS[1])))))
        if kind == "reroute":
            actions.append(("reroute", time, asn, prefix, path))
        elif kind == "announce":
            attrs = path + (
                draw(st.booleans()),                          # blackhole
                draw(st.sampled_from((False, False, True))),  # suppress all
                frozenset(draw(st.sets(st.sampled_from(ASNS), max_size=2))),
                frozenset(draw(st.sets(st.sampled_from(ASNS), max_size=2))),
            )
            actions.append(("announce", time, asn, prefix, attrs))
            announced.append((asn, prefix))
        elif kind in ("refresh", "withdraw"):
            actions.append((kind, time, asn, prefix, None))
        elif kind == "add":
            actions.append(("add", time, asn, None,
                            draw(st.sampled_from(POLICY_NAMES))))
        else:
            actions.append(("remove", time, asn, None, None))
    return actions


def _announcement(time, asn, prefix, attrs):
    next_hop, as_path, blackhole, suppress, allowed, denied = attrs
    communities = {announce_to(RS_ASN, a) for a in allowed}
    communities |= {do_not_announce_to(d) for d in denied}
    if blackhole:
        communities.add(BLACKHOLE)
    if suppress:
        communities.add(suppress_all(RS_ASN))
    return announce(time, asn, prefix, next_hop, as_path=as_path,
                    communities=frozenset(communities))


def replay(server, recorder, actions):
    """Apply ``actions`` to ``server``; actions naming a non-member are
    skipped, a refresh repeats the announcer's last attributes and a
    reroute repeats its communities. Returns the RIB snapshot after each
    action, the log, and the finalized timeline's intervals."""
    policies = _policies()
    for asn, name in FOUNDERS:
        server.add_peer(asn, policy=policies[name]())
    last = {}
    members = {asn for asn, _ in FOUNDERS}
    ribs = []
    end = 0.0
    for kind, time, asn, prefix, arg in actions:
        end = time
        if kind == "add":
            if asn not in members:
                server.add_peer(asn, policy=policies[arg]())
                members.add(asn)
        elif asn not in members:
            pass
        elif kind == "remove":
            server.remove_peer(asn)
            members.discard(asn)
        elif kind == "withdraw":
            server.process(withdraw(time, asn, prefix))
        else:
            attrs = arg if kind == "announce" else last.get((asn, prefix))
            if attrs is not None:
                if kind == "reroute":  # new next hop or AS path
                    attrs = arg + attrs[2:]
                last[(asn, prefix)] = attrs
                server.process(_announcement(time, asn, prefix, attrs))
        ribs.append(rib_snapshot(server, list(PREFIXES)))
    timeline = recorder.timeline.finalize(end + 1.0)
    return ribs, list(server.log), timeline_snapshot(timeline, list(ASNS),
                                                     list(PREFIXES))


@settings(deadline=None)
@given(streams())
def test_policy_class_replay_matches_the_per_peer_oracle(actions):
    server = RouteServer(asn=RS_ASN)
    oracle = OracleRouteServer(asn=RS_ASN)
    ribs, log, intervals = replay(server, TimelineRecorder(server), actions)
    want_ribs, want_log, want_intervals = replay(
        oracle, OracleRecorder(oracle), actions)
    for step, (got, want) in enumerate(zip(ribs, want_ribs)):
        assert got == want, f"RIBs differ after action {step}"
    assert log == want_log
    assert intervals == want_intervals
