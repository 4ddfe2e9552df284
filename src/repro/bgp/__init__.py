"""BGP substrate: update messages, communities (including RFC 7999
BLACKHOLE and route-server redistribution control), RIBs with best-path
selection, import policies, and an IXP route server with per-peer views.

Only the UPDATE-level semantics the measurement study consumes are
modelled; session management (OPEN/KEEPALIVE, timers) is out of scope.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.bgp.community": ("BLACKHOLE", "GRACEFUL_SHUTDOWN", "NO_ADVERTISE",
                            "NO_EXPORT", "Community", "announce_to",
                            "do_not_announce_to", "suppress_all"),
    "repro.bgp.message": ("BGPUpdate", "UpdateAction"),
    "repro.bgp.route": ("Route",),
    "repro.bgp.rib": ("AdjRIBIn", "LocRIB"),
    "repro.bgp.policy": ("AcceptAllPolicy", "BlackholeWhitelistPolicy",
                         "FullBlackholePolicy", "ImportPolicy",
                         "MaxPrefixLengthPolicy", "NoBlackholePolicy",
                         "PartialBlackholePolicy", "PolicyDecision"),
    "repro.bgp.route_server": ("RouteServer", "RouteServerPeer"),
})

__all__ = [
    "Community",
    "BLACKHOLE",
    "NO_EXPORT",
    "NO_ADVERTISE",
    "GRACEFUL_SHUTDOWN",
    "announce_to",
    "do_not_announce_to",
    "suppress_all",
    "BGPUpdate",
    "UpdateAction",
    "Route",
    "AdjRIBIn",
    "LocRIB",
    "ImportPolicy",
    "PolicyDecision",
    "AcceptAllPolicy",
    "MaxPrefixLengthPolicy",
    "NoBlackholePolicy",
    "BlackholeWhitelistPolicy",
    "FullBlackholePolicy",
    "PartialBlackholePolicy",
    "RouteServer",
    "RouteServerPeer",
]
