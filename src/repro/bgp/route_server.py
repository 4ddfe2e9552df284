"""The IXP route server.

Members announce (or withdraw) routes — including RFC 7999 blackholes — to
the route server, which re-distributes them to other members. Redistribution
is controlled per route by the communities of
:mod:`repro.bgp.community`; each receiving member then runs its own import
policy before the route becomes a best-path candidate in its Loc-RIB.

The server keeps the full per-peer state the paper reasons about:

* the master view — every route currently announced at the server,
* per-peer Adj-RIB-In as filtered by redistribution control ("which peers
  can even *see* the blackhole", §4.1), and
* per-peer Loc-RIB after import policy ("which peers *accept* it", §4.2).

Every processed update is appended to :attr:`RouteServer.log`, which is the
raw control-plane corpus of the study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.community import redistribution_targets
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.bgp.policy import AcceptAllPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, LocRIB, best_path
from repro.bgp.route import Route
from repro.errors import BGPError
from repro.net.ip import IPv4Prefix
from repro import telemetry

#: Default route-server ASN (from the 16-bit private-use range).
DEFAULT_ROUTE_SERVER_ASN = 64500


@dataclass
class RouteServerPeer:
    """One member BGP session at the route server."""

    asn: int
    policy: ImportPolicy = field(default_factory=AcceptAllPolicy)
    #: routes the route server redistributed to this peer (pre-policy)
    adj_rib_in: AdjRIBIn = field(default_factory=AdjRIBIn)
    #: routes the peer accepted and selected (post-policy); acts as its FIB
    loc_rib: LocRIB = field(default_factory=LocRIB)

    def receive(self, route: Route) -> bool:
        """Offer a redistributed route to this peer. Returns acceptance."""
        accepted = self.policy.accepts(route)
        self.adj_rib_in.add(route)
        # Re-select among *accepted* candidates only; the new route may have
        # replaced a previously accepted one from the same announcer.
        self._reselect(route.prefix, route, accepted)
        return accepted

    def revoke(self, announcer_asn: int, prefix: IPv4Prefix) -> None:
        """Withdraw the route ``announcer_asn`` had announced for ``prefix``."""
        self.adj_rib_in.remove(announcer_asn, prefix)
        self._reselect(prefix)

    def _reselect(self, prefix: IPv4Prefix, offered: Optional[Route] = None,
                  offered_accepted: bool = False) -> None:
        best = self._best_accepted(prefix, offered, offered_accepted)
        if best is None:
            self.loc_rib.uninstall(prefix)
        else:
            self.loc_rib.install(best)

    def _best_accepted(self, prefix: IPv4Prefix, offered: Optional[Route] = None,
                       offered_accepted: bool = False) -> Optional[Route]:
        """Best candidate for ``prefix`` that the import policy accepts.

        ``offered_accepted`` is the decision already made for ``offered``,
        so that route is not evaluated a second time."""
        accepted = [r for r in self.adj_rib_in.candidates(prefix)
                    if (offered_accepted if r is offered else self.policy.accepts(r))]
        if not accepted:
            return None
        return best_path(accepted)

    def visible_blackholes(self) -> Set[IPv4Prefix]:
        """Blackhole prefixes this peer can currently see (pre-policy)."""
        return {p for p in self.adj_rib_in.prefixes()
                if any(r.is_blackhole for r in self.adj_rib_in.candidates(p))}

    def accepted_blackholes(self) -> Set[IPv4Prefix]:
        """Blackhole prefixes installed in this peer's Loc-RIB."""
        return {p for p, r in self.loc_rib.routes() if r.is_blackhole}


class RouteServer:
    """Multi-lateral peering: one route server, many member sessions."""

    def __init__(self, asn: int = DEFAULT_ROUTE_SERVER_ASN):
        self.asn = asn
        self._peers: Dict[int, RouteServerPeer] = {}
        #: (announcer ASN, prefix) -> (route, peers currently holding it)
        self._announced: Dict[Tuple[int, IPv4Prefix], Tuple[Route, Set[int]]] = {}
        #: per prefix: announcers with a standing announcement (index)
        self._announcers_by_prefix: Dict[IPv4Prefix, Set[int]] = {}
        #: every update processed, in arrival order — the control-plane corpus
        self.log: List[BGPUpdate] = []
        #: optional hooks fired after each processed update
        self._listeners: List[Callable[[BGPUpdate], None]] = []

    # -- membership ---------------------------------------------------------

    def add_peer(self, asn: int, policy: Optional[ImportPolicy] = None) -> RouteServerPeer:
        """Register a member session; ASNs must be unique.

        Like a real route server on session establishment, the new peer
        immediately receives every currently announced route it is a
        redistribution target of.
        """
        if asn in self._peers:
            raise BGPError(f"peer AS{asn} already registered")
        peer = RouteServerPeer(asn=asn, policy=policy or AcceptAllPolicy())
        self._peers[asn] = peer
        for (announcer, _prefix), (route, targets) in self._announced.items():
            if announcer == asn:
                continue
            eligible = redistribution_targets(
                route.communities, self.asn, (asn,)
            )
            if asn in eligible:
                peer.receive(route)
                targets.add(asn)
        return peer

    def remove_peer(self, asn: int) -> None:
        """Deregister a session and flush its announcements everywhere."""
        if asn not in self._peers:
            raise BGPError(f"peer AS{asn} not registered")
        for (announcer, prefix) in [k for k in self._announced if k[0] == asn]:
            self._retract(announcer, prefix)
        del self._peers[asn]

    def peer(self, asn: int) -> RouteServerPeer:
        try:
            return self._peers[asn]
        except KeyError:
            raise BGPError(f"peer AS{asn} not registered") from None

    @property
    def peer_asns(self) -> List[int]:
        return sorted(self._peers)

    def __len__(self) -> int:
        return len(self._peers)

    def subscribe(self, listener: Callable[[BGPUpdate], None]) -> None:
        """Register a hook invoked after each processed update."""
        self._listeners.append(listener)

    # -- update processing ---------------------------------------------------

    def process(self, update: BGPUpdate) -> None:
        """Apply one UPDATE from a member session and redistribute it."""
        if update.peer_asn not in self._peers:
            raise BGPError(f"update from unknown peer AS{update.peer_asn}")
        if update.action is UpdateAction.ANNOUNCE:
            self._apply_announce(update)
        else:
            self._retract(update.peer_asn, update.prefix)
        self.log.append(update)
        telemetry.current().counter(
            "route_server.updates", action=update.action.value).inc()
        for listener in self._listeners:
            listener(update)

    def _apply_announce(self, update: BGPUpdate) -> None:
        assert update.next_hop is not None
        route = Route(
            prefix=update.prefix,
            next_hop=update.next_hop,
            peer_asn=update.peer_asn,
            as_path=update.as_path,
            communities=update.communities,
            learned_at=update.time,
        )
        targets = redistribution_targets(
            update.communities, self.asn, self._peers.keys()
        ) - {update.peer_asn}
        key = (update.peer_asn, update.prefix)
        _, previous_targets = self._announced.get(key, (None, set()))
        # Peers no longer targeted get an implicit withdraw.
        for asn in previous_targets - targets:
            self._peers[asn].revoke(update.peer_asn, update.prefix)
        for asn in targets:
            self._peers[asn].receive(route)
        self._announced[key] = (route, set(targets))
        self._announcers_by_prefix.setdefault(update.prefix, set()).add(update.peer_asn)

    def _retract(self, announcer_asn: int, prefix: IPv4Prefix) -> None:
        key = (announcer_asn, prefix)
        entry = self._announced.pop(key, None)
        if entry is None:
            return  # withdrawing something never announced is a no-op
        announcers = self._announcers_by_prefix.get(prefix)
        if announcers is not None:
            announcers.discard(announcer_asn)
            if not announcers:
                del self._announcers_by_prefix[prefix]
        _, targets = entry
        for asn in targets:
            if asn in self._peers:
                self._peers[asn].revoke(announcer_asn, prefix)

    # -- views ----------------------------------------------------------------

    def announced_routes(self) -> Iterable[Route]:
        """All routes currently announced at the server (the master view)."""
        return (route for route, _ in self._announced.values())

    def announced_blackholes(self) -> Set[IPv4Prefix]:
        """Blackhole prefixes currently active at the server."""
        return {r.prefix for r in self.announced_routes() if r.is_blackhole}

    def peers_with_route(self, prefix: IPv4Prefix) -> Set[int]:
        """Peers the route server currently redistributes ``prefix`` to
        (union over all announcers of the prefix)."""
        out: Set[int] = set()
        for announcer in self._announcers_by_prefix.get(prefix, ()):
            out |= self._announced[(announcer, prefix)][1]
        return out

    def blackhole_visibility(self) -> Dict[int, Set[IPv4Prefix]]:
        """Per-peer sets of currently *visible* blackhole prefixes."""
        return {asn: peer.visible_blackholes() for asn, peer in self._peers.items()}
