"""The per-peer route replay the policy-class route server replaced, kept
as an oracle.

Every target peer runs its own import policy on every announcement,
refreshes included, and re-selects its best path by running the policy
again over all of its candidates. The recorder then walks every peer the
prefix is redistributed to, plus every peer that held it accepted, and
reads each Loc-RIB back. :func:`oracle_snapshot` renders either server
and its recorder into plain values so the two can be compared.

It carries the ``remove_peer`` fixes (a removed peer leaves every standing
announcement's target set), and its recorder treats a removed peer as
holding nothing and closes a removed announcer's announced interval at
the prefix's next update.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.community import redistribution_targets
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.bgp.policy import AcceptAllPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, LocRIB, best_path
from repro.bgp.route import Route
from repro.dataplane.timeline import AcceptanceTimeline
from repro.errors import BGPError
from repro.net.ip import IPv4Prefix


class OraclePeer:
    """One member session that evaluates its policy for every candidate."""

    def __init__(self, asn: int, policy: ImportPolicy):
        self.asn = asn
        self.policy = policy
        self.adj_rib_in = AdjRIBIn()
        self.loc_rib = LocRIB()

    def receive(self, route: Route) -> bool:
        accepted = self.policy.accepts(route)
        self.adj_rib_in.add(route, accepted)
        self._reselect(route.prefix)
        return accepted

    def revoke(self, announcer_asn: int, prefix: IPv4Prefix) -> None:
        self.adj_rib_in.remove(announcer_asn, prefix)
        self._reselect(prefix)

    def _reselect(self, prefix: IPv4Prefix) -> None:
        best = self._best_accepted(prefix)
        if best is None:
            self.loc_rib.uninstall(prefix)
        else:
            self.loc_rib.install(best)

    def _best_accepted(self, prefix: IPv4Prefix) -> Optional[Route]:
        accepted = [r for r in self.adj_rib_in.candidates(prefix)
                    if self.policy.accepts(r)]
        return best_path(accepted) if accepted else None


class OracleRouteServer:
    """The route server as it was: per-peer policy runs on every update."""

    def __init__(self, asn: int):
        self.asn = asn
        self._peers: Dict[int, OraclePeer] = {}
        self._announced: Dict[Tuple[int, IPv4Prefix], Tuple[Route, Set[int]]] = {}
        self.log: List[BGPUpdate] = []
        self._listeners = []

    def add_peer(self, asn: int, policy: Optional[ImportPolicy] = None) -> OraclePeer:
        if asn in self._peers:
            raise BGPError(f"peer AS{asn} already registered")
        peer = OraclePeer(asn, policy or AcceptAllPolicy())
        self._peers[asn] = peer
        for (announcer, _prefix), (route, targets) in self._announced.items():
            if announcer == asn:
                continue
            if asn in redistribution_targets(route.communities, self.asn, (asn,)):
                peer.receive(route)
                targets.add(asn)
        return peer

    def remove_peer(self, asn: int) -> None:
        if asn not in self._peers:
            raise BGPError(f"peer AS{asn} not registered")
        for (announcer, prefix) in [k for k in self._announced if k[0] == asn]:
            self._retract(announcer, prefix)
        for _route, targets in self._announced.values():
            targets.discard(asn)
        del self._peers[asn]

    def peer(self, asn: int) -> OraclePeer:
        return self._peers[asn]

    def has_peer(self, asn: int) -> bool:
        return asn in self._peers

    @property
    def peer_asns(self) -> List[int]:
        return sorted(self._peers)

    def subscribe(self, listener) -> None:
        self._listeners.append(listener)

    def process(self, update: BGPUpdate) -> None:
        if update.peer_asn not in self._peers:
            raise BGPError(f"update from unknown peer AS{update.peer_asn}")
        if update.action is UpdateAction.ANNOUNCE:
            self._apply_announce(update)
        else:
            self._retract(update.peer_asn, update.prefix)
        self.log.append(update)
        for listener in self._listeners:
            listener(update)

    def _apply_announce(self, update: BGPUpdate) -> None:
        route = Route(prefix=update.prefix, next_hop=update.next_hop,
                      peer_asn=update.peer_asn, as_path=update.as_path,
                      communities=update.communities, learned_at=update.time)
        targets = redistribution_targets(
            update.communities, self.asn, self._peers.keys()) - {update.peer_asn}
        key = (update.peer_asn, update.prefix)
        _, previous_targets = self._announced.get(key, (None, set()))
        for asn in previous_targets - targets:
            self._peers[asn].revoke(update.peer_asn, update.prefix)
        for asn in targets:
            self._peers[asn].receive(route)
        self._announced[key] = (route, set(targets))

    def _retract(self, announcer_asn: int, prefix: IPv4Prefix) -> None:
        entry = self._announced.pop((announcer_asn, prefix), None)
        if entry is None:
            return
        for asn in entry[1]:
            self._peers[asn].revoke(announcer_asn, prefix)

    def announces(self, asn: int, prefix: IPv4Prefix) -> bool:
        """Whether ``asn`` has a standing announcement of ``prefix``."""
        return (asn, prefix) in self._announced

    def peers_with_route(self, prefix: IPv4Prefix) -> Set[int]:
        out: Set[int] = set()
        for (_announcer, p), (_route, targets) in self._announced.items():
            if p == prefix:
                out |= targets
        return out


class OracleRecorder:
    """Walks every candidate peer of the touched prefix after each update."""

    def __init__(self, server: OracleRouteServer):
        self._server = server
        self.timeline = AcceptanceTimeline()
        self._accepted_now: Dict[IPv4Prefix, Set[int]] = {}
        self._announcers: Dict[IPv4Prefix, Set[int]] = {}
        server.subscribe(self._on_update)

    def _on_update(self, update: BGPUpdate) -> None:
        prefix = update.prefix
        announcers = self._announcers.setdefault(prefix, set())
        if update.is_announce and update.is_blackhole:
            if update.peer_asn not in announcers:
                announcers.add(update.peer_asn)
                self.timeline.record_server_announce(prefix, update.time)
        elif update.peer_asn in announcers:
            announcers.discard(update.peer_asn)
            self.timeline.record_server_withdraw(prefix, update.time)
        for asn in sorted(announcers):
            # only a removed session's announcement vanishes unannounced
            if asn != update.peer_asn \
                    and not self._server.announces(asn, prefix):
                announcers.discard(asn)
                self.timeline.record_server_withdraw(prefix, update.time)
        holders = self._accepted_now.setdefault(prefix, set())
        for asn in self._server.peers_with_route(prefix) | holders:
            route = (self._server.peer(asn).loc_rib.get(prefix)
                     if self._server.has_peer(asn) else None)
            accepted = route is not None and route.is_blackhole
            if accepted and asn not in holders:
                holders.add(asn)
                self.timeline.record_acceptance(asn, prefix, True, update.time)
            elif not accepted and asn in holders:
                holders.discard(asn)
                self.timeline.record_acceptance(asn, prefix, False, update.time)


def _route_key(route: Route) -> tuple:
    return (route.prefix, route.peer_asn, route.next_hop, route.as_path,
            route.communities, route.learned_at)


def rib_snapshot(server, prefixes: List[IPv4Prefix]) -> dict:
    """Each peer's Adj-RIB-In (routes with learned_at, and decisions) and
    Loc-RIB, and the redistribution view of ``prefixes``, as plain
    values."""
    peers = {}
    for asn in server.peer_asns:
        peer = server.peer(asn)
        adj = sorted(
            (_route_key(r), any(r is a for a in peer.adj_rib_in.accepted(p)))
            for p in peer.adj_rib_in.prefixes()
            for r in peer.adj_rib_in.candidates(p))
        loc = sorted(_route_key(r) for _p, r in peer.loc_rib.routes())
        peers[asn] = (adj, loc)
    return {"peers": peers,
            "with_route": {p: server.peers_with_route(p) for p in prefixes}}


def timeline_snapshot(timeline: AcceptanceTimeline, asns: List[int],
                      prefixes: List[IPv4Prefix]) -> dict:
    """Every non-empty interval of a finalized ``timeline``: announced
    per prefix, accepted per (ASN, prefix)."""
    intervals = {}
    for prefix in timeline.blackhole_prefixes():
        intervals[("announced", prefix)] = \
            timeline.announced_intervals(prefix).intervals
    for prefix in prefixes:
        for asn in asns:
            iset = timeline.accepted_intervals(asn, prefix)
            if iset is not None and len(iset):
                intervals[(asn, prefix)] = iset.intervals
    return intervals
