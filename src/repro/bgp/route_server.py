"""The IXP route server.

Members announce (or withdraw) routes — including RFC 7999 blackholes — to
the route server, which re-distributes them to other members. Redistribution
is controlled per route by the communities of
:mod:`repro.bgp.community`; each receiving member's import policy then
decides whether the route becomes a best-path candidate in its Loc-RIB.

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
from typing import (AbstractSet, Callable, Dict, FrozenSet, Hashable,
                    Iterable, List, NamedTuple, Optional, Set, Tuple)

from repro.bgp.community import Community, redistribution_targets
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.bgp.policy import AcceptAllPolicy, ImportPolicy
from repro.bgp.rib import AdjRIBIn, LocRIB, RIBEntry, best_path
from repro.bgp.route import Route
from repro.errors import BGPError
from repro.net.ip import IPv4Prefix
from repro import telemetry

#: Default route-server ASN (from the 16-bit private-use range).
DEFAULT_ROUTE_SERVER_ASN = 64500

_NO_ANNOUNCERS: FrozenSet[int] = frozenset()


class _Fanout(NamedTuple):
    """Where routes carrying one community set go."""

    #: every peer the communities redistribute to (announcer included)
    targets: FrozenSet[int]
    #: the same peers grouped by decision class, in registration order
    classes: List[Tuple[ImportPolicy, List["RouteServerPeer"]]]


def _entries(route: Route) -> Tuple[RIBEntry, RIBEntry]:
    """The rejected and the accepted Adj-RIB-In entry of ``route``, in
    that order (indexed by the decision); every target shares them."""
    return ((route, False), (route, True))


def _is_refresh(standing: Route, route: Route) -> bool:
    """Whether ``route`` re-announces ``standing`` unchanged but for its
    ``learned_at``."""
    return (route.next_hop == standing.next_hop
            and route.as_path == standing.as_path
            and route.communities == standing.communities)


@dataclass
class RouteServerPeer:
    """One member BGP session at the route server.

    The server decides each route's import once per policy class and
    hands the decision in; the peer stores it beside the route in its
    Adj-RIB-In and keeps its Loc-RIB equal to the best accepted candidate
    per prefix. Each method records in ``changes`` (ASN -> new entry) when
    it changed the Loc-RIB entry for the prefix.
    """

    asn: int
    policy: ImportPolicy = field(default_factory=AcceptAllPolicy)
    #: routes the route server redistributed to this peer (pre-policy),
    #: each with this peer's import decision
    adj_rib_in: AdjRIBIn = field(default_factory=AdjRIBIn)
    #: routes the peer accepted and selected (post-policy); acts as its FIB
    loc_rib: LocRIB = field(default_factory=LocRIB)

    def offer(self, entry: RIBEntry,
              changes: Dict[int, Optional[Route]]) -> None:
        """Store a redistributed route with the decision made for it."""
        replaced = self.adj_rib_in.put(entry)
        # The accepted set changes only if it gains this route or loses
        # the one it replaced.
        if entry[1] or (replaced is not None and replaced[1]):
            self._reselect(entry[0].prefix, changes)

    def refresh(self, by_decision: Tuple[RIBEntry, RIBEntry],
                changes: Dict[int, Optional[Route]]) -> None:
        """Swap in a re-announcement that differs only in ``learned_at``.

        The stored decision stands. The refreshed route is the best path
        unless another accepted candidate competes, because its later
        ``learned_at`` can lose a tie it used to win. Replacing the entry
        by its own refresh is not recorded as a change."""
        accepted = self.adj_rib_in.refresh(by_decision)
        if accepted is None:
            return
        route = by_decision[1][0]
        if len(accepted) == 1:
            self.loc_rib.install(route)
            return
        before = self.loc_rib.get(route.prefix)
        best = best_path(accepted)
        if best is before:
            return
        self.loc_rib.install(best)
        if best is not route or before.peer_asn != route.peer_asn:
            changes[self.asn] = best

    def revoke(self, announcer_asn: int, prefix: IPv4Prefix,
               changes: Dict[int, Optional[Route]]) -> None:
        """Withdraw the route ``announcer_asn`` had announced for ``prefix``."""
        entry = self.adj_rib_in.pop(announcer_asn, prefix)
        if entry is not None and entry[1]:
            self._reselect(prefix, changes)

    def _reselect(self, prefix: IPv4Prefix,
                  changes: Dict[int, Optional[Route]]) -> None:
        accepted = self.adj_rib_in.accepted(prefix)
        best = best_path(accepted) if accepted else None
        before = self.loc_rib.get(prefix)
        if best is before:
            return
        if best is None:
            self.loc_rib.uninstall(prefix)
        else:
            self.loc_rib.install(best)
        changes[self.asn] = best

    def visible_blackholes(self) -> Set[IPv4Prefix]:
        """Blackhole prefixes this peer can currently see (pre-policy)."""
        return {p for p in self.adj_rib_in.prefixes()
                if any(r.is_blackhole for r in self.adj_rib_in.candidates(p))}

    def accepted_blackholes(self) -> Set[IPv4Prefix]:
        """Blackhole prefixes installed in this peer's Loc-RIB."""
        return {p for p, r in self.loc_rib.routes() if r.is_blackhole}


class RouteServer:
    """Multi-lateral peering: one route server, many member sessions.

    An announcement is decided once per policy class: peers whose
    policies share a :attr:`~repro.bgp.policy.ImportPolicy.decision_key`
    share one evaluation. A refresh — a re-announcement with the same
    next hop, AS path and communities — keeps every stored decision and
    redistribution target and only swaps in the newer route (DESIGN §15.1).
    """

    def __init__(self, asn: int = DEFAULT_ROUTE_SERVER_ASN):
        self.asn = asn
        self._peers: Dict[int, RouteServerPeer] = {}
        #: (announcer ASN, prefix) -> (the route's entries by decision,
        #: peers currently holding it)
        self._announced: Dict[Tuple[int, IPv4Prefix],
                              Tuple[Tuple[RIBEntry, RIBEntry], Set[int]]] = {}
        #: per prefix: announcers with a standing announcement (index)
        self._announcers_by_prefix: Dict[IPv4Prefix, Set[int]] = {}
        #: per community set: the peers it redistributes to, and the same
        #: peers grouped by decision class; rebuilt on membership changes
        self._fanout: Dict[FrozenSet[Community], _Fanout] = {}
        #: Loc-RIB changes made by session set-up or tear-down, which no
        #: update carries; reported with the prefix's next update
        self._unreported: Dict[IPv4Prefix, Dict[int, Optional[Route]]] = {}
        #: per prefix: announcers whose announcement a session tear-down
        #: flushed; reported with the prefix's next update
        self._flushed: Dict[IPv4Prefix, Set[int]] = {}
        #: every update processed, in arrival order — the control-plane corpus
        self.log: List[BGPUpdate] = []
        #: the peers whose Loc-RIB entry for the last processed update's
        #: prefix changed, with the new entry (None: uninstalled)
        self.loc_rib_changes: Dict[int, Optional[Route]] = {}
        #: announcers whose announcement of the last processed update's
        #: prefix a session tear-down flushed since the prefix's previous
        #: update
        self.flushed_announcers: AbstractSet[int] = _NO_ANNOUNCERS
        #: announcements that only refreshed a standing route
        self.refreshes = 0
        #: import-policy evaluations, at most one per (update, class)
        self.policy_decisions = 0
        #: optional hooks fired after each processed update
        self._listeners: List[Callable[[BGPUpdate], None]] = []
        #: the ``route_server.updates`` counter per action, resolved once
        #: per telemetry context (``_counted_by``)
        self._update_counters: Dict[UpdateAction, telemetry.Counter] = {}
        self._counted_by: Optional[telemetry.Telemetry] = None

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
        self._fanout.clear()
        changes: Dict[int, Optional[Route]] = {}
        for (announcer, _prefix), (entries, targets) in self._announced.items():
            if announcer == asn:
                continue
            route = entries[1][0]
            eligible = redistribution_targets(
                route.communities, self.asn, (asn,)
            )
            if asn in eligible:
                peer.offer(entries[self._decide(peer.policy, route)], changes)
                targets.add(asn)
        for prefix, route in peer.loc_rib.routes():
            if route.is_blackhole:
                self._unreported.setdefault(prefix, {})[asn] = route
        return peer

    def remove_peer(self, asn: int) -> None:
        """Deregister a session and flush its announcements everywhere."""
        peer = self.peer(asn)
        for (announcer, prefix) in [k for k in self._announced if k[0] == asn]:
            targets = self._announced[(announcer, prefix)][1]
            before = {t: self._peers[t].loc_rib.get(prefix) for t in targets}
            changes: Dict[int, Optional[Route]] = {}
            self._retract(announcer, prefix, changes)
            self._flushed.setdefault(prefix, set()).add(asn)
            for t, route in changes.items():
                old = before[t]
                if ((old is not None and old.is_blackhole)
                        or (route is not None and route.is_blackhole)):
                    self._unreported.setdefault(prefix, {})[t] = route
        for prefix, route in peer.loc_rib.routes():
            if route.is_blackhole:
                self._unreported.setdefault(prefix, {})[asn] = None
        for _entries, targets in self._announced.values():
            targets.discard(asn)
        del self._peers[asn]
        self._fanout.clear()

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
        """Register a hook invoked after each processed update; it may read
        :attr:`loc_rib_changes`."""
        self._listeners.append(listener)

    # -- update processing ---------------------------------------------------

    def process(self, update: BGPUpdate) -> None:
        """Apply one UPDATE from a member session and redistribute it."""
        if update.peer_asn not in self._peers:
            raise BGPError(f"update from unknown peer AS{update.peer_asn}")
        changes = self._unreported.pop(update.prefix, None) or {}
        self.flushed_announcers = self._flushed.pop(update.prefix,
                                                    _NO_ANNOUNCERS)
        if update.action is UpdateAction.ANNOUNCE:
            self._apply_announce(update, changes)
        else:
            self._retract(update.peer_asn, update.prefix, changes)
        self.loc_rib_changes = changes
        self.log.append(update)
        self._update_counter(update.action).inc()
        for listener in self._listeners:
            listener(update)

    def _update_counter(self, action: UpdateAction) -> telemetry.Counter:
        telem = telemetry.current()
        if telem is not self._counted_by:
            self._counted_by = telem
            self._update_counters = {}
        counter = self._update_counters.get(action)
        if counter is None:
            counter = self._update_counters[action] = telem.counter(
                "route_server.updates", action=action.value)
        return counter

    def _apply_announce(self, update: BGPUpdate,
                        changes: Dict[int, Optional[Route]]) -> None:
        assert update.next_hop is not None
        announcer, prefix = update.peer_asn, update.prefix
        route = Route(
            prefix=prefix,
            next_hop=update.next_hop,
            peer_asn=announcer,
            as_path=update.as_path,
            communities=update.communities,
            learned_at=update.time,
        )
        key = (announcer, prefix)
        entries = _entries(route)
        standing = self._announced.get(key)
        if standing is not None and _is_refresh(standing[0][1][0], route):
            self.refreshes += 1
            targets = standing[1]
            self._announced[key] = (entries, targets)
            for asn in targets:
                self._peers[asn].refresh(entries, changes)
            return
        fanout = self._fanout_for(update.communities)
        targets = set(fanout.targets)
        targets.discard(announcer)
        if standing is not None:
            # Peers no longer targeted get an implicit withdraw.
            for asn in standing[1] - targets:
                self._peers[asn].revoke(announcer, prefix, changes)
        for policy, peers in fanout.classes:
            if len(peers) == 1 and peers[0].asn == announcer:
                continue
            entry = entries[self._decide(policy, route)]
            for peer in peers:
                if peer.asn != announcer:
                    peer.offer(entry, changes)
        self._announced[key] = (entries, targets)
        self._announcers_by_prefix.setdefault(prefix, set()).add(announcer)

    def _decide(self, policy: ImportPolicy, route: Route) -> bool:
        self.policy_decisions += 1
        return policy.accepts(route)

    def _fanout_for(self, communities: FrozenSet[Community]) -> _Fanout:
        fanout = self._fanout.get(communities)
        if fanout is None:
            targets = redistribution_targets(communities, self.asn, self._peers)
            classes: Dict[Hashable, Tuple[ImportPolicy, List[RouteServerPeer]]] = {}
            for asn, peer in self._peers.items():
                if asn in targets:
                    key = peer.policy.decision_key
                    if key is None:
                        key = (None, asn)  # never shared
                    classes.setdefault(key, (peer.policy, []))[1].append(peer)
            fanout = self._fanout[communities] = _Fanout(
                targets, list(classes.values()))
        return fanout

    def _retract(self, announcer_asn: int, prefix: IPv4Prefix,
                 changes: Dict[int, Optional[Route]]) -> None:
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
            self._peers[asn].revoke(announcer_asn, prefix, changes)

    # -- views ----------------------------------------------------------------

    def announced_routes(self) -> Iterable[Route]:
        """All routes currently announced at the server (the master view)."""
        return (entries[1][0] for entries, _ in self._announced.values())

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
