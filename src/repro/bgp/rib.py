"""Routing Information Bases.

:class:`AdjRIBIn` stores, per (peer, prefix), the latest route learned from
that peer. :class:`LocRIB` runs best-path selection over the candidates per
prefix and answers longest-prefix-match lookups — it doubles as the FIB for
the switching fabric (the simulation needs no separate FIB representation).

Best-path selection implements the deciding steps that matter with
route-server-learned routes (all have equal local preference and no MED):
shortest AS path, then oldest route, then lowest peer ASN as the final
deterministic tie-break.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.bgp.route import Route
from repro.net.ip import IPv4Address, IPv4Prefix
from repro.net.radix import RadixTree


def best_path(candidates: list[Route]) -> Route:
    """Select the best route among candidates for one prefix."""
    return min(candidates, key=lambda r: (len(r.as_path), r.learned_at, r.peer_asn))


#: An Adj-RIB-In entry: a route and the import decision made for it.
#: Entries are immutable, so peers that decided alike can share one.
RIBEntry = Tuple[Route, bool]


class AdjRIBIn:
    """Routes learned from peers, keyed by (peer ASN, prefix).

    Each entry also holds the import decision the owning peer's policy
    made for the route, so re-selecting among the candidates never runs
    the policy again.
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[IPv4Prefix, Dict[int, RIBEntry]] = {}

    def add(self, route: Route, accepted: bool = True) -> Optional[RIBEntry]:
        """Insert or replace the route from ``route.peer_asn`` together
        with its import decision; returns the entry it replaced."""
        return self.put((route, accepted))

    def put(self, entry: RIBEntry) -> Optional[RIBEntry]:
        """Insert or replace an entry; returns the entry it replaced."""
        route = entry[0]
        peers = self._by_prefix.get(route.prefix)
        if peers is None:
            self._by_prefix[route.prefix] = {route.peer_asn: entry}
            return None
        replaced = peers.get(route.peer_asn)
        peers[route.peer_asn] = entry
        return replaced

    def refresh(self, by_decision: Tuple[RIBEntry, RIBEntry]) -> Optional[list[Route]]:
        """Swap in a re-announcement of a stored route, keeping the stored
        decision: ``by_decision`` holds the route's rejected and accepted
        entry, in that order. Returns the accepted routes for the prefix,
        or None when the decision rejected the route."""
        route = by_decision[0][0]
        peers = self._by_prefix[route.prefix]
        accepted = peers[route.peer_asn][1]
        peers[route.peer_asn] = by_decision[accepted]
        if not accepted:
            return None
        if len(peers) == 1:
            return [route]
        return [r for r, ok in peers.values() if ok]

    def pop(self, peer_asn: int, prefix: IPv4Prefix) -> Optional[RIBEntry]:
        """Drop and return the entry from ``peer_asn`` for ``prefix``."""
        peers = self._by_prefix.get(prefix)
        if peers is None:
            return None
        entry = peers.pop(peer_asn, None)
        if not peers:
            del self._by_prefix[prefix]
        return entry

    def remove(self, peer_asn: int, prefix: IPv4Prefix) -> bool:
        """Drop the route from ``peer_asn`` for ``prefix``; True if present."""
        return self.pop(peer_asn, prefix) is not None

    def candidates(self, prefix: IPv4Prefix) -> list[Route]:
        """All routes currently learned for ``prefix``."""
        return [route for route, _ in self._by_prefix.get(prefix, {}).values()]

    def accepted(self, prefix: IPv4Prefix) -> list[Route]:
        """The routes for ``prefix`` that the import policy accepted."""
        return [route for route, ok in self._by_prefix.get(prefix, {}).values() if ok]

    def routes_from(self, peer_asn: int) -> Iterator[Route]:
        for peers in self._by_prefix.values():
            entry = peers.get(peer_asn)
            if entry is not None:
                yield entry[0]

    def prefixes(self) -> Iterator[IPv4Prefix]:
        return iter(self._by_prefix)

    def __len__(self) -> int:
        return sum(len(peers) for peers in self._by_prefix.values())


class LocRIB:
    """Best routes per prefix with longest-prefix-match lookup.

    Typically fed by re-running selection over an :class:`AdjRIBIn` after
    each change, via :meth:`reselect`.
    """

    def __init__(self) -> None:
        self._tree: RadixTree[Route] = RadixTree()

    def install(self, route: Route) -> None:
        self._tree.insert(route.prefix, route)

    def uninstall(self, prefix: IPv4Prefix) -> bool:
        return self._tree.remove(prefix)

    def reselect(self, adj_in: AdjRIBIn, prefix: IPv4Prefix) -> Optional[Route]:
        """Re-run best-path selection for one prefix against ``adj_in``.

        Installs the winner (or removes the prefix when no candidates are
        left) and returns the new best route, if any.
        """
        candidates = adj_in.candidates(prefix)
        if not candidates:
            self._tree.remove(prefix)
            return None
        winner = best_path(candidates)
        self._tree.insert(prefix, winner)
        return winner

    def lookup(self, address: IPv4Address | int) -> Optional[Route]:
        """Longest-prefix-match: the route that would forward ``address``."""
        hit = self._tree.lookup(address)
        return None if hit is None else hit[1]

    def get(self, prefix: IPv4Prefix) -> Optional[Route]:
        return self._tree.get(prefix)

    def routes(self) -> Iterator[Tuple[IPv4Prefix, Route]]:
        return self._tree.items()

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return prefix in self._tree

    def __len__(self) -> int:
        return len(self._tree)
