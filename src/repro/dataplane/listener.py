"""Bridges the route server's control plane into the acceptance timeline.

The recorder subscribes to a :class:`~repro.bgp.route_server.RouteServer`
and, after each processed update, diffs the accepted state of the peers
whose Loc-RIB entry for the touched prefix changed
(:attr:`~repro.bgp.route_server.RouteServer.loc_rib_changes`) against what
it saw last. Only *blackhole* routes are tracked — ordinary routes never
send traffic to the blackhole MAC. Subscribe before the first update: a
peer's state is read only when it changes. Session tear-downs
(:meth:`~repro.bgp.route_server.RouteServer.remove_peer`) reach the
recorder with the touched prefix's next update, both the acceptance
changes and the announcements they flushed, so the intervals they end
close at that update's time.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.bgp.message import BGPUpdate
from repro.bgp.route import Route
from repro.bgp.route_server import RouteServer
from repro.dataplane.timeline import AcceptanceTimeline
from repro.net.ip import IPv4Prefix


class TimelineRecorder:
    """Listens to a route server and builds an :class:`AcceptanceTimeline`."""

    def __init__(self, server: RouteServer):
        self._server = server
        self.timeline = AcceptanceTimeline()
        #: per prefix: members currently holding an accepted blackhole
        self._accepted_now: Dict[IPv4Prefix, Set[int]] = {}
        #: prefixes currently announced as blackholes, with announcer sets
        self._announcers: Dict[IPv4Prefix, Set[int]] = {}
        server.subscribe(self._on_update)

    def _on_update(self, update: BGPUpdate) -> None:
        prefix = update.prefix
        self._track_server_state(update, prefix)
        changes = self._server.loc_rib_changes
        if changes:
            self._track_acceptance(update.time, prefix, changes)

    def _track_server_state(self, update: BGPUpdate, prefix: IPv4Prefix) -> None:
        announcers = self._announcers.setdefault(prefix, set())
        if update.is_announce and update.is_blackhole:
            if update.peer_asn not in announcers:
                announcers.add(update.peer_asn)
                self.timeline.record_server_announce(prefix, update.time)
        elif update.peer_asn in announcers:
            # withdraw, or re-announce without the blackhole community
            announcers.discard(update.peer_asn)
            self.timeline.record_server_withdraw(prefix, update.time)
        # a session tear-down withdrew these without an update; the
        # server reports them with the prefix's next update (whose own
        # announcer, if re-added since, was settled above)
        for asn in self._server.flushed_announcers:
            if asn != update.peer_asn and asn in announcers:
                announcers.discard(asn)
                self.timeline.record_server_withdraw(prefix, update.time)

    def _track_acceptance(self, time: float, prefix: IPv4Prefix,
                          changes: Dict[int, Optional[Route]]) -> None:
        holders = self._accepted_now.setdefault(prefix, set())
        for asn, route in changes.items():
            accepted = route is not None and route.is_blackhole
            if accepted and asn not in holders:
                holders.add(asn)
                self.timeline.record_acceptance(asn, prefix, True, time)
            elif not accepted and asn in holders:
                holders.discard(asn)
                self.timeline.record_acceptance(asn, prefix, False, time)
