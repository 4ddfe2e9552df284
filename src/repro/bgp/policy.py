"""Import policies of IXP members.

The paper's central acceptance finding (§4.2, Figs 5–7) is driven entirely
by what member routers do with blackhole routes longer than /24:

* the factory-default configuration rejects any prefix longer than /24,
  blackhole or not — those members keep *forwarding* to the victim;
* careful operators whitelist /32 blackhole routes but usually forget the
  /25–/31 lengths;
* a few configure blackhole acceptance for every length;
* and some accept host routes only for parts of their sessions or prefix
  space, producing the "inconsistent" middle band of Fig. 7.

Each behaviour is a policy class here; scenarios assign a mix across the
membership. Policies are deterministic functions of (member, route) so a
re-run of a scenario reproduces identical drop shares.

Many members run the same configuration, so each policy declares a
:attr:`ImportPolicy.decision_key`: two policies with equal keys make the
same decision for every route, and the route server evaluates a route
once per key rather than once per member (DESIGN §15.1).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from enum import Enum
from typing import Hashable, Optional

from repro.bgp.route import Route
from repro.errors import PolicyError


class PolicyDecision(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"

    def __bool__(self) -> bool:
        return self is PolicyDecision.ACCEPT


class ImportPolicy(ABC):
    """Decides whether a route learned from the route server is installed."""

    #: short identifier used in reports and scenario configs
    name: str = "abstract"

    @property
    def decision_key(self) -> Optional[Hashable]:
        """Equal keys promise equal decisions for every route; ``None``
        (the default) means the policy is never shared with another
        member's. A subclass that adds parameters must extend its parent's
        key with them."""
        return None

    @abstractmethod
    def evaluate(self, route: Route) -> PolicyDecision:
        """ACCEPT to install the route as a best-path candidate.

        The decision may depend on the route's prefix and path attributes
        but not on ``learned_at``: the route server keeps it across
        re-announcements that change nothing else."""

    def accepts(self, route: Route) -> bool:
        return bool(self.evaluate(route))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class AcceptAllPolicy(ImportPolicy):
    """Accepts every route regardless of length or communities."""

    name = "accept-all"

    @property
    def decision_key(self) -> Hashable:
        return (type(self),)

    def evaluate(self, route: Route) -> PolicyDecision:
        return PolicyDecision.ACCEPT


class MaxPrefixLengthPolicy(ImportPolicy):
    """The factory-default filter: reject prefixes longer than ``max_length``
    (default /24), *including* blackhole announcements. Members running this
    policy forward all traffic a /32 RTBH asked them to drop."""

    name = "default-le24"

    def __init__(self, max_length: int = 24):
        if not 0 <= max_length <= 32:
            raise PolicyError(f"max_length out of range: {max_length}")
        self.max_length = max_length

    @property
    def decision_key(self) -> Hashable:
        return (type(self), self.max_length)

    def evaluate(self, route: Route) -> PolicyDecision:
        if route.prefix.length > self.max_length:
            return PolicyDecision.REJECT
        return PolicyDecision.ACCEPT


class BlackholeWhitelistPolicy(ImportPolicy):
    """The common "fixed" configuration: normal routes up to /24, plus an
    explicit whitelist of blackhole prefix lengths (just ``{32}`` by
    default, reproducing the operators who whitelist host routes but leave
    /25–/31 rejected)."""

    name = "bh-whitelist-32"

    def __init__(self, whitelisted_lengths: frozenset[int] | set[int] = frozenset({32}),
                 max_length: int = 24):
        self.whitelisted_lengths = frozenset(whitelisted_lengths)
        self.max_length = max_length
        bad = [l for l in self.whitelisted_lengths if not 0 <= l <= 32]
        if bad:
            raise PolicyError(f"whitelisted lengths out of range: {bad}")

    @property
    def decision_key(self) -> Hashable:
        return (type(self), self.whitelisted_lengths, self.max_length)

    def evaluate(self, route: Route) -> PolicyDecision:
        if route.prefix.length <= self.max_length:
            return PolicyDecision.ACCEPT
        if route.is_blackhole and route.prefix.length in self.whitelisted_lengths:
            return PolicyDecision.ACCEPT
        return PolicyDecision.REJECT


class FullBlackholePolicy(ImportPolicy):
    """Accepts blackhole routes of any length; normal routes up to /24."""

    name = "bh-any-length"

    def __init__(self, max_length: int = 24):
        self.max_length = max_length

    @property
    def decision_key(self) -> Hashable:
        return (type(self), self.max_length)

    def evaluate(self, route: Route) -> PolicyDecision:
        if route.is_blackhole:
            return PolicyDecision.ACCEPT
        if route.prefix.length <= self.max_length:
            return PolicyDecision.ACCEPT
        return PolicyDecision.REJECT


class NoBlackholePolicy(ImportPolicy):
    """Rejects every route carrying the BLACKHOLE community (and any prefix
    longer than /24). A small set of members runs such filters — they are
    why even /24 blackholes never reach a 100% drop rate in Fig. 6."""

    name = "no-blackhole"

    def __init__(self, max_length: int = 24):
        self.max_length = max_length

    @property
    def decision_key(self) -> Hashable:
        return (type(self), self.max_length)

    def evaluate(self, route: Route) -> PolicyDecision:
        if route.is_blackhole or route.prefix.length > self.max_length:
            return PolicyDecision.REJECT
        return PolicyDecision.ACCEPT


class PartialBlackholePolicy(ImportPolicy):
    """An *inconsistent* configuration: blackhole host routes are accepted
    for only a fraction of prefixes.

    Real causes are per-session filters, partial router fleets, or stale
    prefix lists; the net effect seen from the IXP is that the member drops
    traffic to some blackholed hosts while forwarding to others. Acceptance
    is decided by hashing (salt, prefix), so it is deterministic per prefix
    yet uncorrelated across members.
    """

    name = "bh-partial"

    def __init__(self, accept_fraction: float, salt: int, max_length: int = 24):
        if not 0.0 <= accept_fraction <= 1.0:
            raise PolicyError(f"accept_fraction must be in [0,1]: {accept_fraction}")
        self.accept_fraction = accept_fraction
        self.salt = salt
        self.max_length = max_length

    @property
    def decision_key(self) -> Hashable:
        return (type(self), self.accept_fraction, self.salt, self.max_length)

    def evaluate(self, route: Route) -> PolicyDecision:
        if route.prefix.length <= self.max_length:
            return PolicyDecision.ACCEPT
        if not route.is_blackhole:
            return PolicyDecision.REJECT
        digest = hashlib.blake2b(
            f"{self.salt}/{route.prefix}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        if draw < self.accept_fraction:
            return PolicyDecision.ACCEPT
        return PolicyDecision.REJECT
