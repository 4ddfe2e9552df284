"""Declarative scenario plans.

A :class:`ScenarioPlan` is the complete, randomness-free description of one
synthetic world: who the members are and which import policy each runs,
which customer ASes host which victim hosts, the shared amplifier pool,
and — centrally — the list of :class:`PlannedEvent` records, one per
attack/RTBH episode, each carrying its ground truth (category, vector,
attack interval) next to the blackhole windows the operator will signal.

The plan is built once by :func:`repro.scenario.paper.build_paper_plan`
and then executed by :func:`repro.scenario.runner.run_scenario`; tests can
also construct small plans by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.ixp.peeringdb import OrgType
from repro.mitigation.controller import BlackholeWindow
from repro.net.ip import IPv4Prefix
from repro.net.ports import AmplificationProtocol
from repro.traffic.amplification import AmplifierPool


class PolicyKind(str, Enum):
    """Member import-policy families (see :mod:`repro.bgp.policy`)."""

    WHITELIST_32 = "whitelist-32"
    DEFAULT_LE24 = "default-le24"
    PARTIAL = "partial"
    FULL_BLACKHOLE = "full-blackhole"
    NO_BLACKHOLE = "no-blackhole"


class HostRole(str, Enum):
    SERVER = "server"
    CLIENT = "client"
    SILENT = "silent"


class EventCategory(str, Enum):
    """Ground-truth category of a planned RTBH event."""

    DDOS_VISIBLE = "ddos-visible"
    DDOS_REMOTE = "ddos-remote"
    SILENT = "silent"
    NEAR_SILENT = "near-silent"
    ZOMBIE = "zombie"
    SQUATTING = "squatting"
    TARGETED_EXPERIMENT = "targeted-experiment"
    BILATERAL = "bilateral"


class AttackVector(str, Enum):
    AMPLIFICATION = "amplification"
    CARPET = "carpet"
    SYN_FLOOD = "syn-flood"
    NONE = "none"


@dataclass(frozen=True)
class MemberPlan:
    """One IXP member."""

    asn: int
    policy: PolicyKind
    own_prefix: IPv4Prefix
    org_type: OrgType
    is_announcer: bool = False


@dataclass(frozen=True)
class OriginASPlan:
    """A customer AS whose address space is reachable (and blackholable)
    through an announcing member."""

    asn: int
    announcer_asn: int
    block: IPv4Prefix
    org_type: OrgType


@dataclass(frozen=True)
class VictimHost:
    """One blackholable host and its legitimate-traffic personality."""

    ip: int
    origin_asn: int
    announcer_asn: int
    role: HostRole
    #: (protocol, port, weight) services for servers; empty otherwise
    services: Tuple[Tuple[int, int, float], ...] = ()

    @property
    def host_prefix(self) -> IPv4Prefix:
        return IPv4Prefix(self.ip, 32)


@dataclass(frozen=True)
class PlannedEvent:
    """One RTBH episode with its ground truth."""

    event_id: int
    category: EventCategory
    prefix: IPv4Prefix
    announcer_asn: int
    origin_asn: int
    windows: Tuple[BlackholeWindow, ...]
    victim_ip: Optional[int] = None
    vector: AttackVector = AttackVector.NONE
    protocols: Tuple[AmplificationProtocol, ...] = ()
    attack_start: Optional[float] = None
    attack_end: Optional[float] = None
    attack_pps: float = 0.0
    #: peer ASNs a targeted announcement is restricted to (None = all)
    targets: Optional[Tuple[int, ...]] = None

    @property
    def first_announce(self) -> float:
        return min(w.announce_time for w in self.windows)

    @property
    def has_attack(self) -> bool:
        return self.attack_start is not None and self.attack_end is not None


@dataclass
class ScenarioPlan:
    """The full world description handed to the runner."""

    duration: float
    members: List[MemberPlan]
    origin_asns: List[OriginASPlan]
    victims: List[VictimHost]
    events: List[PlannedEvent]
    amplifier_pool: AmplifierPool
    #: (ingress member ASN, remote origin ASN) pairs for legitimate traffic
    remote_peers: List[Tuple[int, int]]
    #: (scanner ip, ingress asn, origin asn)
    scanners: List[Tuple[int, int, int]] = field(default_factory=list)

    def member_asns(self) -> List[int]:
        return [m.asn for m in self.members]

    def events_of(self, category: EventCategory) -> List[PlannedEvent]:
        return [e for e in self.events if e.category is category]
