"""BGP FlowSpec dissemination at the IXP (RFC 5575, the paper's
"advanced alternative" to RTBH — §1, §7.2, and the authors' follow-up
work on Advanced Blackholing).

Where RTBH can only say *drop everything towards this prefix*, FlowSpec
carries a match rule (protocol, ports, prefixes) plus an action. This
module models the service the way the blackholing service is modelled:

* a victim-side member announces a rule (validated against its address
  space) with optional targeted distribution;
* each receiving member *may or may not* honour FlowSpec — deployment is
  famously partial, so members have a boolean capability plus the same
  acceptance considerations as for blackholes;
* the service keeps per-member rule timelines and can mark a sampled
  packet array with the drops the deployed rules would have caused —
  directly comparable with the RTBH acceptance timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import BGPError, ScenarioError
from repro.ixp.member import IXPMember
from repro.mitigation.finegrained import FilterRule
from repro.net.ip import IPv4Prefix


@dataclass(frozen=True)
class FlowSpecRule:
    """One disseminated FlowSpec entry: a match rule owned by a member."""

    rule_id: int
    owner_asn: int
    match: FilterRule
    #: peers the rule was distributed to (None = all capable peers)
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.match.dst_prefix is None:
            raise ScenarioError("FlowSpec rules here must pin a destination prefix")


@dataclass
class _ActiveRule:
    rule: FlowSpecRule
    announce_time: float
    withdraw_time: Optional[float] = None


class FlowSpecService:
    """Rule dissemination with per-member capability and history."""

    def __init__(self, capable_asns: Sequence[int]):
        self._capable: Set[int] = set(capable_asns)
        self._history: List[_ActiveRule] = []
        self._active: Dict[int, _ActiveRule] = {}
        self._next_id = 0

    @property
    def capable_asns(self) -> Set[int]:
        return set(self._capable)

    # -- signalling -----------------------------------------------------------

    def announce_rule(self, time: float, member: IXPMember, match: FilterRule,
                      targets: Optional[Sequence[int]] = None) -> FlowSpecRule:
        """Validate and distribute a rule; returns the assigned entry.

        Like the blackholing service, a member may only pin destinations
        inside its own address space (RFC 5575's validation procedure ties
        FlowSpec NLRI to the unicast route of the destination)."""
        assert match.dst_prefix is not None  # enforced by FlowSpecRule too
        if not member.originates(match.dst_prefix):
            raise BGPError(
                f"AS{member.asn} may not filter {match.dst_prefix}: "
                "not its address space"
            )
        rule = FlowSpecRule(
            rule_id=self._next_id, owner_asn=member.asn, match=match,
            targets=None if targets is None else tuple(sorted(targets)),
        )
        self._next_id += 1
        entry = _ActiveRule(rule=rule, announce_time=time)
        self._history.append(entry)
        self._active[rule.rule_id] = entry
        return rule

    def withdraw_rule(self, time: float, rule_id: int) -> None:
        entry = self._active.pop(rule_id, None)
        if entry is None:
            raise BGPError(f"FlowSpec rule {rule_id} is not active")
        if time < entry.announce_time:
            raise BGPError("withdraw before announce")
        entry.withdraw_time = time

    def active_rules(self, at_time: float) -> List[FlowSpecRule]:
        return [e.rule for e in self._history
                if e.announce_time <= at_time
                and (e.withdraw_time is None or at_time < e.withdraw_time)]

    def rules_seen_by(self, asn: int, at_time: float) -> List[FlowSpecRule]:
        """Rules a member enforces at ``at_time`` (capability + targeting)."""
        if asn not in self._capable:
            return []
        return [r for r in self.active_rules(at_time)
                if r.targets is None or asn in r.targets]

    # -- data-plane effect -------------------------------------------------------

    def mark_dropped(self, packets: np.ndarray) -> np.ndarray:
        """OR the drops of every deployed rule into ``packets['dropped']``.

        A packet is dropped when its ingress member is FlowSpec-capable,
        the rule was distributed to that member, the packet matches, and
        its timestamp falls into the rule's active window."""
        if len(packets) == 0:
            return packets
        times = packets["time"]
        ingress = packets["ingress_asn"]
        capable = np.isin(ingress, sorted(self._capable))
        for entry in self._history:
            in_window = times >= entry.announce_time
            if entry.withdraw_time is not None:
                in_window &= times < entry.withdraw_time
            if not in_window.any():
                continue
            eligible = capable.copy()
            if entry.rule.targets is not None:
                eligible &= np.isin(ingress, list(entry.rule.targets))
            candidates = in_window & eligible
            if not candidates.any():
                continue
            matched = entry.rule.match.matches(packets)
            packets["dropped"] |= candidates & matched
        return packets

    def __len__(self) -> int:
        return len(self._history)
