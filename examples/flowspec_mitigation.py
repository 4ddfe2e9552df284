#!/usr/bin/env python3
"""FlowSpec vs RTBH, side by side on the same attack.

The paper's conclusion (§7.2) is that fine-grained filtering would stop
most observed attacks without collateral damage — but deployment is
partial, just like blackhole acceptance. This example runs one reflection
attack against an IXP where only *some* members honour FlowSpec, and
compares three mitigations on identical traffic:

1. do nothing,
2. a /32 RTBH (with realistic partial acceptance),
3. a FlowSpec rule dropping UDP/123+UDP/389 towards the victim
   (with realistic partial capability).

Usage::

    python examples/flowspec_mitigation.py
"""

import numpy as np

from repro.bgp import BlackholeWhitelistPolicy, MaxPrefixLengthPolicy
from repro.dataplane import IPFIXSampler
from repro.ixp import IXP, FlowSpecService
from repro.mitigation import FilterRule
from repro.net import IPv4Address, IPv4Prefix
from repro.net.ports import amplification_protocol_for_port
from repro.traffic import (
    AmplificationAttackConfig,
    AmplifierPool,
    ClientProfile,
    generate_amplification_flows,
    generate_client_traffic,
)

VICTIM_NET = IPv4Prefix("203.0.113.0/24")
VICTIM = IPv4Address("203.0.113.7")


def main() -> None:
    rng = np.random.default_rng(3)

    # platform: 6 transit members; half accept /32 blackholes, half run
    # factory defaults; a *different* half supports FlowSpec
    ixp = IXP()
    victim_member = ixp.add_member(64512, originated=[VICTIM_NET])
    transit = []
    for i in range(6):
        asn = 64513 + i
        policy = BlackholeWhitelistPolicy() if i % 2 == 0 else MaxPrefixLengthPolicy()
        ixp.add_member(asn, policy=policy)
        transit.append(asn)
    flowspec = FlowSpecService(capable_asns=transit[:4])  # 4 of 6 capable

    # traffic: NTP+cLDAP reflection plus a legitimate client of the victim
    pool = AmplifierPool.build(rng, origin_asns=range(70_000, 70_030),
                               ingress_asns=transit, amplifiers_per_asn=6)
    attack_cfg = AmplificationAttackConfig(
        victim_ip=int(VICTIM), start=0.0, duration=1_800.0, total_pps=60_000.0,
        protocols=[amplification_protocol_for_port(123),
                   amplification_protocol_for_port(389)],
        num_amplifiers=90,
    )
    flows = generate_amplification_flows(rng, pool, attack_cfg)
    client = ClientProfile(ip=int(VICTIM), member_asn=victim_member.asn,
                           base_pps_in=40.0, base_pps_out=10.0)
    flows += generate_client_traffic(rng, client,
                                     [(asn, 55_000) for asn in transit], 0)
    packets = IPFIXSampler(rng, rate=100).sample(flows)
    attack_mask = packets["src_port"] != 0  # placeholder, refined below
    attack_mask = np.isin(packets["src_port"], [123, 389]) & (packets["protocol"] == 17)
    legit_mask = ~attack_mask
    print(f"sampled {len(packets)} packets "
          f"({attack_mask.sum()} attack, {legit_mask.sum()} legitimate)")

    def survival(dropped: np.ndarray, label: str) -> None:
        attack_left = 1.0 - dropped[attack_mask].mean()
        legit_left = 1.0 - dropped[legit_mask].mean() if legit_mask.any() else 1.0
        print(f"  {label:34s} attack surviving: {100 * attack_left:5.1f}%   "
              f"legitimate surviving: {100 * legit_left:5.1f}%")

    print("\nmitigation comparison (traffic towards the victim):")
    survival(np.zeros(len(packets), dtype=bool), "no mitigation")

    # RTBH: accepted only by the whitelist members
    ixp.blackholing.announce_blackhole(0.0, victim_member,
                                       IPv4Prefix(int(VICTIM), 32))
    timeline = ixp.finalize_timeline(3_600.0)
    rtbh_packets = packets.copy()
    timeline.mark_dropped(rtbh_packets)
    survival(rtbh_packets["dropped"], "/32 RTBH (partial acceptance)")

    # FlowSpec: port-scoped, honoured by the capable members only
    fs_packets = packets.copy()
    rule = FilterRule(protocol=17, src_ports=frozenset({123, 389}),
                      dst_prefix=IPv4Prefix(int(VICTIM), 32))
    flowspec.announce_rule(0.0, victim_member, rule)
    flowspec.mark_dropped(fs_packets)
    survival(fs_packets["dropped"], "FlowSpec rule (partial capability)")

    print("\ntakeaway: RTBH trades away *all* legitimate reachability at the"
          "\naccepting members; FlowSpec keeps the victim reachable and only"
          "\nmisses the attack share entering via non-capable members.")


if __name__ == "__main__":
    main()
