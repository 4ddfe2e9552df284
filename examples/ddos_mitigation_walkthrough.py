#!/usr/bin/env python3
"""A single DDoS attack, step by step, on the live IXP API.

This example exercises the substrate directly — no scenario generator:

1. stand up an IXP with members running different import policies,
2. launch a two-vector UDP amplification attack against a victim,
3. detect it with the volumetric detector,
4. announce an RTBH through the blackholing service,
5. inspect who actually drops (live fabric forwarding decisions), and
6. compare against a fine-grained port filter.

Usage::

    python examples/ddos_mitigation_walkthrough.py
"""

import numpy as np

from repro.bgp import (
    BlackholeWhitelistPolicy,
    FullBlackholePolicy,
    MaxPrefixLengthPolicy,
)
from repro.corpus import DataPlaneCorpus
from repro.dataplane import IPFIXSampler
from repro.ixp import IXP
from repro.mitigation import DetectorConfig, VolumetricDetector
from repro.net import IPv4Address, IPv4Prefix
from repro.net.ports import AMPLIFICATION_PORTS, amplification_protocol_for_port
from repro.traffic import (
    AmplificationAttackConfig,
    AmplifierPool,
    generate_amplification_flows,
)

VICTIM_NET = IPv4Prefix("203.0.113.0/24")
VICTIM = IPv4Address("203.0.113.7")


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. the platform: a victim-side member plus three transit members
    #    with the three policy archetypes of §4.2
    print("== 1. IXP setup ==")
    ixp = IXP()
    victim_member = ixp.add_member(64512, originated=[VICTIM_NET],
                                   name="VictimNet")
    policies = {
        64513: ("accepts /32 blackholes", BlackholeWhitelistPolicy()),
        64514: ("factory default (rejects > /24)", MaxPrefixLengthPolicy()),
        64515: ("accepts any blackhole length", FullBlackholePolicy()),
    }
    for asn, (label, policy) in policies.items():
        ixp.add_member(asn, policy=policy, name=f"Transit-{asn}")
        print(f"  AS{asn}: {label}")

    # 2. the attack: NTP + cLDAP reflection at 80k pps for 20 minutes
    print("\n== 2. Attack traffic ==")
    pool = AmplifierPool.build(
        rng,
        origin_asns=list(range(70_000, 70_040)),
        ingress_asns=list(policies),
        amplifiers_per_asn=8,
    )
    attack = AmplificationAttackConfig(
        victim_ip=int(VICTIM),
        start=3_600.0,
        duration=1_200.0,
        total_pps=80_000.0,
        protocols=[amplification_protocol_for_port(123),
                   amplification_protocol_for_port(389)],
        num_amplifiers=120,
    )
    flows = generate_amplification_flows(rng, pool, attack)
    print(f"  {len(flows)} reflector flows, "
          f"{sum(f.pps for f in flows):,.0f} pps total")

    sampler = IPFIXSampler(rng, rate=1_000)  # denser sampling for the demo
    packets = sampler.sample(flows)
    print(f"  {len(packets)} sampled packets (1:1000)")

    # 3. detection
    print("\n== 3. Detection ==")
    detector = VolumetricDetector(DetectorConfig(bin_width=60.0, min_rate=5.0))
    intervals = detector.detect(packets["time"], 0.0, 7_200.0)
    detected_at, cleared_at = intervals[0]
    print(f"  attack detected at t={detected_at:.0f}s "
          f"(latency {detected_at - attack.start:.0f}s), "
          f"cleared at t={cleared_at:.0f}s")

    # 4. mitigation: RTBH for the victim host
    print("\n== 4. RTBH announcement ==")
    blackhole = IPv4Prefix(int(VICTIM), 32)
    ixp.blackholing.announce_blackhole(detected_at, victim_member, blackhole)
    print(f"  {blackhole} announced via the route server at t={detected_at:.0f}s")

    # 5. who drops? live forwarding decisions per ingress member
    print("\n== 5. Forwarding decisions per transit member ==")
    for asn, (label, _) in policies.items():
        mac, dropped = ixp.fabric.forward(ixp.member(asn).peer, VICTIM)
        verdict = "DROPPED at the blackhole MAC" if dropped else \
            f"still FORWARDED to {mac}"
        print(f"  AS{asn} ({label}): {verdict}")
    timeline = ixp.finalize_timeline(7_200.0)
    timeline.mark_dropped(packets)
    corpus = DataPlaneCorpus(packets, sampling_rate=1_000)
    share = corpus.select(dst_prefix=blackhole, t0=detected_at)["dropped"].mean()
    print(f"  -> {100 * share:.0f}% of post-RTBH attack packets dropped "
          "(the rest rides the default-config member)")

    # 6. the fine-grained alternative
    print("\n== 6. Fine-grained filtering comparison ==")
    udp = packets["protocol"] == 17
    filterable = udp & np.isin(packets["src_port"], sorted(AMPLIFICATION_PORTS))
    print(f"  a UDP source-port filter ({len(AMPLIFICATION_PORTS)} known "
          f"amplification ports) would drop "
          f"{100 * filterable.mean():.1f}% of the attack packets")
    print("  ... while keeping the victim reachable for everyone else.")


if __name__ == "__main__":
    main()
