#!/usr/bin/env python3
"""Acceptance audit: which IXP members would actually honour a blackhole?

An IXP operator's view of §4.2: probe every member's import policy with
synthetic blackhole routes of every prefix length (/22–/32) and report the
acceptance matrix, then cross-check against observed drop behaviour on a
generated corpus (the members' "revealed" policies).

Usage::

    python examples/acceptance_audit.py [--scale 0.02] [--days 21]
"""

import argparse
from collections import Counter

import numpy as np

from repro import AnalysisPipeline, ScenarioConfig, run_scenario
from repro.bgp import BLACKHOLE, Route
from repro.core.report import format_table
from repro.net import IPv4Address, IPv4Prefix


def probe_policy(policy) -> dict[int, bool]:
    """Offer one blackhole route per prefix length and record acceptance."""
    out = {}
    for length in range(22, 33):
        route = Route(
            prefix=IPv4Prefix(0xCB007100, length),
            next_hop=IPv4Address("172.16.255.254"),
            peer_asn=64_512,
            as_path=(64_512,),
            communities=frozenset({BLACKHOLE}),
        )
        out[length] = policy.accepts(route)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--days", type=float, default=21.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = ScenarioConfig.paper(scale=args.scale, duration_days=args.days,
                                  seed=args.seed)
    result = run_scenario(config)

    # --- declared policies: direct probe of every member's import filter
    print("== Declared acceptance (policy probe, /22../32) ==")
    matrix = Counter()
    rows = []
    for member in result.ixp.members():
        accept = probe_policy(member.peer.policy)
        matrix[member.policy_name] += 1
        if len(rows) < 8:  # show a sample
            cells = "".join("D" if accept[l] else "." for l in range(22, 33))
            rows.append([f"AS{member.asn}", member.policy_name, cells])
    print(format_table(["member", "policy", "/22........../32 (D=drops)"], rows))
    print("\npolicy census over all members:")
    for name, count in matrix.most_common():
        print(f"  {name:18s} {count:4d} members "
              f"({100 * count / len(result.ixp):.0f}%)")

    # --- revealed policies: what the data plane shows
    print("\n== Revealed acceptance (observed /32 drop shares) ==")
    pipeline = AnalysisPipeline(result.control, result.data,
                                peer_asns=result.ixp.member_asns,
                                peeringdb=result.ixp.peeringdb)
    reactions = pipeline.run("fig7_top_sources", top_n=len(result.ixp))
    policy_of = {m.asn: m.policy_name for m in result.ixp.members()}
    rows = []
    for reaction in reactions[:12]:
        rows.append([
            f"AS{reaction.asn}",
            policy_of.get(reaction.asn, "?"),
            f"{reaction.packets:,}",
            f"{100 * reaction.drop_share:.1f}%",
        ])
    print(format_table(["member", "declared policy", "pkts to /32 BH", "dropped"],
                       rows))

    # consistency check declared vs revealed
    consistent, total = 0, 0
    for reaction in reactions:
        declared = policy_of.get(reaction.asn)
        if declared is None or reaction.packets < 200:
            continue
        total += 1
        expect_drop = declared in ("bh-whitelist-32", "bh-any-length")
        expect_forward = declared in ("default-le24", "no-blackhole")
        if expect_drop and reaction.drop_share > 0.9:
            consistent += 1
        elif expect_forward and reaction.drop_share < 0.1:
            consistent += 1
        elif declared == "bh-partial" and 0.05 < reaction.drop_share < 0.95:
            consistent += 1
    print(f"\ndeclared vs revealed consistency: {consistent}/{total} members "
          f"({100 * consistent / max(total, 1):.0f}%)")


if __name__ == "__main__":
    main()
