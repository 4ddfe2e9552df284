"""Fig. 8 — PeeringDB organisation types of the top-100 /32 traffic sources.

Paper: most ASes that do not (or only partially) accept blackhole routes
are network service providers (NSPs) — surprising, since those should be
best prepared for complex BGP configuration.
"""

from benchmarks.conftest import BENCH_SCALE, once, report
from repro.core.droprate import top_source_org_types, top_source_reactions
from repro.core.report import format_table
from repro.ixp.peeringdb import OrgType


def test_bench_fig08_org_types(benchmark, pipeline):
    top_n = max(10, round(100 * max(BENCH_SCALE, 0.2)))
    reactions = top_source_reactions(pipeline.source_table, top_n=top_n)
    hist = once(benchmark, lambda: top_source_org_types(reactions,
                                                        pipeline.peeringdb))
    rows = [[org.value, count] for org, count in
            sorted(hist.items(), key=lambda kv: kv[1], reverse=True)]
    report(
        f"Fig. 8 — org types of the top-{len(reactions)} source ASes",
        "paper:    NSPs dominate the top traffic sources",
        format_table(["org type", "count"], rows),
    )
    nsp = hist.get(OrgType.NSP, 0)
    assert nsp >= max(hist.get(OrgType.CONTENT, 0),
                      hist.get(OrgType.ENTERPRISE, 0))
