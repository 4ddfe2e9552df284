"""Fig. 7 — reaction of the top-100 source (handover) ASes to /32 RTBHs.

Paper: of the top 100 traffic sources, only 32 drop more than 99% of the
traffic, 55 forward more than 99%, and 13 behave inconsistently. The mix
follows the member policy landscape; at the benchmark's reduced member
count the top-N is scaled accordingly.
"""

from benchmarks.conftest import BENCH_SCALE, once, report
from repro.core.droprate import (
    reaction_buckets,
    source_table,
    top_source_reactions,
)


def test_bench_fig07_top_sources(benchmark, pipeline, events):
    top_n = max(10, round(100 * max(BENCH_SCALE, 0.2)))
    reactions = once(benchmark, lambda: top_source_reactions(
        source_table(events, pipeline.event_rows), top_n=top_n))
    buckets = reaction_buckets(reactions)
    n = len(reactions)
    report(
        f"Fig. 7 — top-{n} source ASes' reaction to /32 RTBHs",
        "paper:    top-100: 32 drop >99%, 55 forward >99%, 13 inconsistent",
        f"measured: top-{n}: {buckets['drop_ge_99']} drop >99%, "
        f"{buckets['forward_ge_99']} forward >99%, "
        f"{buckets['inconsistent']} inconsistent",
    )
    assert buckets["drop_ge_99"] > 0
    assert buckets["forward_ge_99"] > 0
    assert buckets["inconsistent"] > 0
    # forwarders outnumber or match droppers (default configs dominate)
    assert buckets["forward_ge_99"] >= 0.5 * buckets["drop_ge_99"]
