"""Fig. 15 — cumulative share of UDP amplification events that each
handover AS and origin AS participated in.

Paper: 501 handover ASes (55% of members) and 11,124 origin ASes appear;
most participate in <10% (handover) / <3% (origin) of events, but a few
appear in 20–60%; the top origin AS (60% of events) and top handover AS
(62%) are the same AS. On average 1,086 amplifiers, 30 handover and 73
origin ASes per attack (amplifier counts scale with the benchmark scale).
"""

from benchmarks.conftest import once, report
from repro.core.filtering import as_participation


def test_bench_fig15_as_participation(benchmark, pipeline, events,
                                      pre_classification):
    part = once(benchmark, lambda: as_participation(
        events, pipeline.event_rows, pre_classification))
    top_origin = part.top("origin", 1)[0]
    top_handover = part.top("handover", 1)[0]
    import numpy as np

    origin_median = float(np.median(list(part.origin.values())))
    handover_median = float(np.median(list(part.handover.values())))
    report(
        "Fig. 15 — per-AS participation in amplification events",
        "paper:    top origin AS in 60% of events, top handover in 62%;"
        " most origin ASes <3%, most handover <10%",
        f"measured: top origin AS{top_origin[0]} in {100 * top_origin[1]:.0f}%;"
        f" top handover AS{top_handover[0]} in {100 * top_handover[1]:.0f}%",
        f"measured: median participation origin {100 * origin_median:.1f}%,"
        f" handover {100 * handover_median:.1f}%",
        f"measured: per event (sampled): {part.mean_amplifiers_per_event:.0f}"
        f" amplifiers, {part.mean_handover_asns_per_event:.0f} handover /"
        f" {part.mean_origin_asns_per_event:.0f} origin ASes",
    )
    assert top_origin[1] > 0.25          # heavy hitters exist
    assert origin_median < 0.15          # the bulk participates rarely
    assert part.mean_origin_asns_per_event >= part.mean_handover_asns_per_event
