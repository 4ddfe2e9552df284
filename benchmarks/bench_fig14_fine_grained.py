"""Fig. 14 — relative amount of droppable packets per event when filtering
by the a-priori known UDP amplification port list.

Paper: 90% of the RTBH events could be fully mitigated by dropping known
UDP amplification traffic; the remaining ~10% use random ports,
increasing port numbers, or multiple transport protocols.
"""

from benchmarks.conftest import once, report
from repro.core.filtering import filterable_share_cdf


def test_bench_fig14_fine_grained(benchmark, pipeline, events,
                                  pre_classification):
    cdf = once(benchmark, lambda: filterable_share_cdf(
        events, pipeline.event_rows, pre_classification))
    fully = 1.0 - float(cdf(0.999))
    report(
        "Fig. 14 — droppable share per event with port-based filtering",
        "paper:    ~90% of events fully filterable by the known port list",
        f"measured: {100 * fully:.0f}% of {cdf.n} events fully filterable; "
        f"median share {100 * cdf.median:.0f}%",
    )
    assert fully > 0.6
    assert cdf.median > 0.9
    assert cdf.min < 0.5  # the hard-to-filter tail exists
