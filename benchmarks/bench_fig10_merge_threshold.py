"""Fig. 10 — fraction of blackholing events in all RTBH announcements as
a function of the merge threshold Δ.

Paper: the last significant drop happens up to Δ ≈ 10 minutes; at that
threshold 400k announcements collapse into 34k events (8.5%). The red
dashed lower bound (Δ = ∞) equals the number of unique prefixes.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core.events import merge_threshold_sweep, unique_prefix_count
from repro.corpus.control import opens_blackhole


def test_bench_fig10_merge_threshold(benchmark, pipeline):
    deltas = np.r_[0.0, np.geomspace(10.0, 48 * 3_600.0, 60)]
    sweep = benchmark(lambda: merge_threshold_sweep(pipeline.control, deltas))
    got_deltas, fraction = sweep
    at_10min = float(fraction[np.searchsorted(got_deltas, 600.0)])
    announcements = sum(1 for m in pipeline.control.rtbh_updates()
                        if opens_blackhole(m))
    lower_bound = unique_prefix_count(pipeline.control) / announcements
    from repro.core.plots import sparkline

    report(
        "Fig. 10 — event fraction vs merge threshold Δ",
        "paper:    Δ=10 min groups 400k announcements into 34k events (8.5%);"
        " knee at ~10 min; lower bound = unique prefixes",
        f"measured: Δ=10 min -> {100 * at_10min:.1f}% of {announcements} announcements"
        f" ({round(at_10min * announcements)} events)",
        f"measured: Δ=∞ lower bound {100 * lower_bound:.1f}%",
        "fraction vs Δ (log grid, 0 s .. 48 h):",
        "  " + sparkline(fraction),
    )
    assert (np.diff(fraction) <= 1e-12).all()        # monotone
    assert fraction[0] == 1.0 or fraction[0] <= 1.0  # sane normalisation
    assert at_10min < 0.8                            # merging collapses events
    assert at_10min >= lower_bound
    # the knee: little further reduction between 10 min and 2 h
    at_2h = float(fraction[np.searchsorted(got_deltas, 7_200.0)])
    assert at_10min - at_2h < 0.15
