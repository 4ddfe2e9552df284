"""Fig. 6 — distribution of dropped traffic shares for /24 and /32 RTBHs.

Paper: /24 drop rates vary between 82% and 100% with a median of 97%
(predictable); /32 rates span almost 0–100% with quartiles ≈30/53/88%
(highly unpredictable).
"""

from benchmarks.conftest import once, report
from repro.core.droprate import drop_rate_cdf_by_length


def test_bench_fig06_droprate_cdf(benchmark, pipeline, events):
    cdfs = once(benchmark, lambda: drop_rate_cdf_by_length(
        events, pipeline.event_rows, lengths=(24, 32)))
    q24 = cdfs[24].quartiles()
    q32 = cdfs[32].quartiles()
    from repro.core.plots import cdf_plot

    report(
        "Fig. 6 — per-event drop-share CDFs",
        "paper:    /24: range 82-100%, median 97%",
        f"measured: /24: min {100 * cdfs[24].min:.0f}%, median {100 * q24[1]:.0f}%, "
        f"max {100 * cdfs[24].max:.0f}%  (n={cdfs[24].n})",
        "paper:    /32: quartiles 30% / 53% / 88%",
        f"measured: /32: quartiles {100 * q32[0]:.0f}% / {100 * q32[1]:.0f}% / "
        f"{100 * q32[2]:.0f}%  (n={cdfs[32].n})",
        "/32 drop-share CDF:",
        cdf_plot(cdfs[32], x_label="drop share"),
    )
    assert q24[1] > 0.9
    assert q32[0] < q32[1] < q32[2]
    assert 0.3 < q32[1] < 0.7
    assert q32[2] - q32[0] > 0.2  # the /32 spread is wide
