"""Fig. 5 — observed shares of dropped traffic by RTBH prefix length.

Paper: 99.9% of blackhole traffic goes to /32 prefixes, of which only 50%
of packets (44% of bytes) are dropped; /22–/24 blackholes are accepted in
93–99% of cases; /25–/31 behave like /32 or worse (operators whitelist
/32 but not the lengths in between).
"""

from benchmarks.conftest import once, report
from repro.core.droprate import drop_rate_by_prefix_length
from repro.core.report import format_table


def test_bench_fig05_droprate_by_prefixlen(benchmark, pipeline, events):
    rates = once(benchmark,
                 lambda: drop_rate_by_prefix_length(events,
                                                    pipeline.event_rows))
    rows = []
    for i, length in enumerate(rates.lengths):
        rows.append([f"/{int(length)}",
                     f"{100 * rates.drop_share_packets[i]:.1f}%",
                     f"{100 * rates.drop_share_bytes[i]:.1f}%",
                     f"{100 * rates.traffic_share[i]:.2f}%"])
    report(
        "Fig. 5 — dropped share by prefix length",
        "paper:    /32 drops 50% pkts / 44% bytes; /22-/24 drop 93-99%;"
        " /25-/31 especially low; ~99.9% of traffic is to /32",
        format_table(["len", "drop(pkts)", "drop(bytes)", "traffic share"], rows),
        f"average drop: {100 * rates.average_drop_packets:.1f}% pkts / "
        f"{100 * rates.average_drop_bytes:.1f}% bytes "
        "(paper dashed lines: ~50% / ~44%)",
    )
    drop32, _, share32 = rates.row(32)
    drop24, _, _ = rates.row(24)
    assert 0.35 < drop32 < 0.65
    assert drop24 > 0.85
    assert share32 > 0.5
