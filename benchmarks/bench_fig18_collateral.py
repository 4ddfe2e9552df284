"""Fig. 18 — collateral damage during RTBH events for detected servers.

Paper: ~300 RTBH events show traffic to the top ports of the ~1,000
detected servers; per (event, server), up to 10^6 packets to service
ports are observed — split into all packets (what should have been
dropped by a perfect blackhole) and those actually dropped.
"""

from benchmarks.conftest import BENCH_SCALE, once, report
from repro.core.collateral import collateral_damage


def test_bench_fig18_collateral(benchmark, pipeline, events, host_study):
    damage = once(benchmark, lambda: collateral_damage(
        events, pipeline.event_rows, host_study))
    cdf_all = damage.cdf()
    report(
        "Fig. 18 — collateral damage to server top ports during events",
        f"paper:    ~300 events with collateral for ~1,000 servers -> scaled "
        f"{300 * BENCH_SCALE:.0f} events / {1000 * BENCH_SCALE:.0f} servers",
        f"measured: {damage.events_with_collateral} events with collateral "
        f"for {damage.servers_considered} detected servers",
        f"measured: packets to top ports per (event, server): median "
        f"{cdf_all.median:.0f}, max {cdf_all.max:.0f} "
        f"(sampled 1:{pipeline.data.sampling_rate}; paper reports up to 1e6 raw)",
        f"measured: total {damage.total_packets()} sampled packets, of which "
        f"{damage.total_packets(dropped_only=True)} actually dropped",
    )
    assert damage.servers_considered > 0
    assert damage.events_with_collateral > 0
    # some of the collateral was really dropped, some kept flowing
    assert 0 < damage.total_packets(dropped_only=True) < damage.total_packets()
