"""§5.4 — traffic during RTBH events: sampling visibility and protocol mix.

Paper: sampling captured packets for only 29% of all RTBH events; for
events with a preceding anomaly the protocol mix is 99.5% UDP, 0.3% TCP,
0.1% ICMP, 0.1% other — radically different from the normal IXP mix.
"""

from benchmarks.conftest import once, report
from repro.core.protocols import event_protocol_mix
from repro.net.protocols import IPProtocol


def test_bench_sec54_event_traffic(benchmark, pipeline, events,
                                   pre_classification):
    mix = once(benchmark, lambda: event_protocol_mix(
        events, pipeline.event_rows, pre_classification))
    shares = mix.protocol_shares
    report(
        "§5.4 — traffic during RTBH events",
        "paper:    29% of events have sampled packets during the event",
        f"measured: {100 * mix.share_events_with_data:.0f}% "
        f"({mix.events_with_data} of {mix.events_total})",
        "paper:    protocol mix of anomaly events: 99.5% UDP / 0.3% TCP / 0.1% ICMP",
        f"measured: {100 * shares[IPProtocol.UDP]:.1f}% UDP / "
        f"{100 * shares[IPProtocol.TCP]:.1f}% TCP / "
        f"{100 * shares[IPProtocol.ICMP]:.1f}% ICMP",
    )
    assert 0.15 < mix.share_events_with_data < 0.55
    assert shares[IPProtocol.UDP] > 0.85
    assert shares[IPProtocol.TCP] < 0.12
