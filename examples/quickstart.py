#!/usr/bin/env python3
"""Quickstart: the ``repro.api`` facade end to end — generate a
scaled-down synthetic IXP corpus, run the paper's full batch analysis,
then re-derive the same numbers with the incremental streaming engine.

Usage::

    python examples/quickstart.py [--scale 0.02] [--days 30] [--seed 7]
                                  [--out DIR]

Prints the headline numbers of every analysis: RTBH load, acceptance by
prefix length, pre-RTBH classes (Table 2), protocol mix, fine-grained
filtering potential, collateral damage, and the use-case breakdown —
and proves the stream report's value fingerprints equal the batch run's.
"""

import argparse
import tempfile
from collections import Counter
from pathlib import Path

from repro import AnalyzeOptions, GenerateOptions, StreamOptions, Study
from repro.core.report import pct, seconds_human
from repro.net.protocols import IPProtocol


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02,
                        help="linear scale of the paper's population")
    parser.add_argument("--days", type=float, default=30.0,
                        help="observation period in days")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="corpus directory (default: a temp dir)")
    args = parser.parse_args()
    out = Path(args.out) if args.out else \
        Path(tempfile.mkdtemp(prefix="repro-quickstart-")) / "corpus"

    print(f"Generating corpus (scale={args.scale}, {args.days:g} days) "
          f"-> {out}")
    study = Study.generate(out, options=GenerateOptions(
        scale=args.scale, duration_days=args.days, seed=args.seed,
        keep_segments=True))

    host_min_days = min(20, int(args.days * 0.6))
    report = study.analyze(options=AnalyzeOptions(
        host_min_days=host_min_days))

    print("\n-- RTBH events (Δ = 10 min merge) " + "-" * 30)
    load = report.value("fig3_load")
    print(f"  parallel blackholes: mean {load.mean_active:.0f}, "
          f"peak {load.peak_active}")

    print("\n-- Acceptance of blackhole routes (Figs 5-6) " + "-" * 19)
    rates = report.value("fig5_drop_by_length")
    for length in (32, 24):
        drop, _, share = rates.row(length)
        print(f"  /{length}: {pct(drop)} of packets dropped "
              f"({pct(share)} of blackhole traffic)")

    print("\n-- Pre-RTBH classification (Table 2) " + "-" * 27)
    for cls, share in report.value("table2_pre_classes").items():
        print(f"  {cls.value:18s} {pct(share)}")

    print("\n-- Attack traffic (§5.4-5.5) " + "-" * 35)
    mix = report.value("sec54_protocol_mix")
    udp = mix.protocol_shares
    print(f"  events with data during blackhole: "
          f"{pct(mix.share_events_with_data)}")
    print(f"  protocol mix of anomaly events: "
          f"UDP {pct(udp[IPProtocol.UDP])}, TCP {pct(udp[IPProtocol.TCP])}")
    cdf = report.value("fig14_filterable")
    print(f"  fully filterable by amplification-port list: "
          f"{pct(1.0 - cdf(0.999))} of events")

    print("\n-- Blackholed hosts (§6) " + "-" * 39)
    damage = report.value("fig18_collateral")
    print(f"  events with collateral damage: "
          f"{damage.events_with_collateral}")

    print("\n-- Use cases (Fig. 19) " + "-" * 41)
    classification = report.value("fig19_use_cases")
    for case, share in classification.shares().items():
        count = classification.counts()[case]
        if count:
            _, med, _ = classification.duration_quartiles(case)
            print(f"  {case.value:26s} {pct(share):>6s}  "
                  f"(median duration {seconds_human(med)})")

    print("\n-- Streaming engine " + "-" * 44)
    stream = study.stream(options=StreamOptions(
        host_min_days=host_min_days))
    batch_fp = {o.name: o.value_digest for o in report.outcomes}
    matches = stream.fingerprints() == batch_fp
    modes = Counter(stream.modes.values())
    print(f"  watermark: day {stream.watermark_days} "
          f"({stream.segments_consumed} segments consumed)")
    print(f"  {modes['incremental']} analyses read only reducer state, "
          f"{modes['batch']} rescanned the corpus, "
          f"{modes['cached']} came from the cache")
    print(f"  stream fingerprints == batch fingerprints: {matches}")
    assert matches, "streaming diverged from batch"


if __name__ == "__main__":
    main()
