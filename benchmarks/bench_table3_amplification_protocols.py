"""Table 3 — number of distinct UDP amplification protocols per RTBH
event (events with data and a preceding anomaly).

Paper: 0 protocols 6%, 1: 40%, 2: 45%, 3: 8.3%, 4: 0.6%, 5: 0.1% — most
attacks misuse one or two amplification vectors.
"""

from benchmarks.conftest import once, report
from repro.core.protocols import amplification_protocol_table
from repro.core.report import format_table


def test_bench_table3_amplification_protocols(benchmark, pipeline):
    table = once(benchmark, lambda: amplification_protocol_table(
        pipeline.protocol_mix))
    paper = {0: 0.06, 1: 0.40, 2: 0.45, 3: 0.083, 4: 0.006, 5: 0.001}
    rows = [[k, f"{100 * paper[k]:.1f}%", f"{100 * table[k]:.1f}%"]
            for k in sorted(table)]
    report(
        "Table 3 — distinct amplification protocols per anomaly event",
        format_table(["#protocols", "paper", "measured"], rows),
    )
    assert table[1] + table[2] > 0.5     # one or two vectors dominate
    assert table[0] < 0.25               # few non-amplification events
    assert table[4] + table[5] < 0.1     # >3 vectors are rare
