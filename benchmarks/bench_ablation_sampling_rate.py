"""Ablation — the 1:10,000 sampling rate (§5.2's visibility limits).

The paper stresses that almost half of all pre-RTBH events carry no
sampled packet even at one of the largest IXPs. This ablation regenerates
a smaller world at 1:10,000 and 1:1,000 and shows how strongly the
"no data" share of Table 2 is a *sampling* artefact, not a traffic one.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, once, report
from repro import AnalysisPipeline
from repro.core.pre_rtbh import PreRTBHClass
from repro.scenario import ScenarioConfig, run_scenario


def _no_data_share(sampling_rate: int) -> float:
    config = ScenarioConfig.paper(scale=0.02, duration_days=30.0,
                                  seed=BENCH_SEED,
                                  sampling_rate=sampling_rate)
    result = run_scenario(config)
    pipeline = AnalysisPipeline(result.control, result.data,
                                peer_asns=result.ixp.member_asns)
    return pipeline.run("table2_pre_classes")[PreRTBHClass.NO_DATA]


def test_bench_ablation_sampling_rate(benchmark):
    share_10k = once(benchmark, lambda: _no_data_share(10_000))
    share_1k = _no_data_share(1_000)
    report(
        "Ablation — IPFIX sampling rate vs pre-RTBH visibility",
        f"no-data share at 1:10,000 (paper's rate): {100 * share_10k:.0f}%",
        f"no-data share at 1:1,000 (10x denser):    {100 * share_1k:.0f}%",
        "denser sampling reveals traffic for events the paper's"
        " methodology must classify as silent",
    )
    assert share_1k < share_10k
    assert share_10k - share_1k > 0.03
