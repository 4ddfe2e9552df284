"""The 'works from files' guarantee: saving both corpora to disk and
reloading them must leave every analysis result bit-identical — this is
what lets the pipeline run on real route-server dumps and IPFIX exports."""

import numpy as np
import pytest

from repro import AnalysisPipeline, ControlPlaneCorpus, DataPlaneCorpus


@pytest.fixture(scope="module")
def reloaded(tmp_path_factory, tiny_result):
    out = tmp_path_factory.mktemp("corpus")
    tiny_result.control.save_jsonl(out / "control.jsonl")
    tiny_result.data.save_npz(out / "data.npz")
    control = ControlPlaneCorpus.load_jsonl(out / "control.jsonl")
    data = DataPlaneCorpus.load_npz(out / "data.npz")
    return AnalysisPipeline(control, data,
                            peer_asns=tiny_result.ixp.member_asns,
                            peeringdb=tiny_result.ixp.peeringdb,
                            host_min_days=8)


class TestRoundTripEquivalence:
    def test_corpora_identical(self, tiny_result, reloaded):
        assert len(reloaded.control) == len(tiny_result.control)
        np.testing.assert_array_equal(reloaded.data.packets,
                                      tiny_result.data.packets)

    def test_events_identical(self, tiny_pipeline, reloaded):
        original = [(e.prefix, e.windows, e.origin_asn)
                    for e in tiny_pipeline.events]
        restored = [(e.prefix, e.windows, e.origin_asn)
                    for e in reloaded.events]
        assert original == restored

    def test_table2_identical(self, tiny_pipeline, reloaded):
        assert (tiny_pipeline.run("table2_pre_classes")
                == reloaded.run("table2_pre_classes"))

    def test_fig5_identical(self, tiny_pipeline, reloaded):
        a = tiny_pipeline.run("fig5_drop_by_length")
        b = reloaded.run("fig5_drop_by_length")
        np.testing.assert_array_equal(a.lengths, b.lengths)
        np.testing.assert_array_equal(a.drop_share_packets, b.drop_share_packets)

    def test_fig19_identical(self, tiny_pipeline, reloaded):
        assert (tiny_pipeline.run("fig19_use_cases").counts()
                == reloaded.run("fig19_use_cases").counts())

    def test_offset_identical(self, tiny_pipeline, reloaded):
        a = tiny_pipeline.run("fig2_time_offset")
        b = reloaded.run("fig2_time_offset")
        assert a.best_offset == b.best_offset
        assert a.best_share == b.best_share
