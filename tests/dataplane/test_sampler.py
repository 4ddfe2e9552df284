"""Statistical and structural tests for the IPFIX sampler."""

import numpy as np
import pytest

from repro.dataplane import FlowLabel, FlowSpec, IPFIXSampler


def spec(**overrides):
    base = dict(
        start=10.0, duration=100.0, src_ip=0x0A000001, dst_ip=0xC0000201,
        protocol=17, src_port=123, dst_port=5555, pps=50_000.0,
        mean_packet_size=468.0, ingress_asn=100, origin_asn=999,
        label=FlowLabel.ATTACK,
    )
    base.update(overrides)
    return FlowSpec(**base)


@pytest.fixture
def sampler():
    return IPFIXSampler(np.random.default_rng(7), rate=10_000)


class TestSampling:
    def test_empty_input(self, sampler):
        out = sampler.sample([])
        assert len(out) == 0

    def test_expected_count_poisson(self, sampler):
        # lam = 50k pps * 100 s / 10k = 500 expected samples
        out = sampler.sample([spec()])
        assert 400 < len(out) < 600

    def test_fields_copied(self, sampler):
        out = sampler.sample([spec()])
        assert (out["src_ip"] == 0x0A000001).all()
        assert (out["dst_ip"] == 0xC0000201).all()
        assert (out["protocol"] == 17).all()
        assert (out["src_port"] == 123).all()
        assert (out["dst_port"] == 5555).all()
        assert (out["ingress_asn"] == 100).all()
        assert (out["origin_asn"] == 999).all()
        assert (out["label"] == int(FlowLabel.ATTACK)).all()
        assert not out["dropped"].any()

    def test_times_within_interval(self, sampler):
        out = sampler.sample([spec()])
        assert (out["time"] >= 10.0).all()
        assert (out["time"] < 110.0).all()

    def test_sizes_clipped_and_near_mean(self, sampler):
        out = sampler.sample([spec()])
        assert (out["size"] >= 40).all() and (out["size"] <= 1500).all()
        assert abs(float(out["size"].mean()) - 468.0) < 20

    def test_low_rate_flow_often_unsampled(self):
        # lam = 1 pps * 10 s / 10k = 0.001: virtually never sampled
        sampler = IPFIXSampler(np.random.default_rng(1), rate=10_000)
        out = sampler.sample([spec(pps=1.0, duration=10.0)] * 50)
        assert len(out) <= 2

    def test_multiple_flows_interleaved(self, sampler):
        flows = [spec(), spec(src_ip=0x0A000002, start=500.0)]
        out = sampler.sample(flows)
        assert set(np.unique(out["src_ip"])) == {0x0A000001, 0x0A000002}

    def test_sample_sorted(self, sampler):
        flows = [spec(start=500.0), spec(src_ip=7)]
        out = sampler.sample(flows)
        assert (np.diff(out["time"]) >= 0).all()

    def test_reproducible_with_same_seed(self):
        a = IPFIXSampler(np.random.default_rng(42)).sample([spec()])
        b = IPFIXSampler(np.random.default_rng(42)).sample([spec()])
        assert np.array_equal(a, b)

    def test_rate_one_keeps_everything_in_expectation(self):
        sampler = IPFIXSampler(np.random.default_rng(3), rate=1)
        out = sampler.sample([spec(pps=10.0, duration=100.0)])
        assert 900 < len(out) < 1100

    @pytest.mark.parametrize("bad_kw", [{"rate": 0}, {"size_spread": 1.0}, {"size_spread": -0.1}])
    def test_constructor_validation(self, bad_kw):
        with pytest.raises(ValueError):
            IPFIXSampler(np.random.default_rng(0), **bad_kw)
