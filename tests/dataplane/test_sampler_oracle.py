"""The sampler emits its rows time-sorted; this checks it against the
unsorted sampler plus a stable sort (:mod:`tests.dataplane.sampler_oracle`)
on random flow sets.

The flow sets repeat start times, mix flows too short to be sampled with
dense ones, and include zero-duration flows and durations so short that
a flow's samples share one timestamp, so ties between and within flows
decide the order. The gather block size is drawn too, so the block
boundaries fall everywhere.
"""

from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import sampler as sampler_module
from repro.dataplane.flow import FlowLabel
from repro.dataplane.sampler import IPFIXSampler
from tests.dataplane.sampler_oracle import oracle_sample


class Flow(NamedTuple):
    """The attributes the sampler reads; unlike a ``FlowSpec`` it admits a
    zero duration."""

    start: float
    duration: float
    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int
    pps: float
    mean_packet_size: float
    ingress_asn: int
    origin_asn: int
    label: FlowLabel


#: (duration, pps) pairs: unsampled, zero-length, one-timestamp and
#: ordinary flows, at most ~60 samples each at rate 1
RATES = [(0.0, 50.0), (60.0, 1e-4), (1e-12, 1e13), (0.5, 50.0),
         (60.0, 1.0), (3600.0, 1e-3)]


@st.composite
def flows(draw):
    starts = draw(st.lists(st.sampled_from([0.0, 10.0, 86_400.0, 1e6]),
                           min_size=1, max_size=3))
    out = []
    for i in range(draw(st.integers(0, 12))):
        duration, pps = draw(st.sampled_from(RATES))
        out.append(Flow(
            start=draw(st.sampled_from(starts)),
            duration=duration,
            src_ip=draw(st.integers(0, 2**32 - 1)),
            dst_ip=draw(st.integers(0, 2**32 - 1)),
            protocol=draw(st.sampled_from([1, 6, 17])),
            src_port=draw(st.integers(0, 0xFFFF)),
            dst_port=draw(st.integers(0, 0xFFFF)),
            pps=pps,
            mean_packet_size=draw(st.floats(40.0, 1600.0)),
            ingress_asn=i,
            origin_asn=draw(st.integers(0, 2**32 - 1)),
            label=draw(st.sampled_from(list(FlowLabel))),
        ))
    return out


@settings(deadline=None)
@given(flows(), st.integers(0, 2**32 - 1), st.sampled_from([1, 10, 100]),
       st.sampled_from([0.0, 0.08, 0.5]), st.sampled_from([1, 3, 64, 1 << 16]))
def test_sorted_sampler_matches_the_stable_sort_of_the_unsorted_one(
        flow_set, seed, rate, spread, block):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    with mock.patch.object(sampler_module, "BLOCK_ROWS", block):
        got = IPFIXSampler(got_rng, rate=rate, size_spread=spread).sample(
            flow_set)
    want = oracle_sample(want_rng, flow_set, rate, spread)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the same draws, in the same order
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_many_blocks_match_the_oracle():
    flow_set = [Flow(start=float(i % 7) * 100.0, duration=900.0,
                     src_ip=i, dst_ip=2 * i, protocol=17, src_port=i,
                     dst_port=53, pps=0.5 + i / 300, mean_packet_size=468.0,
                     ingress_asn=i % 5, origin_asn=i, label=FlowLabel.ATTACK)
                for i in range(300)]
    got = IPFIXSampler(np.random.default_rng(5), rate=1).sample(flow_set)
    want = oracle_sample(np.random.default_rng(5), flow_set, 1, 0.08)
    assert len(got) > 2 * sampler_module.BLOCK_ROWS
    assert got.tobytes() == want.tobytes()
