"""The grouped host study (§6.1) against the per-host loop oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce
from repro.core.events import RTBHEvent
from repro.core.hosts import DAY, classify_hosts
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.net import IPv4Address, IPv4Prefix

from tests.core.kernel_oracles import oracle_classify_hosts

NH = IPv4Address("192.0.2.66")
BASE = int(IPv4Address("203.0.113.0"))
#: nested and disjoint blackhole prefixes around a few hosts
PREFIXES = [IPv4Prefix(BASE + 7, 32), IPv4Prefix(BASE + 6, 31),
            IPv4Prefix(BASE, 24), IPv4Prefix(BASE + 256 + 1, 32)]
#: hosts inside and outside the prefixes, plus remote peers
ADDRESSES = [BASE + 7, BASE + 6, BASE + 9, BASE + 256 + 1, BASE + 256 + 2,
             1000, 1001]
#: times on a 600 s grid (the reaction margin) in a few busy slots a
#: day, so rows land on window bounds and margins
GRID = 600.0


def grid_times(draw):
    return draw(st.integers(0, 3)) * DAY + draw(st.integers(0, 8)) * GRID


@st.composite
def host_corpora(draw):
    n = draw(st.integers(0, 60))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    packets = packets_from_arrays({
        "time": np.array([grid_times(draw) for _ in range(n)],
                         dtype=np.float64),
        "src_ip": np.array(column(st.sampled_from(ADDRESSES)), dtype=np.uint32),
        "dst_ip": np.array(column(st.sampled_from(ADDRESSES)), dtype=np.uint32),
        "src_port": np.array(column(st.sampled_from([53, 443, 50000, 50001])),
                             dtype=np.uint16),
        "dst_port": np.array(column(st.sampled_from([53, 443, 50000, 50001])),
                             dtype=np.uint16),
        "protocol": np.array(column(st.sampled_from([6, 17])), dtype=np.uint8),
    })
    announced = draw(st.lists(st.sampled_from(PREFIXES), unique=True))
    control = ControlPlaneCorpus([
        announce(float(i), 100, prefix, NH, as_path=(100, 65000 + i),
                 communities=frozenset({BLACKHOLE}))
        for i, prefix in enumerate(announced)])
    events = []
    for event_id in range(draw(st.integers(0, 5))):
        start = grid_times(draw)
        windows = [(start, start + draw(st.integers(0, 4)) * GRID)]
        if draw(st.booleans()):
            second = windows[0][1] + draw(st.integers(1, 4)) * GRID
            windows.append((second, second + GRID))
        events.append(RTBHEvent(
            event_id=event_id, prefix=draw(st.sampled_from(PREFIXES)),
            windows=tuple(windows), announcer_asns=(100,), origin_asn=65000))
    thresholds = dict(min_days=draw(st.integers(0, 3)), **draw(st.sampled_from(
        [{}, {"server_variation": 0.5, "client_variation": 0.5}])))
    return control, DataPlaneCorpus(packets), events, thresholds


@settings(deadline=None)
@given(host_corpora())
def test_grouped_study_matches_the_per_host_loop(case):
    control, data, events, thresholds = case
    got = classify_hosts(control, data, events, **thresholds)
    want = oracle_classify_hosts(control, data, events, **thresholds)
    # repr: numpy scalars in place of Python ints would show
    assert repr(got) == repr(want)


def test_host_without_incoming_traffic():
    # only outgoing rows: no in-days, variation 1.0, no top ports
    host = BASE + 7
    packets = packets_from_arrays({
        "time": np.array([0.0, DAY, 2 * DAY]),
        "src_ip": np.full(3, host, dtype=np.uint32),
        "dst_ip": np.full(3, 1000, dtype=np.uint32),
        "dst_port": np.array([80, 81, 80], dtype=np.uint16),
    })
    control = ControlPlaneCorpus([announce(
        0.0, 100, PREFIXES[0], NH, as_path=(100, 65001),
        communities=frozenset({BLACKHOLE}))])
    [profile] = classify_hosts(control, DataPlaneCorpus(packets), [],
                               min_days=0).hosts
    assert (profile.ip, profile.active_days, profile.top_ports,
            profile.port_variation, profile.port_features) == (
        host, 0, (), 1.0, (0, 1, 0, 2))
