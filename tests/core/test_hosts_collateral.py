"""Tests for host classification (§6.1–6.2) and collateral damage (§6.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.collateral import collateral_damage
from repro.core.events import RTBHEvent, event_rows, extract_events
from repro.core.hosts import (
    HostClass,
    HostProfile,
    HostStudy,
    _daily_top_ports,
    _origin_lookup,
    _run_starts,
    classify_hosts,
)
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.net import IPv4Address, IPv4Prefix, RadixTree

from tests.core.kernel_oracles import oracle_daily_top_ports

DAY = 86_400.0
SERVER_IP = int(IPv4Address("203.0.113.7"))
CLIENT_IP = int(IPv4Address("203.0.113.8"))
NH = IPv4Address("192.0.2.66")


def control_for(*host_ips, origin=65001):
    msgs = []
    for i, ip in enumerate(host_ips):
        prefix = IPv4Prefix(ip, 32)
        msgs.append(announce(1e7 + i, 100, prefix, NH, as_path=(100, origin),
                             communities=frozenset({BLACKHOLE})))
        msgs.append(withdraw(1e7 + i + 1800.0, 100, prefix))
    return ControlPlaneCorpus(msgs)


def daily_traffic(ip, days, stable_port, client_like, rng):
    """Build incoming + outgoing rows for one host over `days` days."""
    cols = {k: [] for k in ("time", "src_ip", "dst_ip", "src_port", "dst_port",
                            "protocol", "dropped")}
    for day in range(days):
        t0 = day * DAY + 3600.0
        in_port = int(rng.integers(49152, 65536)) if client_like else stable_port
        for k in range(4):
            # incoming
            cols["time"].append(t0 + k * 600.0)
            cols["src_ip"].append(1000 + k)
            cols["dst_ip"].append(ip)
            cols["src_port"].append(int(rng.integers(49152, 65536))
                                    if not client_like else stable_port)
            cols["dst_port"].append(in_port)
            cols["protocol"].append(6)
            cols["dropped"].append(False)
            # outgoing
            cols["time"].append(t0 + k * 600.0 + 1.0)
            cols["src_ip"].append(ip)
            cols["dst_ip"].append(1000 + k)
            cols["src_port"].append(in_port)
            cols["dst_port"].append(int(rng.integers(49152, 65536)))
            cols["protocol"].append(6)
            cols["dropped"].append(False)
    return cols


def build_data(*col_dicts):
    merged = {}
    for cols in col_dicts:
        for key, vals in cols.items():
            merged.setdefault(key, []).extend(vals)
    arrays = {k: np.asarray(v) for k, v in merged.items()}
    arrays["src_ip"] = arrays["src_ip"].astype(np.uint32)
    arrays["dst_ip"] = arrays["dst_ip"].astype(np.uint32)
    return DataPlaneCorpus(packets_from_arrays(arrays))


class TestHostClassification:
    def test_server_vs_client(self):
        rng = np.random.default_rng(0)
        data = build_data(
            daily_traffic(SERVER_IP, 25, 443, client_like=False, rng=rng),
            daily_traffic(CLIENT_IP, 25, 443, client_like=True, rng=rng),
        )
        control = control_for(SERVER_IP, CLIENT_IP)
        events = extract_events(control)
        study = classify_hosts(control, data, events, min_days=20)
        by_ip = {h.ip: h for h in study.hosts}
        assert by_ip[SERVER_IP].classification is HostClass.SERVER
        assert by_ip[CLIENT_IP].classification is HostClass.CLIENT
        assert by_ip[SERVER_IP].port_variation < 0.2
        assert by_ip[CLIENT_IP].port_variation > 0.8

    def test_min_days_gate(self):
        rng = np.random.default_rng(1)
        data = build_data(daily_traffic(SERVER_IP, 5, 443, False, rng))
        control = control_for(SERVER_IP)
        study = classify_hosts(control, data, extract_events(control), min_days=20)
        assert study.hosts[0].classification is HostClass.UNCLASSIFIED

    def test_non_blackholed_hosts_ignored(self):
        rng = np.random.default_rng(2)
        data = build_data(daily_traffic(SERVER_IP, 25, 443, False, rng))
        control = control_for(CLIENT_IP)  # different host blackholed
        study = classify_hosts(control, data, extract_events(control), min_days=20)
        assert all(h.ip != SERVER_IP for h in study.hosts)

    def test_origin_asn_joined(self):
        rng = np.random.default_rng(3)
        data = build_data(daily_traffic(SERVER_IP, 25, 443, False, rng))
        control = control_for(SERVER_IP, origin=65009)
        study = classify_hosts(control, data, extract_events(control), min_days=20)
        assert study.hosts[0].origin_asn == 65009

    def test_event_traffic_excluded(self):
        # all the host's traffic falls inside the RTBH event -> excluded
        rng = np.random.default_rng(4)
        cols = daily_traffic(SERVER_IP, 2, 443, False, rng)
        start = min(cols["time"]) - 700.0
        end = max(cols["time"]) + 1.0
        msgs = [announce(start, 100, IPv4Prefix(SERVER_IP, 32), NH,
                         communities=frozenset({BLACKHOLE})),
                withdraw(end, 100, IPv4Prefix(SERVER_IP, 32))]
        control = ControlPlaneCorpus(msgs)
        study = classify_hosts(control, build_data(cols),
                               extract_events(control), min_days=1)
        assert study.hosts == []

    def test_nested_prefix_events_both_excluded(self):
        # one host under a /24 and a /32 RTBH event: traffic inside either
        # event (or its reaction margin) must not reach the profile
        rng = np.random.default_rng(8)
        cols = daily_traffic(SERVER_IP, 25, 443, False, rng)
        net24 = IPv4Prefix(SERVER_IP & 0xFFFFFF00, 24)
        host32 = IPv4Prefix(SERVER_IP, 32)
        windows = {net24: (10 * DAY, 10 * DAY + 3600.0),
                   host32: (20 * DAY, 20 * DAY + 3600.0)}
        msgs = []
        for prefix, (start, end) in windows.items():
            msgs.append(announce(start, 100, prefix, NH, as_path=(100, 65001),
                                 communities=frozenset({BLACKHOLE})))
            msgs.append(withdraw(end, 100, prefix))
            for k in range(6):   # odd ports, margin and event alike
                t = start - 500.0 + k * 700.0
                for key, value in (("time", t), ("src_ip", 9000 + k),
                                   ("dst_ip", SERVER_IP),
                                   ("src_port", 1000 + k),
                                   ("dst_port", 2000 + k), ("protocol", 17),
                                   ("dropped", False)):
                    cols[key].append(value)
        control = ControlPlaneCorpus(sorted(msgs, key=lambda m: m.time))
        events = extract_events(control)
        assert {ev.prefix for ev in events} == set(windows)
        data = build_data(cols)
        clean = classify_hosts(control_for(SERVER_IP),
                               build_data(daily_traffic(
                                   SERVER_IP, 25, 443, False,
                                   np.random.default_rng(8))),
                               [], min_days=20)
        study = classify_hosts(control, data, events, min_days=20)
        [host] = study.hosts
        [want] = clean.hosts
        assert host.port_features == want.port_features
        assert host.top_ports == ((6, 443),)
        assert host.active_days == 25
        assert host.classification is HostClass.SERVER

    def test_radviz_matrix_shape(self):
        rng = np.random.default_rng(5)
        data = build_data(daily_traffic(SERVER_IP, 25, 443, False, rng))
        control = control_for(SERVER_IP)
        study = classify_hosts(control, data, extract_events(control), min_days=20)
        matrix = study.radviz_matrix()
        assert matrix.shape == (1, 4)
        assert (matrix >= 0).all() and (matrix <= 1).all()


class TestDailyTopPortsOracle:
    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40),
                              st.sampled_from([6, 17]), st.integers(0, 3)),
                    max_size=40))
    def test_matches_per_day_unique_loop(self, rows):
        # rows of three hosts, grouped by host in time order, as the
        # host study hands them over
        rows = sorted(rows, key=lambda row: row[:2])
        host = np.array([h for h, *_ in rows], dtype=np.int64)
        incoming = packets_from_arrays({
            "time": np.array([t * DAY / 8 for _, t, _, _ in rows],
                             dtype=np.float64),
            "protocol": np.array([p for *_, p, _ in rows], dtype=np.uint8),
            "dst_port": np.array([port for *_, port in rows], dtype=np.uint16),
        })
        new_day = _run_starts(host, (incoming["time"] // DAY).astype(np.int64))
        tops = _daily_top_ports(host, new_day, incoming["protocol"],
                                incoming["dst_port"]).tolist()
        assert tops == sorted(tops)
        for h in range(3):
            got = {(top >> 16 & 0xFF, top & 0xFFFF)
                   for top in tops if top >> 24 == h}
            assert got == oracle_daily_top_ports(incoming[host == h])


class TestCollateral:
    def test_collateral_counted_and_split_by_drop(self):
        rng = np.random.default_rng(6)
        baseline = daily_traffic(SERVER_IP, 25, 443, False, rng)
        # an RTBH event on day 30 with client traffic to the top port
        event_start = 30 * DAY
        cols = {k: list(v) for k, v in baseline.items()}
        for k in range(10):
            cols["time"].append(event_start + 60.0 * k)
            cols["src_ip"].append(7777)
            cols["dst_ip"].append(SERVER_IP)
            cols["src_port"].append(50_000 + k)
            cols["dst_port"].append(443)
            cols["protocol"].append(6)
            cols["dropped"].append(k < 6)
        msgs = [announce(event_start, 100, IPv4Prefix(SERVER_IP, 32), NH,
                         communities=frozenset({BLACKHOLE})),
                withdraw(event_start + 3600.0, 100, IPv4Prefix(SERVER_IP, 32))]
        control = ControlPlaneCorpus(msgs)
        events = extract_events(control)
        data = build_data(cols)
        study = classify_hosts(control, data, events, min_days=20)
        damage = collateral_damage(events, event_rows(data, events), study)
        assert damage.servers_considered == 1
        assert damage.events_with_collateral == 1
        [record] = damage.records
        assert record.packets_to_top_ports == 10
        assert record.dropped_to_top_ports == 6
        assert damage.cdf().max == 10.0
        assert damage.cdf(dropped_only=True).max == 6.0

    def test_no_servers_no_collateral(self):
        rng = np.random.default_rng(7)
        data = build_data(daily_traffic(CLIENT_IP, 25, 443, True, rng))
        control = control_for(CLIENT_IP)
        events = extract_events(control)
        study = classify_hosts(control, data, events, min_days=20)
        damage = collateral_damage(events, event_rows(data, events), study)
        assert damage.records == []


@st.composite
def origin_tables(draw):
    """Nested prefixes (a /0, a /1 and /8 … /32 around one address)
    with origins, plus addresses inside and outside them."""
    anchor = draw(st.integers(0, 2**32 - 1))
    lengths = draw(st.lists(st.sampled_from([0, 1, 8, 16, 24, 31, 32]),
                            min_size=1, max_size=5))
    origins = {}
    for length in lengths:
        near = draw(st.integers(0, 2**32 - 1)) if draw(st.booleans()) \
            else anchor
        origins[IPv4Prefix(near, length)] = draw(st.integers(1, 65_000))
    addresses = draw(st.lists(st.one_of(
        st.just(anchor), st.integers(0, 2**32 - 1),
        st.sampled_from([p.network_int for p in origins])), max_size=12))
    return origins, np.array(addresses, dtype=np.uint32)


class TestOriginLookup:
    @settings(deadline=None)
    @given(origin_tables())
    def test_matches_the_radix_tree(self, table):
        origins, addresses = table
        tree = RadixTree()
        for prefix, asn in origins.items():
            tree.insert(prefix, asn)
        expected = [-1 if tree.lookup(a) is None else tree.lookup(a)[1]
                    for a in addresses.tolist()]
        assert _origin_lookup(origins, addresses).tolist() == expected


class TestCollateralOrder:
    def test_records_follow_the_first_window_with_hits(self):
        # two servers in one /24 event with two windows: B is hit in the
        # first window only, A in the second only; records come in
        # (first window, server) order, as a window-by-window scan
        # would emit them, with each server's windows merged
        a, b = SERVER_IP, CLIENT_IP
        rows = [(150.0, b, 443), (160.0, a, 80), (450.0, a, 443),
                (460.0, b, 443), (470.0, a, 443)]
        data = DataPlaneCorpus(packets_from_arrays({
            "time": np.array([t for t, _, _ in rows]),
            "dst_ip": np.array([ip for _, ip, _ in rows], dtype=np.uint32),
            "dst_port": np.array([port for *_, port in rows],
                                 dtype=np.uint16),
        }))
        event = RTBHEvent(event_id=3, prefix=IPv4Prefix(SERVER_IP, 24),
                          windows=((100.0, 200.0), (400.0, 500.0)),
                          announcer_asns=(100,), origin_asn=65000)

        def server(ip):
            return HostProfile(ip=ip, active_days=30,
                               port_features=(1, 1, 1, 1),
                               top_ports=((6, 443),), port_variation=0.0,
                               classification=HostClass.SERVER)

        study = HostStudy(hosts=[server(a), server(b)], min_days=20)
        damage = collateral_damage([event], event_rows(data, [event]), study)
        assert [(r.server_ip, r.packets_to_top_ports)
                for r in damage.records] == [(b, 2), (a, 2)]
