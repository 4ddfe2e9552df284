"""The window gathers against brute-force oracles.

``DataPlaneCorpus.window_packets`` (one prefix at a time; the streaming
reducers' gather) is checked against a record-by-record oracle: a packet
belongs to the result when its timestamp falls in one of the half-open
windows and its destination shares the prefix's leading bits.  The
strategies cover the edge cases the gather's index arithmetic must
survive: empty streams, single-record corpora, /8 through /32 prefixes,
duplicate timestamps, empty windows, and windows that start or end
exactly at the corpus ends.

``DataPlaneCorpus.window_rows`` (every event at once, over the
destination order; the batch pipeline's gather) must return, gather by
gather, exactly the records ``window_packets`` returns — for event
windows and 72 h pre-windows, nested and repeated prefixes, and the
prefixes at the ends of the address space.  On the seeded tiny scenario
every analysis must fingerprint identically when ``window_rows`` is
swapped for a full-store scan.

Intermediates with NaN payloads (pre-RTBH amplification factors) are
compared by fingerprint, never by ``==`` — ``nan != nan``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnalysisPipeline
from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.droprate import event_traffic
from repro.core.events import event_rows, extract_events
from repro.core.pre_rtbh import PRE_WINDOW
from repro.core.pipeline import ANALYSIS_NAMES
from repro.core.study import run_analysis
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.data import WindowRows
from repro.dataplane.packet import PACKET_DTYPE
from repro.net import IPv4Address, IPv4Prefix
from repro.parallel.golden import value_fingerprint

NH = IPv4Address("192.0.2.66")

#: /32 (mask all ones), /24, /16, /8 (high-bit mask, huge span)
PREFIX_POOL = (
    IPv4Prefix("203.0.113.7/32"),
    IPv4Prefix("203.0.113.0/24"),
    IPv4Prefix("198.51.0.0/16"),
    IPv4Prefix("10.0.0.0/8"),
)


def _in_prefix(address: int, prefix: IPv4Prefix) -> bool:
    shift = 32 - prefix.length
    return (address >> shift) == (prefix.network_int >> shift)


def oracle(packets, prefix, windows):
    """``packets[in-any-window & dst-in-prefix]``, one record at a time."""
    keep = [any(t0 <= float(p["time"]) < t1 for t0, t1 in windows)
            and _in_prefix(int(p["dst_ip"]), prefix) for p in packets]
    return packets[np.array(keep, dtype=bool)]


@st.composite
def corpora(draw):
    """A sorted-on-load packet store on a coarse time grid (so many
    records share a timestamp), with destinations inside and outside
    every pooled prefix, including each prefix's first and last host."""
    n = draw(st.integers(0, 40))
    packets = np.zeros(n, dtype=PACKET_DTYPE)
    for i in range(n):
        packets["time"][i] = draw(st.integers(0, 20)) * 0.5
        prefix = draw(st.sampled_from(PREFIX_POOL))
        last = 2 ** (32 - prefix.length) - 1
        packets["dst_ip"][i] = draw(st.one_of(
            st.sampled_from([prefix.network_int,
                             prefix.network_int + last]),
            st.integers(prefix.network_int, prefix.network_int + last),
            st.integers(0, 2**32 - 1)))
        packets["size"][i] = draw(st.integers(40, 1500))
        packets["dropped"][i] = draw(st.booleans())
    return DataPlaneCorpus(packets, sampling_rate=10)


@st.composite
def disjoint_windows(draw):
    """Sorted, disjoint half-open windows — the shape of an RTBH event's
    windows — on the packets' time grid and a little beyond both ends."""
    edges = sorted(draw(st.lists(st.integers(-2, 24), min_size=0,
                                 max_size=8)))
    return [(a * 0.5, b * 0.5) for a, b in zip(edges[::2], edges[1::2])]


class TestAdversarialStreams:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.sampled_from(PREFIX_POOL), disjoint_windows())
    def test_window_packets_match_oracle(self, data, prefix, windows):
        got = data.window_packets(prefix, windows)
        assert got.dtype == PACKET_DTYPE
        assert got.tobytes() == oracle(data.packets, prefix,
                                       windows).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(corpora(), st.sampled_from(PREFIX_POOL),
           st.lists(st.tuples(st.integers(-2, 24), st.integers(-2, 24)),
                    max_size=4))
    def test_any_windows_concatenate_per_window(self, data, prefix, raw):
        # overlapping, unsorted or inverted windows: the result is the
        # per-window selections concatenated in the order given
        windows = [(a * 0.5, b * 0.5) for a, b in raw]
        expected = [oracle(data.packets, prefix, [w]) for w in windows]
        got = data.window_packets(prefix, windows)
        assert got.tobytes() == b"".join(e.tobytes() for e in expected)

    @settings(max_examples=30, deadline=None)
    @given(corpora(), st.sampled_from(PREFIX_POOL))
    def test_windows_at_the_corpus_ends(self, data, prefix):
        if len(data) == 0:
            return
        first, last = data.start_time, data.end_time
        # end-exclusive: a window closing at the last timestamp drops it
        for windows in ([(first, last)], [(first, last + 0.5)],
                        [(last, last)], [(first - 1.0, first)]):
            got = data.window_packets(prefix, windows)
            assert got.tobytes() == oracle(data.packets, prefix,
                                           windows).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(corpora(), st.sampled_from(PREFIX_POOL),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6),
                              st.booleans()), min_size=1, max_size=3))
    def test_event_traffic_matches_oracle(self, data, prefix, episodes):
        messages, t = [], 0.0
        for gap, length, closed in episodes:
            start = t + gap
            messages.append(announce(start, 100, prefix, NH,
                                     communities=frozenset({BLACKHOLE})))
            t = start + length
            if closed:
                messages.append(withdraw(t, 100, prefix))
        events = extract_events(ControlPlaneCorpus(messages))
        for event, traffic in zip(events, event_traffic(
                events, event_rows(data, events))):
            sub = oracle(data.packets, event.prefix, event.windows)
            sizes = sub["size"].astype(np.int64)
            assert (traffic.packets, traffic.dropped_packets,
                    traffic.bytes, traffic.dropped_bytes) == (
                len(sub), int(sub["dropped"].sum()), int(sizes.sum()),
                int(sizes[sub["dropped"]].sum()))

    def test_empty_streams(self):
        data = DataPlaneCorpus(np.zeros(0, dtype=PACKET_DTYPE),
                               sampling_rate=10)
        for prefix in PREFIX_POOL:
            for windows in ([], [(0.0, 10.0)], [(5.0, 5.0), (6.0, 9.0)]):
                got = data.window_packets(prefix, windows)
                assert got.dtype == PACKET_DTYPE and len(got) == 0

    def test_single_record_day(self):
        prefix = IPv4Prefix("203.0.113.7/32")
        packets = np.zeros(1, dtype=PACKET_DTYPE)
        packets["time"] = 10.0
        packets["dst_ip"] = prefix.network_int
        data = DataPlaneCorpus(packets, sampling_rate=10)
        assert len(data.window_packets(prefix, [(10.0, 11.0)])) == 1
        assert len(data.window_packets(prefix, [(9.0, 10.0)])) == 0
        assert len(data.window_packets(prefix, [])) == 0
        other = IPv4Prefix("203.0.113.8/32")
        assert len(data.window_packets(other, [(0.0, 20.0)])) == 0


#: nested (a /32 inside a /24, both inside the /1 and the /0) and the
#: prefixes whose exclusive upper bound is 2**32
EDGE_POOL = (
    IPv4Prefix("203.0.113.0/24"),
    IPv4Prefix("203.0.113.7/32"),
    IPv4Prefix("255.255.255.255/32"),
    IPv4Prefix("128.0.0.0/1"),
    IPv4Prefix("0.0.0.0/0"),
)

#: the time grid of the batched-gather corpora: 6 h steps over 10 days,
#: so 72 h pre-windows cover some steps and miss others
STEP = 6 * 3_600.0


@st.composite
def spread_corpora(draw):
    """Destinations at the edges and inside of every ``EDGE_POOL``
    prefix, or anywhere, on a coarse grid with repeated timestamps."""
    n = draw(st.integers(0, 40))
    packets = np.zeros(n, dtype=PACKET_DTYPE)
    for i in range(n):
        packets["time"][i] = draw(st.integers(0, 40)) * STEP
        prefix = draw(st.sampled_from(EDGE_POOL))
        last = prefix.network_int + 2 ** (32 - prefix.length) - 1
        packets["dst_ip"][i] = draw(st.one_of(
            st.sampled_from([prefix.network_int, last]),
            st.integers(prefix.network_int, last)))
        packets["size"][i] = draw(st.integers(40, 1500))
    return DataPlaneCorpus(packets, sampling_rate=10)


@st.composite
def gathers(draw):
    """Events as (prefix, windows): repeated prefixes, no windows, empty
    windows and windows past both ends of the grid."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        edges = sorted(draw(st.lists(st.integers(-4, 44), max_size=6)))
        out.append((draw(st.sampled_from(EDGE_POOL)),
                    [(a * STEP, b * STEP)
                     for a, b in zip(edges[::2], edges[1::2])]))
    return out


def assert_rows_match_window_packets(data, prefixes, windows):
    rows = data.window_rows(prefixes, windows)
    assert len(rows) == len(prefixes)
    assert rows.offsets[0] == 0 and rows.offsets[-1] == len(rows.rows)
    for i, (prefix, wins) in enumerate(zip(prefixes, windows)):
        expected = data.window_packets(prefix, wins)
        assert rows.records(i).tobytes() == expected.tobytes(), (prefix, wins)


class TestBatchedGather:
    @settings(deadline=None)
    @given(spread_corpora(), gathers())
    def test_event_windows_match_window_packets(self, data, events):
        assert_rows_match_window_packets(
            data, [p for p, _ in events], [w for _, w in events])

    @settings(deadline=None)
    @given(spread_corpora(), gathers())
    def test_pre_windows_match_window_packets(self, data, events):
        starts = [w[0][0] for _, w in events if w]
        prefixes = [p for p, w in events if w]
        assert_rows_match_window_packets(
            data, prefixes, [[(s - PRE_WINDOW, s)] for s in starts])

    def test_nested_repeated_and_edge_prefixes(self):
        # one packet at the first and last address of each edge prefix
        addresses = sorted({a for p in EDGE_POOL for a in (
            p.network_int, p.network_int + 2 ** (32 - p.length) - 1)})
        packets = np.zeros(2 * len(addresses), dtype=PACKET_DTYPE)
        packets["time"] = np.repeat([STEP, 2 * STEP], len(addresses))
        packets["dst_ip"] = addresses * 2
        data = DataPlaneCorpus(packets, sampling_rate=10)
        prefixes = [*EDGE_POOL, *EDGE_POOL]
        windows = [[(0.0, 3 * STEP)]] * len(EDGE_POOL) + \
            [[(STEP, STEP)], [], [(2 * STEP, 9 * STEP)],
             [(0.0, STEP), (STEP, 2 * STEP)], [(-STEP, 0.0)]]
        assert_rows_match_window_packets(data, prefixes, windows)
        counts = data.window_rows(prefixes, windows).counts.tolist()
        # each address twice: the /24 holds 3, each /32 1, the /1 5 and
        # the /0 all 6
        assert len(addresses) == 6
        assert counts[:5] == [6, 2, 2, 10, 12]

    def test_no_gathers_builds_no_destination_order(self):
        packets = np.zeros(3, dtype=PACKET_DTYPE)
        data = DataPlaneCorpus(packets, sampling_rate=10)
        rows = data.window_rows([], [])
        assert len(rows) == 0 and len(rows.rows) == 0
        assert "dst_order" not in vars(data)

    def test_destination_order_is_narrow_and_stable(self):
        packets = np.zeros(5, dtype=PACKET_DTYPE)
        packets["time"] = [1.0, 2.0, 3.0, 4.0, 5.0]
        packets["dst_ip"] = [9, 3, 9, 3, 1]
        data = DataPlaneCorpus(packets, sampling_rate=10)
        assert data.dst_order.dtype == np.int32
        assert data.dst_order.tolist() == [4, 1, 3, 0, 2]
        assert data.dst_sorted.tolist() == [1, 3, 3, 9, 9]


class ScanCorpus(DataPlaneCorpus):
    """The same store with the batched gather replaced by full-store
    scans: no destination order, no binary search, no row ranges."""

    #: how many batched gathers the pipeline asked for
    scans = 0

    def window_rows(self, prefixes, windows):
        self.scans += 1
        packets = self.packets
        parts, offsets = [], [0]
        for prefix, wins in zip(prefixes, windows):
            shift = np.uint64(32 - prefix.length)
            hits = np.flatnonzero(
                packets["dst_ip"].astype(np.uint64) >> shift
                == np.uint64(prefix.network_int) >> shift)
            times = packets["time"][hits]
            parts += [hits[(times >= t0) & (times < t1)] for t0, t1 in wins]
            offsets.append(sum(map(len, parts)))
        rows = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        return WindowRows(packets, rows, np.array(offsets, dtype=np.int64))


@pytest.fixture(scope="module")
def scan_pipeline(tiny_result):
    data = tiny_result.data
    return AnalysisPipeline(
        tiny_result.control,
        ScanCorpus(data.packets, sampling_rate=data.sampling_rate),
        peer_asns=tiny_result.ixp.member_asns,
        peeringdb=tiny_result.ixp.peeringdb,
        host_min_days=8,
    )


def _outcome(pipeline, name):
    return run_analysis(name, pipeline.analysis_fn(name), strict=False,
                        degraded_inputs=False)


class TestTinyScenario:
    """All 16 analyses on the session scenario: gather vs full scan."""

    @pytest.mark.parametrize("name", ANALYSIS_NAMES)
    def test_fingerprints_equal(self, name, tiny_pipeline, scan_pipeline):
        fast, scan = (_outcome(tiny_pipeline, name),
                      _outcome(scan_pipeline, name))
        assert (fast.status, fast.error_type) == \
            (scan.status, scan.error_type), name
        assert fast.value_digest == scan.value_digest, name

    def test_event_traffic_identical(self, tiny_pipeline, scan_pipeline):
        assert tiny_pipeline.event_traffic == scan_pipeline.event_traffic
        assert sum(t.packets for t in tiny_pipeline.event_traffic) > 0

    def test_pre_classification_fingerprint(self, tiny_pipeline,
                                            scan_pipeline):
        assert value_fingerprint(tiny_pipeline.pre_classification) \
            == value_fingerprint(scan_pipeline.pre_classification)

    def test_the_scan_replaced_every_gather(self, scan_pipeline):
        # event windows and pre-windows, one batched gather each: the
        # comparisons above really ran the scan, not the fast gather
        for name in ANALYSIS_NAMES:
            _outcome(scan_pipeline, name)
        assert scan_pipeline.data.scans == 2
