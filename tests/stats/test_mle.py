"""Tests for the control/data time-offset MLE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import IntervalSet
from repro.errors import AnalysisError
from repro.net import IPv4Prefix
from repro.stats import estimate_time_offset

P1 = IPv4Prefix("203.0.113.7/32")
P2 = IPv4Prefix("198.51.100.9/32")


def interval(*spans):
    iset = IntervalSet()
    for start, end in spans:
        iset.open_at(start)
        iset.close_at(end)
    return iset.finalize(max(e for _, e in spans))


class TestOffsetEstimation:
    def test_recovers_injected_offset(self):
        rng = np.random.default_rng(0)
        intervals = {P1: interval((100.0, 400.0), (600.0, 900.0))}
        true_offset = -0.4
        # data-plane times = control-plane times - offset
        control_times = np.r_[rng.uniform(100, 400, 3000), rng.uniform(600, 900, 3000)]
        dropped = {P1: control_times - true_offset}
        est = estimate_time_offset(dropped, intervals,
                                   offsets=np.arange(-2.0, 2.0001, 0.04))
        assert est.best_offset == pytest.approx(true_offset, abs=0.04)
        assert est.best_share > 0.99

    def test_zero_offset(self):
        intervals = {P1: interval((0.0, 100.0))}
        dropped = {P1: np.linspace(1, 99, 200)}
        est = estimate_time_offset(dropped, intervals)
        assert abs(est.best_offset) <= 0.04 + 1e-9
        assert est.best_share == 1.0

    def test_multiple_prefixes_combined(self):
        intervals = {P1: interval((0.0, 50.0)), P2: interval((100.0, 150.0))}
        dropped = {P1: np.linspace(1, 49, 100), P2: np.linspace(101, 149, 100)}
        est = estimate_time_offset(dropped, intervals)
        assert est.total_packets == 200
        assert est.best_share == 1.0

    def test_prefix_without_intervals_counts_as_unmatched(self):
        intervals = {P1: interval((0.0, 100.0))}
        dropped = {P1: np.linspace(1, 99, 100), P2: np.linspace(1, 99, 100)}
        est = estimate_time_offset(dropped, intervals)
        assert est.best_share == pytest.approx(0.5)

    def test_no_packets_rejected(self):
        with pytest.raises(AnalysisError):
            estimate_time_offset({}, {})

    def test_empty_offsets_rejected(self):
        with pytest.raises(AnalysisError):
            estimate_time_offset({P1: np.array([1.0])}, {P1: interval((0.0, 2.0))},
                                 offsets=np.array([]))

    def test_rows_export(self):
        est = estimate_time_offset({P1: np.array([1.0])}, {P1: interval((0.0, 2.0))},
                                   offsets=np.array([0.0, 10.0]))
        rows = est.as_rows()
        assert rows[0] == (0.0, 1.0) and rows[1] == (10.0, 0.0)


def per_offset_matched(dropped, intervals, offsets):
    """The per-offset loop: one ``contains`` per (group, offset) — the
    reference for the edge-only scan."""
    matched = np.zeros(len(offsets), dtype=np.int64)
    for prefix, times in dropped.items():
        iset = intervals.get(prefix)
        if iset is None or len(iset) == 0:
            continue
        for i, offset in enumerate(offsets):
            matched[i] += int(iset.contains(times + offset).sum())
    return matched


GRIDS = (
    np.arange(-2.0, 2.0 + 1e-9, 0.04),   # the default scan
    np.arange(0.0, 1.5, 0.1),            # one-sided
    np.arange(-0.7, -0.05, 0.05),        # one-sided, all negative
)


@st.composite
def edge_samples(draw):
    """Interval sets and samples on, next to and far from their edges.

    Samples sit exactly at ``edge - offset`` for trial offsets (the
    shifted time lands on the edge), one ulp either side of that, and
    anywhere else, including seconds from any edge.
    """
    offsets = draw(st.sampled_from(GRIDS))
    groups, dropped = {}, {}
    for g in range(draw(st.integers(1, 3))):
        cuts = sorted(set(draw(st.lists(st.integers(0, 400), min_size=2,
                                        max_size=8))))
        cuts = cuts[:len(cuts) - len(cuts) % 2]
        spans = [(c * 0.25 + 1000.0, d * 0.25 + 1000.0)
                 for c, d in zip(cuts[::2], cuts[1::2])]
        prefix = IPv4Prefix(0x0A000000 + g, 32)
        if spans:
            groups[prefix] = interval(*spans)
        edges = [e for span in spans for e in span] or [1000.0]
        times = []
        for _ in range(draw(st.integers(0, 25))):
            edge = draw(st.sampled_from(edges))
            offset = draw(st.sampled_from(offsets.tolist()))
            kind = draw(st.sampled_from(("on", "below", "above", "anywhere")))
            t = edge - offset
            if kind == "below":
                t = np.nextafter(t, -np.inf)
            elif kind == "above":
                t = np.nextafter(t, np.inf)
            elif kind == "anywhere":
                t = draw(st.floats(900.0, 1200.0))
            times.append(t)
        dropped[prefix] = np.array(times, dtype=np.float64)
    return dropped, groups, offsets


class TestEdgeOnlyScanOracle:
    @settings(deadline=None)
    @given(edge_samples())
    def test_matches_per_offset_loop(self, case):
        dropped, groups, offsets = case
        total = sum(len(t) for t in dropped.values())
        if total == 0:
            return
        est = estimate_time_offset(dropped, groups, offsets=offsets)
        want = per_offset_matched(dropped, groups, offsets)
        assert np.array_equal(est.overlap_share, want / total)

    @pytest.mark.parametrize("offsets", GRIDS)
    def test_samples_on_shifted_edges(self, offsets):
        iset = interval((100.0, 130.0), (130.5, 200.0))
        edges = np.array([100.0, 130.0, 130.5, 200.0])
        on = (edges[:, None] - offsets).reshape(-1)
        times = np.concatenate([on, np.nextafter(on, -np.inf),
                                np.nextafter(on, np.inf),
                                [50.0, 115.0, 160.0, 400.0]])
        dropped = {P1: times}
        est = estimate_time_offset(dropped, {P1: iset}, offsets=offsets)
        want = per_offset_matched(dropped, {P1: iset}, offsets)
        assert np.array_equal(est.overlap_share, want / len(times))
