"""The corpus RTBH accessors are one fold of :class:`ControlReducer`;
this checks that fold against the loop oracle of :mod:`tests.corpus
.rtbh_oracle` on random update streams.

The streams mix several peers per prefix, blackhole re-announcements
while a window is open, downgrades to a plain route, stray withdrawals
and plain announcements, duplicate timestamps, and windows left open at
the end.  A second reducer is read at a random message and then fed the
rest, the way ``repro watch`` reports at a day boundary and consumes on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.events import events_from_merged_windows, extract_events
from repro.core.load import rtbh_load_series
from repro.core.offset import announced_interval_sets
from repro.corpus import ControlPlaneCorpus
from repro.corpus.control import ControlReducer, merge_annotated_windows
from repro.net import IPv4Address, IPv4Prefix
from tests.corpus.rtbh_oracle import (
    oracle_flags,
    oracle_load_series,
    oracle_origin_of,
    oracle_union,
    oracle_windows,
)

NH = IPv4Address("192.0.2.66")
PREFIXES = (IPv4Prefix("203.0.113.7/32"), IPv4Prefix("198.51.100.0/24"))
PEERS = (100, 200, 300)
ORIGINS = (65001, 65002)


@st.composite
def streams(draw):
    """Time-ordered UPDATEs: blackhole and plain announcements and
    withdrawals over a few peers and prefixes."""
    messages = []
    time = 0.0
    for _ in range(draw(st.integers(0, 30))):
        time += draw(st.sampled_from((0.0, 0.5, 30.0, 200.0, 900.0)))
        peer = draw(st.sampled_from(PEERS))
        prefix = draw(st.sampled_from(PREFIXES))
        kind = draw(st.sampled_from(("blackhole", "plain", "withdraw")))
        if kind == "withdraw":
            messages.append(withdraw(time, peer, prefix))
            continue
        communities = frozenset({BLACKHOLE}) if kind == "blackhole" \
            else frozenset()
        messages.append(announce(
            time, peer, prefix, NH,
            as_path=(peer, draw(st.sampled_from(ORIGINS))),
            communities=communities))
    return messages


def _union(merged):
    return {prefix: [(s, e) for s, e, *_ in windows]
            for prefix, windows in merged.items()}


@settings(deadline=None)
@given(streams(), st.floats(0.0, 2_000.0), st.integers(0, 30))
def test_fold_equals_oracle(messages, delta, cut):
    corpus = ControlPlaneCorpus(messages)
    msgs = list(corpus)
    flags = oracle_flags(msgs)
    windows = oracle_windows(msgs)
    origin_of = oracle_origin_of(msgs)

    assert corpus.rtbh_updates() == [m for m, f in zip(msgs, flags) if f]
    assert corpus.rtbh_message_count() == sum(flags)
    assert corpus.rtbh_windows_by_prefix() == windows
    fold = corpus.rtbh_fold
    assert fold.origin_of == origin_of
    assert _union(fold.merged_windows()) == {
        prefix: oracle_union(ws) for prefix, ws in windows.items()}
    assert set(announced_interval_sets(corpus)) == set(windows)
    want_events = events_from_merged_windows(
        merge_annotated_windows(windows, origin_of), delta)
    assert extract_events(corpus, delta) == want_events
    if msgs and corpus.end_time > corpus.start_time:
        series = rtbh_load_series(corpus)
        active, counts = oracle_load_series(msgs, corpus.start_time,
                                            corpus.end_time)
        assert np.array_equal(series.active_prefixes, active)
        assert np.array_equal(series.messages_per_minute, counts)

    # read the fold at a cut (which caches its union), then feed on
    cut = min(cut, len(msgs))
    stepped = ControlReducer()
    assert [stepped.feed(m) for m in msgs[:cut]] == flags[:cut]
    assert stepped.windows_snapshot() == oracle_windows(msgs[:cut])
    stepped.events(delta)
    assert [stepped.feed(m) for m in msgs[cut:]] == flags[cut:]
    assert stepped.windows_snapshot() == windows
    assert stepped.origin_of == origin_of
    assert stepped.rtbh_messages == corpus.rtbh_updates()
    assert stepped.events(delta) == want_events
    if msgs and corpus.end_time > corpus.start_time:
        assert np.array_equal(stepped.load_series().active_prefixes,
                              series.active_prefixes)
