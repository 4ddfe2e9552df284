"""The corpus RTBH accessors are one fold of :class:`ControlReducer`;
this checks that fold against the loop oracle of :mod:`tests.corpus
.rtbh_oracle` on random update streams.

The streams mix several peers per prefix, blackhole re-announcements
while a window is open, downgrades to a plain route, stray withdrawals
and plain announcements, duplicate timestamps, and windows left open at
the end.  A second reducer is cut at a random message, round-tripped
through JSON state and fed the rest, the way ``repro watch`` resumes
from its checkpoint.
"""

import json

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
    fold = corpus.rtbh_fold()
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

    # cut the feed, resume from JSON state, feed the rest
    cut = min(cut, len(msgs))
    head = ControlReducer()
    assert [head.feed(m) for m in msgs[:cut]] == flags[:cut]
    assert head.windows_snapshot() == oracle_windows(msgs[:cut])
    resumed = ControlReducer.from_state(
        json.loads(json.dumps(head.to_state())))
    assert [resumed.feed(m) for m in msgs[cut:]] == flags[cut:]
    assert resumed.windows_snapshot() == windows
    assert resumed.origin_of == origin_of
    assert resumed.rtbh_times == fold.rtbh_times
    assert resumed.events(delta) == want_events
    if msgs and corpus.end_time > corpus.start_time:
        assert np.array_equal(resumed.load_series().active_prefixes,
                              series.active_prefixes)


#: ``to_state()`` of the reducer as the stream checkpoint stored it
#: before the automaton moved into ``repro.corpus.control``: two peers
#: on one /32 (one window closed, one open) and a plain route upgraded
#: to a blackhole on a /24
LEGACY_STATE = {
    "active": [[200, "203.0.113.7/32"], [300, "198.51.100.0/24"]],
    "open_at": [[200, "203.0.113.7/32", 20.0],
                [300, "198.51.100.0/24", 90.0]],
    "windows": {"203.0.113.7/32": [[10.0, 70.5, 100]]},
    "origin_of": [["203.0.113.7/32", 100, 65001],
                  ["203.0.113.7/32", 200, 65002],
                  ["198.51.100.0/24", 300, 300]],
    "rtbh_times": [10.0, 20.0, 70.5, 90.0],
    "message_count": 5,
    "start_time": 10.0,
    "end_time": 90.0,
}


def _legacy_messages():
    host, net = PREFIXES
    bh = frozenset({BLACKHOLE})
    return [
        announce(10.0, 100, host, NH, as_path=(100, 65001), communities=bh),
        announce(20.0, 200, host, NH, as_path=(200, 65002), communities=bh),
        withdraw(70.5, 100, host),
        announce(80.0, 300, net, NH, as_path=(300,)),
        announce(90.0, 300, net, NH, as_path=(300,), communities=bh),
    ]


def _canonical(state):
    return dict(state, active=sorted(state["active"]),
                open_at=sorted(state["open_at"]))


def test_checkpoint_state_layout_is_unchanged():
    fed = ControlReducer()
    for msg in _legacy_messages():
        fed.feed(msg)
    state = json.loads(json.dumps(fed.to_state()))
    assert list(state) == list(LEGACY_STATE)
    assert _canonical(state) == _canonical(LEGACY_STATE)
    assert all(len(pair) == 2 for pair in state["active"])
    assert all(len(entry) == 3 for entry in state["open_at"])
    assert all(len(entry) == 3 for entry in state["origin_of"])
    assert all(len(w) == 3 for ws in state["windows"].values() for w in ws)

    restored = ControlReducer.from_state(LEGACY_STATE)
    assert restored.windows_snapshot() == fed.windows_snapshot()
    assert restored.origin_of == fed.origin_of
    assert restored.events() == fed.events()
    assert _canonical(restored.to_state()) == _canonical(LEGACY_STATE)
