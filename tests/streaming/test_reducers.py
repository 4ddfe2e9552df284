"""Reducer units: each one must mirror its batch computation exactly,
under any chunking of the input and across a state round trip."""

import pytest

from repro.core.events import DEFAULT_DELTA
from repro.errors import AnalysisError
from repro.parallel.golden import value_fingerprint
from repro.streaming import ControlReducer, PreRTBHReducer, TrafficReducer
from tests.corpus.rtbh_oracle import oracle_windows


def _fed(messages):
    reducer = ControlReducer()
    for msg in messages:
        reducer.feed(msg)
    return reducer


@pytest.fixture(scope="module")
def fed_control(tiny_result):
    return _fed(tiny_result.control)


def test_windows_snapshot_equals_batch(tiny_result, fed_control):
    assert fed_control.windows_snapshot() == \
        oracle_windows(list(tiny_result.control))


def test_events_equal_batch(tiny_pipeline, fed_control):
    assert value_fingerprint(fed_control.events(DEFAULT_DELTA)) == \
        value_fingerprint(tiny_pipeline.events)


def test_load_series_equals_batch(tiny_pipeline, fed_control):
    assert value_fingerprint(fed_control.load_series()) == \
        value_fingerprint(tiny_pipeline.run("fig3_load"))


def test_empty_reducer_raises_like_batch():
    with pytest.raises(AnalysisError, match="empty control corpus"):
        ControlReducer().load_series()
    assert ControlReducer().windows_snapshot() == {}
    assert ControlReducer().events() == []


def test_traffic_fragments_tile_windows(tiny_result, tiny_pipeline,
                                        fed_control):
    """Accumulating between intermediate frontiers must equal one pass."""
    data = tiny_result.data
    events = fed_control.events()
    final = fed_control.end_time

    single = TrafficReducer()
    single.advance(data, events, final)

    stepped = TrafficReducer()
    for frontier in (final / 4, final / 2, final):
        # events visible at an earlier frontier are a subset with the
        # same ids for already-closed windows; feeding the final event
        # list at every step is the engine's actual call pattern
        stepped.advance(data, events, frontier)
    stepped = TrafficReducer.from_state(stepped.to_state())

    assert stepped.totals == single.totals
    assert value_fingerprint(stepped.traffic(events)) == \
        value_fingerprint(tiny_pipeline.event_traffic)


def test_pre_rtbh_classifies_each_event_once(tiny_result, tiny_pipeline,
                                             fed_control):
    reducer = PreRTBHReducer()
    events = fed_control.events()
    assert reducer.advance(tiny_result.data, events) == len(events)
    assert reducer.advance(tiny_result.data, events) == 0

    roundtripped = PreRTBHReducer.from_state(reducer.to_state())
    assert value_fingerprint(roundtripped.classification(events)) == \
        value_fingerprint(tiny_pipeline.pre_classification)
