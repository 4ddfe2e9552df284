"""ObsPlane: the per-tick observe loop wiring events, snapshots, SLO."""

import pytest

from repro import telemetry
from repro.obs import ObsPlane, SLORules, load_snapshot, read_events
from repro.obs.snapshot import events_path


@pytest.fixture()
def telem():
    with telemetry.activate(telemetry.Telemetry()) as t:
        yield t


class TestObserve:
    def test_snapshot_written_per_observe(self, tmp_path, telem):
        with ObsPlane(tmp_path) as plane:
            health = plane.observe({"lag_days": 0, "watermark_days": 1})
            assert health.state == "ok"
            raw = load_snapshot(tmp_path)
            assert raw["watermark_days"] == 1
            assert raw["ticks_observed"] == 1
            assert raw["health"]["state"] == "ok"
            assert raw["slo"] == SLORules().to_json()
            plane.observe({"lag_days": 0, "watermark_days": 2})
            assert load_snapshot(tmp_path)["ticks_observed"] == 2

    def test_slo_transition_emits_event(self, tmp_path, telem):
        with ObsPlane(tmp_path, rules=SLORules(max_lag_days=1.0)) as plane:
            plane.observe({"lag_days": 0})
            plane.observe({"lag_days": 2})   # ok -> degraded
            plane.observe({"lag_days": 2})   # no transition: no new event
            plane.observe({"lag_days": 0})   # degraded -> ok
        transitions = [r for r in telem.events.records
                       if r["kind"] == "slo.state"]
        assert [(t["from_state"], t["to_state"]) for t in transitions] == \
            [(None, "ok"), ("ok", "degraded"), ("degraded", "ok")]
        assert transitions[1]["severity"] == "warning"

    def test_events_land_in_jsonl_log(self, tmp_path, telem):
        with ObsPlane(tmp_path) as plane:
            telem.event("tap.dead", severity="error", tap="a")
            plane.observe({"lag_days": 0})
        events, skipped = read_events(events_path(tmp_path))
        assert skipped == 0
        kinds = [e["kind"] for e in events]
        assert "obs.session_started" in kinds
        assert "tap.dead" in kinds
        assert "obs.session_closed" in kinds

    def test_debug_events_filtered_from_log_by_default(self, tmp_path,
                                                       telem):
        with ObsPlane(tmp_path) as plane:
            telem.event("checkpoint.commit", severity="debug", key="x")
            plane.observe({})
        events, _ = read_events(events_path(tmp_path))
        assert "checkpoint.commit" not in [e["kind"] for e in events]
        # but it reached the in-memory channel
        assert "checkpoint.commit" in [r["kind"]
                                       for r in telem.events.records]

    def test_close_unsubscribes(self, tmp_path, telem):
        plane = ObsPlane(tmp_path)
        plane.close()
        before = plane.event_log.written
        telem.event("tap.dead", severity="error", tap="late")
        assert plane.event_log.written == before

    def test_snapshot_survives_abrupt_death(self, tmp_path, telem):
        # no close(): the last observe()'s snapshot must be complete
        plane = ObsPlane(tmp_path)
        plane.observe({"lag_days": 3, "watermark_days": 0})
        raw = load_snapshot(tmp_path)
        assert raw["health"]["state"] == "degraded"

    def test_counts_snapshots_written(self, tmp_path, telem):
        with ObsPlane(tmp_path) as plane:
            plane.observe({})
            plane.observe({})
        assert telem.counter("obs.snapshots_written").value == 2

