"""Engine ↔ obs plane integration: the acceptance contract end to end.

During a live session the plane's in-memory verdict and the on-disk
snapshot's verdict must be the same object — so after the process dies
(simulated here by simply not closing anything), ``repro status``
reproduces the verdict from disk.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.obs import ObsPlane, SLORules, load_snapshot, read_events
from repro.obs.snapshot import events_path, snapshot_path
from repro.streaming import StreamEngine


@pytest.fixture()
def telem():
    with telemetry.activate(telemetry.Telemetry()) as t:
        yield t


class TestEngineIntegration:
    def test_tick_observes_and_snapshots(self, corpus, telem):
        engine = StreamEngine.open(corpus)
        plane = ObsPlane(corpus)
        engine.attach_obs(plane)
        consumed = engine.tick()
        assert consumed == 3
        raw = load_snapshot(corpus)
        assert raw["watermark_days"] == 3
        assert raw["committed_days"] == 3
        assert raw["lag_days"] == 0
        assert raw["health"]["state"] == "ok"
        assert raw["metrics"]["counters"][
            "stream.segments_consumed"] == 6
        assert raw["checkpoint_age_seconds"] >= 0.0

    def test_day_consumed_events_logged(self, corpus, telem):
        engine = StreamEngine.open(corpus)
        engine.attach_obs(ObsPlane(corpus))
        engine.tick()
        events, skipped = read_events(events_path(corpus))
        assert skipped == 0
        days = [e["day"] for e in events
                if e["kind"] == "stream.day_consumed"]
        assert days == [0, 1, 2]

    def test_status_reproduces_live_verdict_after_death(self, corpus,
                                                        telem, capsys):
        engine = StreamEngine.open(corpus)
        plane = ObsPlane(corpus, rules=SLORules(max_lag_days=0.5))
        engine.attach_obs(plane)
        engine.tick()
        live_verdict = plane.last_health.state
        # process "dies" here: no close(), no flush — the snapshot must
        # already carry the identical verdict
        exit_code = main(["status", str(corpus), "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["health"]["state"] == live_verdict
        assert exit_code == plane.last_health.exit_code

    def test_obs_sample_without_taps_has_no_tap_keys(self, corpus, telem):
        engine = StreamEngine.open(corpus)
        engine.tick()
        sample = engine.obs_sample()
        assert "taps" not in sample
        assert sample["watermark_days"] == 3


class TestWatchCli:
    def test_watch_once_writes_snapshot(self, corpus, capsys):
        exit_code = main(["watch", str(corpus), "--once", "-q"])
        assert exit_code == 0
        assert snapshot_path(corpus).exists()
        assert main(["status", str(corpus)]) == 0

    def test_watch_json_carries_metrics_snapshot(self, corpus, capsys):
        exit_code = main(["watch", str(corpus), "--once", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"] is not None
        assert payload["telemetry"]["counters"][
            "stream.segments_consumed"] == 6
        assert payload["stream"]["watermark_days"] == 3

    def test_advance_json_carries_telemetry(self, corpus, capsys):
        exit_code = main(["advance", str(corpus), "--days", "1",
                          "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["day_count"] == 4
        assert payload["telemetry"] is not None
        assert "advance.segments{plane=control}" in \
            payload["telemetry"]["counters"]


class TestBackgroundScrub:
    def test_scrub_tick_surfaces_damage_in_sample(self, corpus, telem):
        (corpus / ".tmp-orphan").write_text("x")
        engine = StreamEngine.open(corpus, scrub_every=1)
        engine.tick()
        sample = engine.obs_sample()
        doctor = sample["doctor"]
        assert doctor["damage_count"] == 1
        assert "orphan" in doctor["classes"]
        assert doctor["error_count"] == 0  # tmp orphans are warnings

    def test_scrub_errors_degrade_readiness(self, corpus, telem):
        from repro.obs.slo import evaluate

        # a same-size segment drift is invisible to the quick scrub, so
        # garble the manifest instead — structural, caught without hashes
        (corpus / "manifest.json").write_text("{torn")
        engine = StreamEngine.open(corpus, scrub_every=1)
        engine.tick()
        health = evaluate(engine.obs_sample())
        assert health.state == "degraded"
        (check,) = [c for c in health.checks if c.name == "doctor.damage"]
        assert "repro doctor --repair" in check.detail

    def test_damage_emits_event_and_counter(self, corpus, telem):
        (corpus / ".tmp-orphan").write_text("x")
        engine = StreamEngine.open(corpus, scrub_every=1)
        engine.attach_obs(ObsPlane(corpus))
        engine.tick()
        events, _ = read_events(events_path(corpus))
        assert any(e["kind"] == "doctor.damage" for e in events)
        assert telem.registry.counter("doctor.damage_found").value == 1

    def test_scrub_respects_cadence(self, corpus, telem):
        engine = StreamEngine.open(corpus, scrub_every=3)
        engine.tick()
        assert engine.obs_sample().get("doctor") is None  # tick 1 of 3
        engine.tick()
        engine.tick()
        assert engine.obs_sample().get("doctor") is not None

    def test_scrub_disabled_by_default(self, corpus, telem):
        engine = StreamEngine.open(corpus)
        engine.tick(final=True)
        assert "doctor" not in engine.obs_sample()
