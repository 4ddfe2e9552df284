"""Tap session semantics: deterministic merge, the day-commit fence,
graceful degradation, replay idempotence, and the convergence invariant
(stream fingerprints == batch analyze of the same tap corpus)."""

import json

import pytest

from repro.api import AnalyzeOptions, Study, StreamOptions
from repro.corpus.manifest import MANIFEST_FILE, validate_corpus
from repro.errors import TapError
from repro.scenario.config import DAY
from repro.taps import TapConfig, TapSession, TapState, write_feed
from repro.taps.adapters import ADAPTERS
from tests.taps.conftest import FakeClock, make_messages

#: the control-only analyses a tap corpus (empty data plane) can answer
CONTROL_ANALYSES = ("fig3_load", "fig4_targeted_visibility")

FAST = TapConfig(stall_timeout=1.0)


def append_feed(path, messages, fmt="ris"):
    adapter = ADAPTERS[fmt]()
    if adapter.framing == "mrt":
        with open(path, "ab") as fh:
            for msg in messages:
                fh.write(adapter.encode(msg))
    else:
        with open(path, "a", encoding="utf-8") as fh:
            for msg in messages:
                fh.write(adapter.encode(msg) + "\n")


class TestCommitFence:
    def test_final_pump_commits_and_finalizes(self, tmp_path, clock):
        feed = write_feed(tmp_path / "a.ris", make_messages(days=2), "ris")
        session = TapSession.open(tmp_path / "corpus", [f"ris:{feed}"],
                                  config=FAST, clock=clock)
        report = session.pump(final=True)
        assert report.days_committed == 2
        assert report.finalized
        assert session.committed_days == 2
        assert validate_corpus(tmp_path / "corpus").ok

    def test_day_waits_for_the_slowest_tap(self, tmp_path, clock):
        msgs = make_messages(days=2)
        fast = write_feed(tmp_path / "fast.ris", msgs, "ris")
        # the slow tap has only day-0 records so far
        slow_msgs = [m for m in msgs if m.time < DAY]
        slow = write_feed(tmp_path / "slow.ris", slow_msgs, "ris")
        session = TapSession.open(
            tmp_path / "corpus", [f"fast=ris:{fast}", f"slow=ris:{slow}"],
            config=FAST, clock=clock)
        report = session.pump()
        # day 0 cannot commit: slow's frontier is still inside day 0
        assert report.days_committed == 0
        assert session.committed_days == 0
        # slow catches up past the day-1 fence
        append_feed(slow, [m for m in msgs if m.time >= DAY])
        report = session.pump()
        assert report.days_committed == 1
        assert session.committed_days == 1

    def test_merge_order_is_deterministic(self, tmp_path, clock):
        msgs = make_messages(days=2, per_day=10)
        shas = []
        for run in range(2):
            root = tmp_path / f"run{run}"
            root.mkdir()
            a = write_feed(root / "a.ris", msgs[::2], "ris")
            b = write_feed(root / "b.exabgp", msgs[1::2], "exabgp")
            session = TapSession.open(
                root / "corpus", [f"a=ris:{a}", f"b=exabgp:{b}"],
                config=FAST, clock=FakeClock())
            session.pump(final=True)
            manifest = json.loads(
                (root / "corpus" / MANIFEST_FILE).read_text())
            shas.append(manifest["files"]["control.jsonl"]["sha256"])
        assert shas[0] == shas[1]

    def test_late_records_dropped_on_replay(self, tmp_path, clock):
        msgs = make_messages(days=1)
        feed = write_feed(tmp_path / "a.ris", msgs, "ris")
        corpus = tmp_path / "corpus"
        session = TapSession.open(corpus, [f"ris:{feed}"], config=FAST,
                                  clock=clock)
        session.pump(final=True)
        sha = json.loads((corpus / MANIFEST_FILE).read_text()
                         )["files"]["control.jsonl"]["sha256"]
        # a second session re-reads the same feed from offset 0 (the
        # watcher-restart case): every record is below the fence
        replay = TapSession.open(corpus, [f"ris:{feed}"], config=FAST,
                                 clock=FakeClock())
        report = replay.pump(final=True)
        assert replay.records_late == len(msgs)
        assert report.days_committed == 0
        sha_after = json.loads((corpus / MANIFEST_FILE).read_text()
                               )["files"]["control.jsonl"]["sha256"]
        assert sha_after == sha  # byte-identical corpus: replay is a no-op


class TestDegradation:
    def test_dead_tap_degrades_but_survivors_advance(self, tmp_path, clock):
        msgs = make_messages(days=2)
        alive = write_feed(tmp_path / "alive.ris", msgs, "ris")
        dead = write_feed(tmp_path / "dead.ris",
                          [m for m in msgs if m.time < DAY / 2], "ris")
        session = TapSession.open(
            tmp_path / "corpus", [f"alive=ris:{alive}", f"dead=ris:{dead}"],
            config=FAST, clock=clock)
        session.pump()
        assert session.committed_days == 0  # dead still gates the fence
        # the dead feed never grows: stall → dead; the alive one keeps
        # producing (fresh records each pump), so only one dies
        for extra_day in range(2, 14):
            clock.advance(10.0)
            append_feed(alive, make_messages(days=1, per_day=1,
                                             start_day=extra_day))
            session.pump()
            if session.degraded:
                break
        assert session.degraded
        status = session.status()
        assert status["dead"]["state"] == "dead"
        assert status["alive"]["state"] != "dead"
        # with the dead tap out of the fence the surviving tap commits
        assert session.committed_days >= 2
        assert session.supervisors[1].state is TapState.DEAD

    def test_empty_source_dies_and_releases_the_fence(self, tmp_path,
                                                       clock):
        """A source that exists but never gets a byte is judged by the
        same progress clock as one that went quiet."""
        live = write_feed(tmp_path / "live.ris", make_messages(days=3),
                          "ris")
        empty = tmp_path / "empty.ris"
        empty.touch()
        session = TapSession.open(
            tmp_path / "corpus", [f"live=ris:{live}", f"empty=ris:{empty}"],
            config=FAST, clock=clock)
        session.pump()
        assert session.committed_days == 0  # the empty tap gates day 0
        for extra_day in range(3, 13):
            clock.advance(0.5)
            append_feed(live, make_messages(days=1, per_day=1,
                                            start_day=extra_day))
            session.pump()
            if session.degraded:
                break
        status = session.status()
        assert status["empty"]["state"] == "dead"
        assert status["live"]["state"] == "live"
        assert session.committed_days >= 3

    def test_replayed_dead_feed_converges_to_batch(self, tmp_path, clock):
        """The acceptance-criteria invariant: after the dead feed's
        records are replayed, the stream report fingerprints equal a
        batch analyze of the same corpus."""
        msgs = make_messages(days=2)
        alive = write_feed(tmp_path / "alive.ris", msgs[::2], "ris")
        dead = write_feed(tmp_path / "dead.ris",
                          [m for m in msgs[1::2] if m.time < DAY / 2],
                          "ris")
        corpus = tmp_path / "corpus"
        session = TapSession.open(
            corpus, [f"alive=ris:{alive}", f"dead=ris:{dead}"],
            config=FAST, clock=clock)
        for _ in range(12):
            clock.advance(10.0)
            session.pump()
            if session.degraded:
                break
        assert session.degraded
        session.pump(final=True)
        # replay: the dead feed comes back with everything it ever had —
        # already-committed days are fenced off, the corpus is unchanged
        append_feed(dead, [m for m in msgs[1::2] if m.time >= DAY / 2])
        study = Study.tap(corpus)
        stream = study.stream(options=StreamOptions(
            taps=(f"alive=ris:{alive}", f"dead=ris:{dead}"),
            tap_config=FAST, analyses=CONTROL_ANALYSES, host_min_days=1,
            cache=False))
        batch = study.analyze(options=AnalyzeOptions(
            analyses=CONTROL_ANALYSES, host_min_days=1))
        assert stream.fingerprints() == {
            o.name: o.value_digest for o in batch.outcomes}

    def test_all_dead_flushes_buffered_days(self, tmp_path, clock):
        feed = write_feed(tmp_path / "a.ris",
                          make_messages(days=1, per_day=6), "ris")
        session = TapSession.open(tmp_path / "corpus", [f"ris:{feed}"],
                                  config=FAST, clock=clock)
        session.pump()
        assert session.committed_days == 0  # day 0 incomplete, tap alive
        for _ in range(12):
            clock.advance(10.0)
            session.pump()
            if session.all_inactive:
                break
        assert session.all_inactive
        # nothing more will ever arrive: the buffered day was flushed
        assert session.committed_days == 1


class TestStreamEquivalence:
    @pytest.mark.parametrize("fmt", ["ris", "exabgp", "mrt"])
    def test_stream_matches_batch_per_format(self, tmp_path, fmt):
        msgs = make_messages(days=2)
        feed = write_feed(tmp_path / f"feed.{fmt}", msgs, fmt)
        corpus = tmp_path / "corpus"
        study = Study.tap(corpus)
        stream = study.stream(options=StreamOptions(
            taps=(f"{fmt}:{feed}",), analyses=CONTROL_ANALYSES,
            host_min_days=1, cache=False))
        assert stream.watermark_days == 2
        assert not stream.tap_degraded
        batch = study.analyze(options=AnalyzeOptions(
            analyses=CONTROL_ANALYSES, host_min_days=1))
        assert stream.fingerprints() == {
            o.name: o.value_digest for o in batch.outcomes}

    def test_watch_resumes_over_growing_feed(self, tmp_path):
        msgs = make_messages(days=3)
        feed = write_feed(tmp_path / "a.ris",
                          [m for m in msgs if m.time < DAY], "ris")
        corpus = tmp_path / "corpus"
        study = Study.tap(corpus)
        first = study.stream(options=StreamOptions(
            taps=(f"ris:{feed}",), analyses=("fig3_load",),
            host_min_days=1, cache=False))
        assert first.watermark_days == 1
        append_feed(feed, [m for m in msgs if m.time >= DAY])
        second = study.stream(options=StreamOptions(
            taps=(f"ris:{feed}",), analyses=("fig3_load",),
            host_min_days=1, cache=False))
        assert second.watermark_days == 3
        batch = study.analyze(options=AnalyzeOptions(
            analyses=("fig3_load",), host_min_days=1))
        assert second.fingerprints() == {
            o.name: o.value_digest for o in batch.outcomes}


class TestBootstrapGuards:
    def test_refuses_generated_corpus_journal(self, stream_corpus):
        with pytest.raises(TapError, match="refusing to tap"):
            TapSession.open(stream_corpus, ["ris:/dev/null"])

    def test_refuses_duplicate_names(self, tmp_path):
        with pytest.raises(TapError, match="duplicate tap names"):
            TapSession.open(tmp_path / "c",
                            ["a=ris:x.jsonl", "a=mrt:y.mrt"])

    def test_refuses_empty_specs(self, tmp_path):
        with pytest.raises(TapError, match="at least one"):
            TapSession.open(tmp_path / "c", [])

    def test_platform_sidecar_records_taps_and_peers(self, tmp_path,
                                                     clock):
        feed = write_feed(tmp_path / "a.ris", make_messages(days=1), "ris")
        corpus = tmp_path / "corpus"
        session = TapSession.open(corpus, [f"up=ris:{feed}"], config=FAST,
                                  clock=clock)
        session.pump(final=True)
        meta = json.loads((corpus / "platform.json").read_text())
        assert meta["peer_asns"] == [65001, 65002, 65003]
        assert "up" in meta["tap_session"]
        assert meta["duration_days"] == 1
