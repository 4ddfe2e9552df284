"""Tap supervisor fault paths, each driven deterministically: the clock
is injected and the feeds are files — no sleeping, no network, no
flakiness."""

import json

import pytest

from repro.corpus.ingest import ErrorPolicy
from repro.errors import TapError
from repro.taps import (
    BoundedQueue,
    TapConfig,
    TapState,
    TapSupervisor,
    parse_tap_spec,
    write_feed,
)
from repro.taps.supervisor import DEAD_AFTER_STALLS
from tests.taps.conftest import make_messages
from tests.taps.test_session import append_feed

#: a short stall window so fault paths trigger in a handful of polls
FAST = dict(stall_timeout=1.0)


def make_tap(tmp_path, clock, fmt="ris", messages=None, name="feed",
             **overrides):
    messages = make_messages() if messages is None else messages
    path = write_feed(tmp_path / f"{name}.{fmt}", messages, fmt)
    config = TapConfig(**{**FAST, **overrides})
    spec = parse_tap_spec(f"{name}={fmt}:{path}")
    return TapSupervisor(spec, config=config, quarantine_dir=tmp_path,
                         clock=clock), path


class TestHappyPath:
    @pytest.mark.parametrize("fmt", ["ris", "exabgp", "mrt"])
    def test_reads_whole_feed(self, tmp_path, clock, fmt):
        sup, _ = make_tap(tmp_path, clock, fmt=fmt)
        sup.poll()
        items = sup.drain()
        assert len(items) == 24
        assert sup.state is TapState.LIVE
        times = [t for t, _, _ in items]
        assert times == sorted(times)
        seqs = [s for _, s, _ in items]
        assert seqs == list(range(24))

    def test_frontier_tracks_newest_record(self, tmp_path, clock, messages):
        sup, _ = make_tap(tmp_path, clock, messages=messages)
        sup.poll()
        assert sup.frontier == max(m.time for m in messages)

    def test_epoch_shifts_into_corpus_time(self, tmp_path, clock, messages):
        shifted = [m for m in messages]
        sup, _ = make_tap(tmp_path, clock, messages=shifted,
                          epoch=shifted[0].time)
        sup.poll()
        times = [t for t, _, _ in sup.drain()]
        assert times[0] == 0.0
        assert sup.records_malformed == 0


class TestStallWatchdog:
    def test_quiet_feed_stalls_after_one_window(self, tmp_path, clock):
        sup, _ = make_tap(tmp_path, clock)
        sup.poll()  # consumes the whole fixture: LIVE
        clock.advance(1.0)
        sup.poll()  # exactly one window: not yet stalled
        assert sup.state is TapState.LIVE
        clock.advance(0.5)
        sup.poll()  # past the window: the watchdog fires
        assert sup.state is TapState.STALLED
        assert sup.stalls == 1
        assert sup.alive  # a stalled tap still gates the fence
        assert "stalled" in sup.last_error

    def test_stall_window_resets_on_progress(self, tmp_path, clock,
                                             messages):
        sup, path = make_tap(tmp_path, clock)
        sup.poll()
        clock.advance(0.9)
        sup.poll()  # inside the window: no stall
        assert sup.state is TapState.LIVE
        append_feed(path, make_messages(days=1, start_day=2))
        clock.advance(0.9)
        sup.poll()
        clock.advance(0.9)
        sup.poll()  # 1.8s since the first read, 0.9s since progress
        assert sup.state is TapState.LIVE
        assert sup.stalls == 0


class TestDeadline:
    def test_new_bytes_return_a_stalled_tap_to_live(self, tmp_path, clock):
        sup, path = make_tap(tmp_path, clock)
        sup.poll()
        sup.drain()
        clock.advance(2.5)
        sup.poll()
        assert sup.state is TapState.STALLED
        append_feed(path, make_messages(days=1, start_day=3))
        clock.advance(0.1)
        sup.poll()
        assert sup.state is TapState.LIVE
        assert sup.last_error is None
        assert len(sup.drain()) == 12
        # the clock restarted at the new bytes: a fresh full window is
        # needed before the next stall
        clock.advance(1.0)
        sup.poll()
        assert sup.state is TapState.LIVE

    def test_silence_for_three_windows_is_dead(self, tmp_path, clock):
        sup, _ = make_tap(tmp_path, clock)
        sup.poll()
        for _ in range(DEAD_AFTER_STALLS * 2):
            clock.advance(0.5)
            sup.poll()
        assert sup.state is TapState.STALLED  # exactly three windows
        clock.advance(0.1)
        sup.poll()
        assert sup.state is TapState.DEAD
        assert not sup.alive
        assert sup.stalls == 1  # one episode, not one per poll

    def test_dead_tap_reads_nothing(self, tmp_path, clock):
        sup, path = make_tap(tmp_path, clock)
        sup.poll()
        sup.drain()
        clock.advance(3.5)
        sup.poll()  # one poll after a long silence goes straight to dead
        assert sup.state is TapState.DEAD
        assert "no new data" in sup.last_error
        # dead is permanent: new bytes are not even read
        offset = sup._reader.offset
        append_feed(path, make_messages(days=1, start_day=3))
        clock.advance(100.0)
        sup.poll()
        sup.poll(final=True)
        assert sup.state is TapState.DEAD
        assert sup._reader.offset == offset
        assert sup.drain() == []


class TestQueue:
    def test_block_policy_defers_reading(self, tmp_path, clock):
        sup, _ = make_tap(tmp_path, clock, queue_capacity=5)
        sup.poll()
        assert len(sup.queue) == 5
        assert len(sup._pending) > 0
        depth_before = len(sup.queue)
        sup.poll()  # saturated: skips the read entirely
        assert len(sup.queue) == depth_before
        got = sup.drain()
        assert len(got) == 5
        while True:
            sup.poll()  # drained: pending flows in
            batch = sup.drain()
            if not batch:
                break
            got += batch
        # nothing is dropped: every record arrives, in feed order
        assert [s for _, s, _ in got] == list(range(24))

    def test_rewind_discards_undelivered_records(self, tmp_path, clock,
                                                 messages):
        sup, path = make_tap(tmp_path, clock, queue_capacity=5)
        sup.poll()
        sup.drain()
        assert len(sup._pending) == 19  # read but not yet handed over
        write_feed(path, messages[:2], "ris")  # truncated and rewritten
        sup.poll()
        assert sup.generation == 1
        # the held-back records belong to the old generation: only the
        # re-read ones reach the session
        assert [msg for _, _, msg in sup.drain()] == messages[:2]
        assert sup._pending == []

    def test_bounded_queue_unit(self):
        q = BoundedQueue(3)
        assert q.push([1, 2, 3, 4, 5]) == [4, 5]
        assert q.drain() == [1, 2, 3]
        assert q.push([1]) == []


class TestQuarantine:
    def corrupt_feed(self, tmp_path, name="bad"):
        path = write_feed(tmp_path / f"{name}.ris",
                          make_messages(days=1, per_day=4), "ris")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
            fh.write('{"type": "UPDATE", "timestamp": "NaN"}\n')
        return path

    def test_collect_quarantines_with_sidecar(self, tmp_path, clock):
        path = self.corrupt_feed(tmp_path)
        spec = parse_tap_spec(f"bad=ris:{path}")
        sup = TapSupervisor(spec, config=TapConfig(**FAST),
                            quarantine_dir=tmp_path, clock=clock)
        sup.poll()
        assert sup.records_ok == 4
        assert sup.records_malformed == 2
        sidecar = tmp_path / "bad.quarantine.jsonl"
        assert sidecar.exists()
        assert len(sidecar.read_text().splitlines()) == 2

    def test_reingest_dedupes_by_digest(self, tmp_path, clock):
        path = self.corrupt_feed(tmp_path)
        spec = parse_tap_spec(f"bad=ris:{path}")
        first = TapSupervisor(spec, config=TapConfig(**FAST),
                              quarantine_dir=tmp_path, clock=clock)
        first.poll()
        # a fresh supervisor re-reads the same feed: same malformed
        # payloads, but the sidecar must not grow
        second = TapSupervisor(spec, config=TapConfig(**FAST),
                               quarantine_dir=tmp_path, clock=clock)
        second.poll()
        sidecar = tmp_path / "bad.quarantine.jsonl"
        assert len(sidecar.read_text().splitlines()) == 2
        assert second.report.quarantine_duplicates == 2
        assert second.records_ok == 4

    def test_strict_policy_raises_on_first_bad_record(self, tmp_path, clock):
        path = self.corrupt_feed(tmp_path)
        spec = parse_tap_spec(f"bad=ris:{path}")
        sup = TapSupervisor(spec, config=TapConfig(
            **{**FAST, "policy": ErrorPolicy.STRICT}),
            quarantine_dir=tmp_path, clock=clock)
        with pytest.raises(TapError, match="not JSON"):
            sup.poll()

    def test_mrt_garbage_header_freezes_with_evidence(self, tmp_path,
                                                      clock):
        path = write_feed(tmp_path / "g.mrt",
                          make_messages(days=1, per_day=3), "mrt")
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 64)  # absurd length claim: framing garbage
        spec = parse_tap_spec(f"g=mrt:{path}")
        sup = TapSupervisor(spec, config=TapConfig(**FAST),
                            quarantine_dir=tmp_path, clock=clock)
        sup.poll()
        assert sup.records_ok == 3
        assert sup.records_malformed == 1
        sidecar = tmp_path / "g.quarantine.jsonl"
        assert "ffffffff" in sidecar.read_text()  # the hex evidence
        # the stream is desynchronized: appended bytes are ignored and
        # the progress clock walks the tap toward dead
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 32)
        clock.advance(1.5)
        sup.poll()
        assert sup.state is TapState.STALLED
        assert sup.records_ok == 3


class TestSourceRecovery:
    def test_vanished_source_is_a_failure_not_a_crash(self, tmp_path,
                                                      clock):
        sup, path = make_tap(tmp_path, clock)
        path.unlink()
        sup.poll()
        assert sup.state is TapState.CONNECTING
        assert "source error" in sup.last_error
        clock.advance(1.5)
        sup.poll()
        assert sup.state is TapState.STALLED
        assert "source error" in sup.last_error
        clock.advance(2.0)
        sup.poll()
        assert sup.state is TapState.DEAD

    @pytest.mark.parametrize("rotation", [
        "truncated", "replaced", "replaced-same-size"])
    def test_rewritten_source_rewinds_in_one_poll(self, tmp_path, clock,
                                                  rotation):
        sup, path = make_tap(tmp_path, clock,
                             messages=make_messages(days=1))
        sup.poll()
        assert len(sup.drain()) == 12
        assert sup.generation == 0
        if rotation == "truncated":
            # rewritten in place, shorter than the consumed offset
            fresh = make_messages(days=1)[:2]
            write_feed(path, fresh, "ris")
        else:
            # logrotate ``create`` style: the old file is renamed away
            # and a new one, as large or larger, takes its name
            path.rename(path.with_name(path.name + ".1"))
            fresh = make_messages(days=1 if rotation.endswith("size")
                                  else 3)
            write_feed(path, fresh, "ris")
            assert path.stat().st_size >= sup._reader.offset
        clock.advance(0.1)
        sup.poll()
        assert sup.generation == 1
        assert sup.state is TapState.LIVE
        assert sup.records_malformed == 0
        assert [msg for _, _, msg in sup.drain()] == fresh
        record = json.loads((tmp_path / "feed.offset.json").read_text())
        assert (record["offset"], record["generation"]) == (
            path.stat().st_size, 1)

    def test_final_poll_quarantines_torn_tail(self, tmp_path, clock):
        sup, path = make_tap(tmp_path, clock)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "UPDATE", "timesta')  # torn mid-record
        sup.poll(final=True)
        assert sup.state is TapState.FINISHED
        assert sup.records_malformed == 1
        sidecar = (tmp_path / "feed.quarantine.jsonl").read_text()
        assert '{"type": "UPDATE", "timesta' in sidecar
        assert "torn trailing line" in sup.last_error


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"stall_timeout": 0.0},
        {"stall_timeout": float("nan")},
        {"stall_timeout": -1.0},
        {"queue_capacity": 0},
    ])
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(TapError):
            TapConfig(**kwargs)


class TestQuarantineRotation:
    """The quarantine sidecar is disk-bounded: it rotates generations
    like ``.obs/events.jsonl``, and SHA-dedupe survives rotation."""

    def noisy_feed(self, tmp_path, bad_lines, name="noisy"):
        path = write_feed(tmp_path / f"{name}.ris",
                          make_messages(days=1, per_day=2), "ris")
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(bad_lines):
                fh.write(f"garbage payload number {i:04d} {'x' * 40}\n")
        return path

    def make_sup(self, tmp_path, clock, path, max_bytes=None):
        spec = parse_tap_spec(f"noisy=ris:{path}")
        sup = TapSupervisor(spec, config=TapConfig(**FAST),
                            quarantine_dir=tmp_path, clock=clock)
        if max_bytes is not None:
            sup._quarantine_writer.max_bytes = max_bytes
        return sup

    def test_sidecar_rotates_past_size_bound(self, tmp_path, clock):
        path = self.noisy_feed(tmp_path, bad_lines=40)
        sup = self.make_sup(tmp_path, clock, path, max_bytes=512)
        sup.poll()
        assert sup.records_malformed == 40
        active = tmp_path / "noisy.quarantine.jsonl"
        assert active.stat().st_size <= 512
        assert active.with_name(active.name + ".1").exists()
        assert sup._quarantine_writer.rotations >= 1

    def test_dedupe_survives_rotation(self, tmp_path, clock):
        # a budget that forces rotation but keeps every payload within
        # the generation chain: dedupe must be seeded from all of them
        path = self.noisy_feed(tmp_path, bad_lines=40)
        first = self.make_sup(tmp_path, clock, path, max_bytes=1100)
        first.poll()
        assert first._quarantine_writer.rotations >= 1
        total_lines = sum(
            len(f.read_text().splitlines())
            for f in tmp_path.glob("noisy.quarantine.jsonl*"))
        assert total_lines == 40
        # re-ingest: payloads rotated out of the active sidecar must
        # still count as already quarantined
        second = self.make_sup(tmp_path, clock, path, max_bytes=1100)
        second.poll()
        assert second.report.quarantine_duplicates == 40
        after = sum(
            len(f.read_text().splitlines())
            for f in tmp_path.glob("noisy.quarantine.jsonl*"))
        assert after == total_lines

    def test_overflowing_chain_stays_bounded(self, tmp_path, clock):
        # payloads dropped off the end of the chain may be re-admitted
        # on re-ingest — the bound on disk matters more than perfect
        # dedupe memory
        path = self.noisy_feed(tmp_path, bad_lines=40)
        for _ in range(3):
            sup = self.make_sup(tmp_path, clock, path, max_bytes=512)
            sup.poll()
        files = list(tmp_path.glob("noisy.quarantine.jsonl*"))
        assert len(files) <= 3  # active + DEFAULT_BACKUPS generations
        assert all(f.stat().st_size <= 512 + 80 for f in files)


class TestOffsetSidecar:
    def test_poll_writes_offset_sidecar(self, tmp_path, clock):
        sup, path = make_tap(tmp_path, clock)
        sup.poll()
        sidecar = tmp_path / "feed.offset.json"
        record = json.loads(sidecar.read_text())
        assert record["offset"] == path.stat().st_size
        assert record["source"] == str(path)
        assert record["tap"] == "feed"
        assert record["generation"] == 0
        assert sup.status()["offset"] == record["offset"]

    def test_offset_not_rewritten_when_unchanged(self, tmp_path, clock):
        sup, _ = make_tap(tmp_path, clock)
        sup.poll()
        sidecar = tmp_path / "feed.offset.json"
        first_mtime = sidecar.stat().st_mtime_ns
        clock.advance(0.1)
        sup.poll()  # no new bytes: sidecar untouched
        assert sidecar.stat().st_mtime_ns == first_mtime

    def test_offset_tracks_growing_source(self, tmp_path, clock):
        sup, path = make_tap(tmp_path, clock,
                             messages=make_messages(days=1))
        sup.poll()
        before = json.loads(
            (tmp_path / "feed.offset.json").read_text())["offset"]
        append_feed(path, make_messages(days=1, start_day=1))
        clock.advance(0.1)
        sup.poll()
        after = json.loads(
            (tmp_path / "feed.offset.json").read_text())["offset"]
        assert after == path.stat().st_size > before
