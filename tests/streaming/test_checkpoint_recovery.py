"""Corrupt-checkpoint recovery: a damaged ``.stream.checkpoint.json``
must surface as a *typed* error with its own CLI exit code and an
explicit, safe recovery path (``--reset-stream``) — never a silent
restart from day 0 and never a generic unreadable-corpus failure."""

import json

import pytest

from repro.errors import ReproError, StreamCheckpointError, StreamError
from repro.streaming import StreamEngine, load_state, reset_stream
from repro.streaming.state import (
    STATE_VERSION,
    STREAM_CHECKPOINT_FILE,
    checkpoint_path,
)
from tests.cli_helpers import run_cli

EXIT_STREAM_CHECKPOINT = 5


def consume_once(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    engine.tick()
    return checkpoint_path(corpus)


class TestTypedError:
    def test_error_taxonomy(self):
        assert issubclass(StreamCheckpointError, StreamError)
        assert issubclass(StreamCheckpointError, ReproError)
        assert "--reset-stream" in StreamCheckpointError("x").recovery

    def test_garbage_bytes_raise(self, corpus):
        path = consume_once(corpus)
        path.write_bytes(b"\x00\xff not json \xfe")
        with pytest.raises(StreamCheckpointError, match="unreadable"):
            load_state(corpus)

    def test_torn_checkpoint_raises(self, corpus):
        """A half-written file (the torn-write case the atomic writer
        exists to prevent) is corruption, not a fresh start."""
        path = consume_once(corpus)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(StreamCheckpointError):
            load_state(corpus)

    def test_non_object_payload_raises(self, corpus):
        path = consume_once(corpus)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(StreamCheckpointError, match="not an object"):
            load_state(corpus)

    def test_version_mismatch_raises(self, corpus):
        path = consume_once(corpus)
        state = json.loads(path.read_text())
        state["version"] = STATE_VERSION + 999
        path.write_text(json.dumps(state))
        with pytest.raises(StreamCheckpointError, match="version"):
            load_state(corpus)

    def test_missing_fields_raise(self, corpus):
        path = consume_once(corpus)
        path.write_text(json.dumps({"version": STATE_VERSION}))
        with pytest.raises(StreamCheckpointError, match="corrupt"):
            load_state(corpus)

    def test_engine_open_propagates_typed_error(self, corpus):
        path = consume_once(corpus)
        path.write_text("{")
        with pytest.raises(StreamCheckpointError):
            StreamEngine.open(corpus, host_min_days=1)


class TestResetStream:
    def test_reset_reports_whether_checkpoint_existed(self, corpus):
        assert reset_stream(corpus) is False
        consume_once(corpus)
        assert reset_stream(corpus) is True
        assert not checkpoint_path(corpus).exists()
        assert load_state(corpus) is None

    def test_reset_discards_corruption(self, corpus):
        path = consume_once(corpus)
        path.write_text("garbage")
        assert reset_stream(corpus) is True
        engine = StreamEngine.open(corpus, host_min_days=1)
        assert engine.watermark_days == 0  # clean restart from day 0


class TestCLIExitCode:
    def test_corrupt_checkpoint_exits_5_and_names_the_recovery(
            self, corpus):
        ok = run_cli(["watch", str(corpus), "--once", "--host-min-days",
                      "1", "--no-cache"])
        assert ok.returncode == 0, ok.stderr
        (corpus / STREAM_CHECKPOINT_FILE).write_text("{ torn")
        broken = run_cli(["watch", str(corpus), "--once",
                          "--host-min-days", "1", "--no-cache"])
        # a distinct code: not 1 (analysis failure), not 3 (unreadable
        # corpus) — the corpus itself is fine, only derived state is hurt
        assert broken.returncode == EXIT_STREAM_CHECKPOINT
        assert "--reset-stream" in broken.stderr

        recovered = run_cli(["watch", str(corpus), "--once",
                             "--host-min-days", "1", "--no-cache",
                             "--reset-stream", "--json"])
        assert recovered.returncode == 0, recovered.stderr
        assert "stream checkpoint discarded" in recovered.stderr
        payload = json.loads(recovered.stdout)
        assert payload["stream"]["watermark_days"] == 3
        assert payload["ok"] is True
