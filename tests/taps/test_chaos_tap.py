"""Chaos for the tap layer.

Two kill targets, two recoveries:

* the *watcher* dies at the ``tap:reconnect:N`` chaos point — a rerun
  re-reads the sources from offset 0 and the committed-day fence makes
  the replay idempotent;
* a *tap source* dies (kill -9 of the feeder process) mid-watch — the
  session degrades instead of failing, surviving taps keep committing,
  and once the dead feed is replayed the stream report converges to the
  batch fingerprints (the PR's acceptance criterion).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import AnalyzeOptions, Study, StreamOptions
from repro.corpus.ingest import ErrorPolicy
from repro.runtime.chaos import KILL_ENV
from repro.runtime.retry import RetryPolicy
from repro.streaming import StreamEngine
from repro.taps import TapConfig, TapSession, write_feed
from repro.taps.adapters import ADAPTERS
from tests.cli_helpers import run_cli
from tests.taps.conftest import make_messages

CONTROL_ANALYSES = ("fig3_load", "fig4_targeted_visibility")

#: real-clock supervision tuned so fault paths resolve in well under a
#: second per transition (the feeder writes every ~20ms)
REALTIME = TapConfig(
    stall_timeout=0.1, breaker_threshold=2, max_reconnects=2,
    backoff=RetryPolicy(max_retries=0, backoff_base=0.02,
                        backoff_factor=2.0, backoff_max=0.1, jitter=0.0),
    policy=ErrorPolicy.COLLECT)


def append_feed(path, messages):
    adapter = ADAPTERS["ris"]()
    with open(path, "a", encoding="utf-8") as fh:
        for msg in messages:
            fh.write(adapter.encode(msg) + "\n")


def test_chaos_kill_at_tap_reconnect_then_replay(tmp_path):
    """SIGKILL the watcher the instant its first reconnect probe begins;
    a plain rerun converges with nothing double-ingested."""
    feed = write_feed(tmp_path / "feed.ris", make_messages(days=1), "ris")
    corpus = tmp_path / "corpus"
    killed = run_cli(
        ["watch", str(corpus), "--tap", f"ris:{feed}",
         "--interval", "0.02", "--max-ticks", "200",
         "--tap-stall", "0.01", "--tap-breaker", "1",
         "--tap-backoff", "0.01", "--tap-max-reconnects", "5",
         "--analyses", "fig3_load", "--host-min-days", "1", "--no-cache"],
        chaos={KILL_ENV: "tap:reconnect:1"})
    assert killed.returncode == -signal.SIGKILL

    finished = run_cli(
        ["watch", str(corpus), "--tap", f"ris:{feed}", "--once",
         "--analyses", "fig3_load", "--host-min-days", "1", "--no-cache",
         "--json"])
    assert finished.returncode == 0, finished.stderr
    payload = json.loads(finished.stdout)
    assert payload["stream"]["watermark_days"] == 1
    assert payload["stream"]["degraded"] is False
    batch = Study.tap(corpus).analyze(options=AnalyzeOptions(
        analyses=("fig3_load",), host_min_days=1))
    digests = {a["name"]: a["value_digest"]
               for a in payload["analyses"]}
    assert digests == {o.name: o.value_digest for o in batch.outcomes}


def test_named_tap_reconnect_point_fires(tmp_path):
    feed = write_feed(tmp_path / "up.ris", make_messages(days=1), "ris")
    corpus = tmp_path / "corpus"
    killed = run_cli(
        ["watch", str(corpus), "--tap", f"up=ris:{feed}",
         "--interval", "0.02", "--max-ticks", "200",
         "--tap-stall", "0.01", "--tap-breaker", "1",
         "--tap-backoff", "0.01", "--tap-max-reconnects", "5",
         "--analyses", "fig3_load", "--host-min-days", "1", "--no-cache"],
        chaos={KILL_ENV: "tap:up:reconnect:1"})
    assert killed.returncode == -signal.SIGKILL


FEEDER = """
import sys, time
feed, remainder = sys.argv[1], sys.argv[2]
lines = open(remainder, encoding="utf-8").read().splitlines()
out = open(feed, "a", encoding="utf-8")
for line in lines:
    out.write(line + "\\n")
    out.flush()
    time.sleep(0.02)
"""


@pytest.mark.slow
def test_sigkill_tap_source_mid_watch_degrades_then_converges(tmp_path):
    """The acceptance scenario end to end, with a real feeder process."""
    msgs = make_messages(days=2)
    survivor_msgs = msgs[::2]
    victim_msgs = msgs[1::2]
    survivor = write_feed(tmp_path / "survivor.ris", survivor_msgs, "ris")
    victim = write_feed(tmp_path / "victim.ris", victim_msgs[:2], "ris")
    remainder = tmp_path / "remainder.jsonl"
    adapter = ADAPTERS["ris"]()
    remainder.write_text(
        "\n".join(adapter.encode(m) for m in victim_msgs[2:]) + "\n",
        encoding="utf-8")

    feeder = subprocess.Popen(
        [sys.executable, "-c", FEEDER, str(victim), str(remainder)])
    try:
        # let the feeder make some progress, then kill -9 it mid-feed
        base = victim.stat().st_size
        deadline = time.monotonic() + 30.0
        while victim.stat().st_size <= base:
            assert time.monotonic() < deadline, "feeder never wrote"
            time.sleep(0.01)
        os.kill(feeder.pid, signal.SIGKILL)
    finally:
        feeder.wait()

    corpus = tmp_path / "corpus"
    session = TapSession.open(
        corpus, [f"survivor=ris:{survivor}", f"victim=ris:{victim}"],
        config=REALTIME)
    engine = StreamEngine.open(corpus, policy=ErrorPolicy.SKIP,
                               host_min_days=1, cache=None)
    engine.attach_taps(session)
    # keep the survivor producing (a record per pump) so only the killed
    # feed stalls its watchdog and walks breaker -> dead
    deadline = time.monotonic() + 60.0
    extra_day = 2
    while not session.degraded:
        assert time.monotonic() < deadline, "victim tap never died"
        append_feed(survivor, make_messages(days=1, per_day=1,
                                            start_day=extra_day))
        extra_day += 1
        engine.tick()
        time.sleep(0.02)

    # degraded, not failed: the survivor alone now gates the fence and
    # the session keeps committing days
    status = session.status()
    assert status["victim"]["state"] == "dead"
    assert status["survivor"]["state"] != "dead"
    engine.tick(final=True)
    assert session.committed_days >= 2
    report = engine.report(list(CONTROL_ANALYSES))
    assert report.tap_degraded
    assert report.ok  # degraded-but-live, not failed
    assert report.to_json()["stream"]["degraded"] is True

    # replay: the victim feed reappears complete; committed days fence
    # off what was already ingested, and the stream report converges to
    # a batch analyze of the same corpus
    raw = victim.read_bytes()
    complete_lines = raw.count(b"\n")
    with open(victim, "ab") as fh:
        if raw and not raw.endswith(b"\n"):
            fh.write(b"\n")  # torn tail from the kill; quarantined later
        for msg in victim_msgs[complete_lines:]:
            fh.write((adapter.encode(msg) + "\n").encode("utf-8"))
    study = Study.tap(corpus)
    stream = study.stream(options=StreamOptions(
        taps=(f"survivor=ris:{survivor}", f"victim=ris:{victim}"),
        tap_config=REALTIME, analyses=CONTROL_ANALYSES, host_min_days=1,
        cache=False))
    batch = study.analyze(options=AnalyzeOptions(
        analyses=CONTROL_ANALYSES, host_min_days=1))
    assert stream.fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}
