"""Kill-and-resume chaos for ``repro watch``: SIGKILL the watcher right
after a mid-stream checkpoint and assert the resumed watcher converges
to the batch fingerprints without re-consuming finished days."""

import json
import signal

from repro import AnalyzeOptions, Study
from repro.runtime.chaos import KILL_ENV
from repro.streaming import StreamEngine, load_state
from tests.cli_helpers import run_cli


def test_sigkill_mid_watch_then_resume(corpus):
    killed = run_cli(["watch", str(corpus), "--once", "--host-min-days",
                      "1", "--no-cache"],
                     chaos={KILL_ENV: "stream:day:001"})
    assert killed.returncode == -signal.SIGKILL

    # the kill fired right after day 1's checkpoint became durable
    state = load_state(corpus)
    assert state is not None
    assert state.watermark_days == 2  # days 0 and 1 consumed

    resumed = StreamEngine.open(corpus, host_min_days=1)
    assert resumed.watermark_days == 2
    assert resumed.tick() == 1

    batch = Study.open(corpus).analyze(options=AnalyzeOptions(
        host_min_days=1))
    assert resumed.report().fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}


def test_cli_watch_resumes_after_kill(corpus):
    killed = run_cli(["watch", str(corpus), "--once", "--host-min-days",
                      "1", "--no-cache"],
                     chaos={KILL_ENV: "stream:day:000"})
    assert killed.returncode == -signal.SIGKILL

    finished = run_cli(["watch", str(corpus), "--once", "--host-min-days",
                        "1", "--no-cache", "--json"])
    assert finished.returncode == 0, finished.stderr
    payload = json.loads(finished.stdout)
    assert payload["stream"]["watermark_days"] == 3
    clean = run_cli(["watch", str(corpus), "--once", "--host-min-days",
                     "1", "--no-cache", "--json", "--fresh"])
    assert clean.returncode == 0, clean.stderr

    def digests(report):
        return {a["name"]: (a["status"], a["value_digest"])
                for a in report["analyses"]}

    assert digests(json.loads(clean.stdout)) == digests(payload)
