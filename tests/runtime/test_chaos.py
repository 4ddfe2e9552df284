"""Chaos tests: SIGKILL the real CLI at injected commit points and assert
that ``--resume`` converges on exactly the artifacts of an uninterrupted
run — identical corpus checksums, identical study statuses.

These drive ``python -m repro`` in subprocesses because the injected
kills (``REPRO_CHAOS_KILL_AT``) take down the whole process, and the
hang injection (``REPRO_CHAOS_HANG``) must be killed by the supervisor
across a process boundary.
"""

import json
import os
import shutil
import signal
import subprocess
import time
from pathlib import Path

import pytest

from repro.cli import (
    ANALYZE_JOURNAL_FILE,
    EXIT_FAILURES,
    EXIT_OK,
    MANIFEST_FILE,
)
from repro.runtime.chaos import HANG_ENV, KILL_ENV
from repro.runtime.generate import JOURNAL_FILE
from tests.cli_helpers import CLI_TIMEOUT, cli_command, cli_env, run_cli

GENERATE = ["generate", "--scale", "0.005", "--days", "3", "--seed", "3"]
ANALYZE = ["analyze", "--host-min-days", "2"]


def session_pids(sid):
    """Live (non-zombie) processes in session ``sid``, from ``/proc``.

    A worker orphaned by its parent's death is re-parented, but it keeps
    the session of the CLI it was forked from.
    """
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # after the parenthesised command name: state ppid pgrp session
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry.name))
    return pids


def manifest_files(corpus):
    return json.loads((corpus / MANIFEST_FILE).read_text())["files"]


def status_map(report_json):
    return {a["name"]: a["status"] for a in report_json["analyses"]}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted generate + supervised analyze: the ground truth
    every kill-and-resume run must converge to."""
    corpus = tmp_path_factory.mktemp("chaos-baseline") / "corpus"
    proc = run_cli([*GENERATE, "--out", str(corpus)])
    assert proc.returncode == EXIT_OK, proc.stderr
    proc = run_cli([*ANALYZE, str(corpus), "--supervised", "--json"])
    assert proc.returncode == EXIT_OK, proc.stderr
    return {"corpus": corpus, "files": manifest_files(corpus),
            "report": json.loads(proc.stdout)}


@pytest.fixture
def corpus_copy(baseline, tmp_path):
    dst = tmp_path / "corpus"
    shutil.copytree(baseline["corpus"], dst)
    (dst / ANALYZE_JOURNAL_FILE).unlink(missing_ok=True)
    return dst


class TestGenerateKillAndResume:
    @pytest.mark.parametrize("kill_at", [
        "commit:segment:control:000",  # first committed step
        "commit:segment:data:002",     # last segment before finalize
        "commit:finalize",             # everything written, then killed
    ])
    def test_resume_reproduces_identical_corpus(self, tmp_path, baseline,
                                                kill_at):
        out = tmp_path / "corpus"
        killed = run_cli([*GENERATE, "--out", str(out)],
                         chaos={KILL_ENV: kill_at})
        assert killed.returncode == -signal.SIGKILL
        resumed = run_cli([*GENERATE, "--out", str(out), "--resume"])
        assert resumed.returncode == EXIT_OK, resumed.stderr
        assert manifest_files(out) == baseline["files"]

    def test_resume_of_complete_corpus_is_noop(self, corpus_copy, baseline):
        proc = run_cli([*GENERATE, "--out", str(corpus_copy), "--resume"])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "already complete" in proc.stdout
        assert manifest_files(corpus_copy) == baseline["files"]


class TestAnalyzeKillAndResume:
    def test_resume_converges_to_baseline_statuses(self, corpus_copy,
                                                   baseline):
        killed = run_cli([*ANALYZE, str(corpus_copy), "--supervised",
                          "--json"],
                         chaos={KILL_ENV: "commit:analysis:fig3_load"})
        assert killed.returncode == -signal.SIGKILL
        # the first two analyses reached terminal states before the kill
        journal = (corpus_copy / ANALYZE_JOURNAL_FILE).read_text()
        assert "analysis:fig2_time_offset" in journal
        assert "analysis:fig3_load" in journal

        resumed = run_cli([*ANALYZE, str(corpus_copy), "--resume", "--json"])
        assert resumed.returncode == EXIT_OK, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["ok"] and not report["all_degraded"]
        assert status_map(report) == status_map(baseline["report"])


class TestParallelGenerateKillAndResume:
    """SIGKILL mid ``generate --jobs 4``: the journal (parent-only
    writes) plus atomic segments must let any resume — parallel or
    serial — converge on the uninterrupted corpus."""

    @pytest.mark.parametrize("kill_at", [
        "commit:segment:control:000",
        "commit:segment:data:002",
    ])
    def test_parallel_resume_reproduces_identical_corpus(self, tmp_path,
                                                         baseline, kill_at):
        out = tmp_path / "corpus"
        killed = run_cli([*GENERATE, "--out", str(out), "--jobs", "4"],
                         chaos={KILL_ENV: kill_at})
        assert killed.returncode == -signal.SIGKILL
        resumed = run_cli([*GENERATE, "--out", str(out), "--resume",
                           "--jobs", "4"])
        assert resumed.returncode == EXIT_OK, resumed.stderr
        assert manifest_files(out) == baseline["files"]

    def test_serial_resume_finishes_a_killed_parallel_run(self, tmp_path,
                                                          baseline):
        # jobs is an execution knob, not corpus state: a serial resume
        # must be able to finish a parallel run's journal
        out = tmp_path / "corpus"
        killed = run_cli([*GENERATE, "--out", str(out), "--jobs", "4"],
                         chaos={KILL_ENV: "commit:segment:data:001"})
        assert killed.returncode == -signal.SIGKILL
        resumed = run_cli([*GENERATE, "--out", str(out), "--resume"])
        assert resumed.returncode == EXIT_OK, resumed.stderr
        assert manifest_files(out) == baseline["files"]


class TestParallelAnalyzeKillAndResume:
    def test_parallel_resume_converges_to_baseline(self, corpus_copy,
                                                   baseline):
        """SIGKILL while four analysis workers are in flight, then
        resume with ``--jobs 4``: statuses *and* value fingerprints must
        match the uninterrupted serial baseline."""
        killed = run_cli([*ANALYZE, str(corpus_copy), "--supervised",
                          "--jobs", "4", "--json"],
                         chaos={KILL_ENV: "commit:analysis:fig2_time_offset"})
        assert killed.returncode == -signal.SIGKILL
        # the killed commit itself was durably journaled first
        journal = (corpus_copy / ANALYZE_JOURNAL_FILE).read_text()
        assert "analysis:fig2_time_offset" in journal

        resumed = run_cli([*ANALYZE, str(corpus_copy), "--resume",
                           "--jobs", "4", "--json"])
        assert resumed.returncode == EXIT_OK, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["ok"] and not report["all_degraded"]
        assert status_map(report) == status_map(baseline["report"])
        digests = {a["name"]: a["value_digest"] for a in report["analyses"]}
        baseline_digests = {a["name"]: a["value_digest"]
                            for a in baseline["report"]["analyses"]}
        assert digests == baseline_digests
        assert all(digests.values())

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="needs Linux /proc to find orphans")
    def test_killed_parent_leaves_no_worker_behind(self, corpus_copy):
        """SIGKILL an ``analyze --jobs 4`` parent while workers are in
        flight: every worker must exit on its own within a bounded wait
        (a send to the dead parent fails with EPIPE) instead of blocking
        forever on a pipe only the orphans themselves still read.

        ``fig3_load`` carries the one result larger than a pipe buffer
        (~100 kB here).  It is held back 5 s and the parent dies at the
        commit of ``table2_pre_classes``, which is dispatched right after
        it, so the big send always happens after the parent is gone.
        """
        proc = subprocess.Popen(
            cli_command([*ANALYZE, corpus_copy, "--supervised", "--jobs",
                         "4", "--json"]),
            env=cli_env({KILL_ENV: "commit:analysis:table2_pre_classes",
                         HANG_ENV: "fig3_load:5"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        assert proc.wait(timeout=CLI_TIMEOUT) == -signal.SIGKILL
        deadline = time.monotonic() + 30.0
        survivors = session_pids(proc.pid)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.2)
            survivors = session_pids(proc.pid)
        for pid in survivors:  # do not leak them into the rest of the run
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], f"workers outlived their parent: {survivors}"


class TestHangIsolation:
    def test_hung_analysis_is_killed_retried_and_reported(self, corpus_copy,
                                                          tmp_path):
        metrics_path = tmp_path / "metrics.json"
        proc = run_cli(
            [*ANALYZE, str(corpus_copy), "--timeout", "1", "--retries", "1",
             "--json", "--metrics", str(metrics_path)],
            chaos={HANG_ENV: "fig3_load:60"})
        assert proc.returncode == EXIT_FAILURES, proc.stderr
        report = json.loads(proc.stdout)
        statuses = status_map(report)
        hung = next(a for a in report["analyses"]
                    if a["name"] == "fig3_load")
        assert hung["status"] == "failed"
        assert hung["error_type"] == "AnalysisTimeout"
        assert hung["attempts"] == 2 and hung["timeouts"] == 2
        # one hung analysis must not poison the other fifteen
        others = {n: s for n, s in statuses.items() if n != "fig3_load"}
        assert set(others.values()) == {"ok"}
        counters = json.loads(metrics_path.read_text())["metrics"]["counters"]
        assert counters["supervisor.timeouts{name=fig3_load}"] == 2
        assert counters["supervisor.retries{name=fig3_load}"] == 1
