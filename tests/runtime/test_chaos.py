"""Chaos tests: SIGKILL the real CLI at injected commit points and assert
that the resume — ``generate --resume``, or re-running a killed
``analyze`` over the result cache it filled — converges on exactly the
artifacts of an uninterrupted run: identical corpus checksums, identical
study statuses and fingerprints.

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

from repro.cli import EXIT_FAILURES, EXIT_OK, MANIFEST_FILE
from repro.parallel.cache import DEFAULT_CACHE_DIRNAME, ResultCache
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


def digest_map(report_json):
    return {a["name"]: a["value_digest"] for a in report_json["analyses"]}


def cached_names(corpus):
    """The analyses the corpus-local result cache holds."""
    return {entry["name"] for _, entry in
            ResultCache.for_corpus(corpus).entries()}


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
    shutil.copytree(baseline["corpus"], dst,
                    ignore=shutil.ignore_patterns(DEFAULT_CACHE_DIRNAME))
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
        command = [*ANALYZE, str(corpus_copy), "--supervised", "--json"]
        killed = run_cli(command,
                         chaos={KILL_ENV: "commit:analysis:fig3_load"})
        assert killed.returncode == -signal.SIGKILL
        # the analyses dispatched before fig3_load, and fig3_load itself,
        # were stored before the kill
        finished = cached_names(corpus_copy)
        assert {"fig2_time_offset", "fig3_load"} <= finished
        assert len(finished) < len(baseline["report"]["analyses"])

        resumed = run_cli(command)
        assert resumed.returncode == EXIT_OK, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["ok"] and not report["all_degraded"]
        assert status_map(report) == status_map(baseline["report"])
        assert digest_map(report) == digest_map(baseline["report"])
        assert {a["name"] for a in report["analyses"] if a["cached"]} \
            == finished


class TestRegenerateInPlace:
    def test_rerun_after_regenerate_matches_fresh_analyze(self, tmp_path):
        """Finished analyses are keyed by corpus content, not by the
        directory: regenerating a corpus in place from another seed must
        not serve the old corpus's outcomes to a re-run."""
        corpus = tmp_path / "corpus"
        assert run_cli([*GENERATE, "--out", str(corpus)]).returncode \
            == EXIT_OK
        command = [*ANALYZE, str(corpus), "--supervised", "--json"]
        assert run_cli(command).returncode == EXIT_OK
        # re-running the unchanged corpus resumes: every analysis served
        again = json.loads(run_cli(command).stdout)
        assert all(a["cached"] for a in again["analyses"])

        regenerated = run_cli(["generate", "--scale", "0.005", "--days",
                               "3", "--seed", "4", "--out", str(corpus)])
        assert regenerated.returncode == EXIT_OK, regenerated.stderr
        rerun = run_cli(command)
        fresh = run_cli([*ANALYZE, str(corpus), "--json"])
        assert rerun.returncode == fresh.returncode, rerun.stderr
        rerun, fresh = json.loads(rerun.stdout), json.loads(fresh.stdout)
        assert not any(a["cached"] for a in rerun["analyses"])
        assert len(rerun["analyses"]) == 16
        assert digest_map(rerun) == digest_map(fresh)


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
        """SIGKILL while four analysis workers are in flight, then run
        the same command again: statuses *and* value fingerprints must
        match the uninterrupted serial baseline."""
        command = [*ANALYZE, str(corpus_copy), "--supervised", "--jobs",
                   "4", "--json"]
        killed = run_cli(command,
                         chaos={KILL_ENV: "commit:analysis:fig2_time_offset"})
        assert killed.returncode == -signal.SIGKILL
        # the killed commit itself was durably stored first
        assert "fig2_time_offset" in cached_names(corpus_copy)

        resumed = run_cli(command)
        assert resumed.returncode == EXIT_OK, resumed.stderr
        report = json.loads(resumed.stdout)
        assert report["ok"] and not report["all_degraded"]
        assert status_map(report) == status_map(baseline["report"])
        digests = digest_map(report)
        assert digests == digest_map(baseline["report"])
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

    def test_timed_out_analysis_runs_again_on_rerun(self, corpus_copy):
        """A failure is never stored as finished: re-running after a
        timeout runs the timed-out analysis again and serves the rest."""
        hung = run_cli([*ANALYZE, str(corpus_copy), "--timeout", "1",
                        "--retries", "0", "--json"],
                       chaos={HANG_ENV: "fig3_load:5"})
        assert hung.returncode == EXIT_FAILURES, hung.stderr
        rerun = run_cli([*ANALYZE, str(corpus_copy), "--supervised",
                         "--timeout", "60", "--json"])
        assert rerun.returncode == EXIT_OK, rerun.stderr
        analyses = json.loads(rerun.stdout)["analyses"]
        (load,) = [a for a in analyses if a["name"] == "fig3_load"]
        assert load["status"] == "ok" and not load["cached"]
        assert (load["attempts"], load["timeouts"]) == (1, 0)
        assert all(a["cached"] for a in analyses if a is not load)
