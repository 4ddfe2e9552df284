"""CLI tests for the crash-safety surface that runs in-process: the
all-degraded exit code, generate --resume guards, and supervised analyze
(resumed by running it again) through the public flags."""

import json
import shutil

import pytest

from repro.cli import (
    CONTROL_FILE,
    EXIT_ALL_DEGRADED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

GENERATE = ["generate", "--scale", "0.005", "--days", "3", "--seed", "3"]
ANALYZE = ["analyze", "--host-min-days", "2"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-runtime") / "corpus"
    assert main([*GENERATE, "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def corpus_copy(corpus_dir, tmp_path):
    dst = tmp_path / "corpus"
    shutil.copytree(corpus_dir, dst)
    return dst


class TestAllDegradedExitCode:
    def test_fully_degraded_study_exits_4(self, corpus_copy, capsys):
        # one malformed record degrades ingestion, and with it every
        # analysis: "ok" would be a lie, so the CLI says so via exit 4
        with open(corpus_copy / CONTROL_FILE, "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
        rc = main([*ANALYZE, str(corpus_copy), "--json"])
        assert rc == EXIT_ALL_DEGRADED
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["all_degraded"]
        assert {a["status"] for a in report["analyses"]} == {"degraded"}

    def test_clean_corpus_still_exits_0(self, corpus_dir, capsys):
        rc = main([*ANALYZE, str(corpus_dir), "--json"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert not report["all_degraded"]


class TestGenerateResumeFlags:
    def test_resume_of_complete_run_is_noop(self, corpus_dir, capsys):
        rc = main([*GENERATE, "--out", str(corpus_dir), "--resume"])
        assert rc == EXIT_OK
        assert "already complete" in capsys.readouterr().out

    def test_resume_with_different_seed_is_refused(self, corpus_copy,
                                                   capsys):
        rc = main(["generate", "--scale", "0.005", "--days", "3",
                   "--seed", "4", "--out", str(corpus_copy), "--resume"])
        assert rc == EXIT_USAGE
        assert "different run" in capsys.readouterr().err

    def test_resume_without_journal_starts_fresh(self, tmp_path, capsys):
        # nothing to resume: --resume degrades to a normal full run
        out = tmp_path / "never-generated"
        rc = main([*GENERATE, "--out", str(out), "--resume"])
        assert rc == EXIT_OK
        assert (out / CONTROL_FILE).exists()
        assert "wrote" in capsys.readouterr().out


class TestSupervisedAnalyzeCLI:
    def test_supervised_then_resume_roundtrip(self, corpus_copy, capsys):
        # re-running the same supervised command is its resume: the
        # second run is served every finished analysis from the cache
        command = [*ANALYZE, str(corpus_copy), "--supervised", "--json"]
        rc = main(command)
        assert rc == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert {a["status"] for a in first["analyses"]} == {"ok"}

        rc = main(command)
        assert rc == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert ({a["name"]: a["status"] for a in second["analyses"]}
                == {a["name"]: a["status"] for a in first["analyses"]})
        assert ({a["name"]: a["value_digest"] for a in second["analyses"]}
                == {a["name"]: a["value_digest"] for a in first["analyses"]})
        assert all(a["cached"] for a in second["analyses"])
