"""Tests for the command-line interface: generate → analyze round trip,
validate/inject, telemetry flags (--trace/--metrics/--progress/--json),
the report command, and the degraded-input error paths with their exit
codes."""

import json
import os
import shutil
import subprocess

import pytest

from repro.cli import (
    CONTROL_FILE,
    DATA_FILE,
    EXIT_ALL_DEGRADED,
    EXIT_BROKEN_PIPE,
    EXIT_FAILURES,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    MANIFEST_FILE,
    META_FILE,
    main,
)
from tests.cli_helpers import CLI_TIMEOUT, cli_command, cli_env


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """One small generated corpus shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert main(["generate", "--scale", "0.005", "--days", "7",
                 "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def corpus_copy(corpus_dir, tmp_path):
    """A private mutable copy for tests that corrupt the corpus."""
    dst = tmp_path / "corpus"
    shutil.copytree(corpus_dir, dst)
    return dst


class TestCLI:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(["generate", "--scale", "0.005", "--days", "7",
                   "--out", str(out)])
        assert rc == 0
        assert (out / CONTROL_FILE).exists()
        assert (out / DATA_FILE).exists()
        meta = json.loads((out / META_FILE).read_text())
        assert meta["sampling_rate"] == 10_000
        assert len(meta["peer_asns"]) >= 20
        assert "wrote" in capsys.readouterr().out

    def test_analyze_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["generate", "--scale", "0.005", "--days", "7", "--out", str(out)])
        capsys.readouterr()
        rc = main(["analyze", str(out), "--host-min-days", "4"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "RTBH events:" in text
        assert "Table 2" in text
        assert "Fig. 19" in text

    def test_analyze_missing_corpus(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_summary(self, capsys):
        rc = main(["summary", "--scale", "0.005", "--days", "7",
                   "--host-min-days", "4"])
        assert rc == 0
        assert "use cases" in capsys.readouterr().out

    def test_summary_at_minimum_duration(self, capsys):
        # 3 days is the documented minimum; the targeted-experiment
        # planner must not assume a 4th day exists
        rc = main(["summary", "--scale", "0.005", "--days", "3",
                   "--host-min-days", "2"])
        assert rc == 0
        assert "use cases" in capsys.readouterr().out

    def test_retired_engine_flag_is_a_usage_error(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(corpus_dir), "--engine", "records"])
        assert exc.value.code == EXIT_USAGE
        assert "--engine" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["generate", "summary"])
    @pytest.mark.parametrize("bad", [["--days", "2"], ["--scale", "-1"]],
                             ids=["days-2", "scale-neg"])
    def test_bad_scenario_arguments_are_usage_errors(self, command, bad,
                                                     tmp_path, capsys):
        argv = [command, "--scale", "0.005", "--days", "3", *bad]
        if command == "generate":
            argv += ["--out", str(tmp_path / "corpus")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestFreshRunsOverUnreadableJournals:
    """A fresh run rewrites its journal, so it never parses the old one."""

    def test_generate_over_garbage_journal_header(self, tmp_path):
        from repro.runtime.generate import JOURNAL_FILE

        clean, garbled = tmp_path / "clean", tmp_path / "garbled"
        garbled.mkdir()
        (garbled / JOURNAL_FILE).write_text("{garbage\n")
        for out in (clean, garbled):
            assert main(["generate", "--scale", "0.005", "--days", "3",
                         "--seed", "3", "--out", str(out),
                         "--quiet"]) == EXIT_OK
        for name in (CONTROL_FILE, DATA_FILE, META_FILE, JOURNAL_FILE):
            assert (garbled / name).read_bytes() == \
                (clean / name).read_bytes(), name

    def test_supervised_analyze_over_garbage_journal_header(
            self, corpus_copy, capsys):
        from repro.cli import ANALYZE_JOURNAL_FILE

        (corpus_copy / ANALYZE_JOURNAL_FILE).write_text("{garbage\n")
        rc = main(["analyze", str(corpus_copy), "--supervised",
                   "--host-min-days", "4"])
        assert rc == EXIT_OK
        header = (corpus_copy / ANALYZE_JOURNAL_FILE).read_text() \
            .splitlines()[0]
        assert json.loads(header)["command"] == "analyze"


class TestAnalyzeErrorPaths:
    def test_missing_control_file(self, corpus_copy, capsys):
        (corpus_copy / CONTROL_FILE).unlink()
        rc = main(["analyze", str(corpus_copy)])
        assert rc == EXIT_USAGE
        assert CONTROL_FILE in capsys.readouterr().err

    def test_corrupt_platform_json(self, corpus_copy, capsys):
        (corpus_copy / META_FILE).write_text("{not json")
        rc = main(["analyze", str(corpus_copy)])
        assert rc == EXIT_UNREADABLE
        assert "cannot ingest" in capsys.readouterr().err

    def test_platform_json_missing_keys(self, corpus_copy, capsys):
        (corpus_copy / META_FILE).write_text("{}")
        rc = main(["analyze", str(corpus_copy)])
        assert rc == EXIT_UNREADABLE
        assert "cannot ingest" in capsys.readouterr().err

    def test_truncated_control_strict_fails(self, corpus_copy, capsys):
        path = corpus_copy / CONTROL_FILE
        # cut mid-record: the last line becomes unparseable
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * 0.6)])
        rc = main(["analyze", str(corpus_copy), "--strict",
                   "--host-min-days", "4"])
        assert rc == EXIT_UNREADABLE
        assert "cannot ingest" in capsys.readouterr().err

    def test_truncated_control_lenient_degrades(self, corpus_copy, capsys):
        path = corpus_copy / CONTROL_FILE
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * 0.6)])
        rc = main(["analyze", str(corpus_copy), "--host-min-days", "4"])
        out = capsys.readouterr().out
        # the study completes, reporting degraded/failed per analysis;
        # a run where everything degraded gets its own exit code
        assert rc in (EXIT_OK, EXIT_FAILURES, EXIT_ALL_DEGRADED)
        assert "degraded" in out

    def test_corrupt_npz_strict_vs_lenient(self, corpus_copy, capsys):
        path = corpus_copy / DATA_FILE
        path.write_bytes(b"\x00" * 100)
        rc = main(["analyze", str(corpus_copy), "--strict"])
        assert rc == EXIT_UNREADABLE
        # an unreadable archive is hopeless even leniently
        rc = main(["analyze", str(corpus_copy)])
        assert rc == EXIT_UNREADABLE
        assert "cannot ingest" in capsys.readouterr().err


class TestValidateCommand:
    def test_clean_corpus_exits_zero(self, corpus_dir, capsys):
        rc = main(["validate", str(corpus_dir)])
        assert rc == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_corrupted_corpus_exits_nonzero(self, corpus_copy, capsys):
        blob = (corpus_copy / CONTROL_FILE).read_bytes()
        (corpus_copy / CONTROL_FILE).write_bytes(blob[: len(blob) // 2])
        rc = main(["validate", str(corpus_copy)])
        assert rc == EXIT_FAILURES
        out = capsys.readouterr().out
        assert "CORRUPT" in out

    def test_missing_dir(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope")])
        assert rc == EXIT_USAGE
        assert "not a directory" in capsys.readouterr().err


class TestInjectCommand:
    def test_inject_then_validate_catches(self, corpus_dir, tmp_path, capsys):
        degraded = tmp_path / "degraded"
        rc = main(["inject", str(corpus_dir), "--out", str(degraded),
                   "--fault", "corrupt:0.1", "--fault", "drop:0.05",
                   "--seed", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "corrupt:0.1" in out
        assert (degraded / CONTROL_FILE).exists()
        assert (degraded / MANIFEST_FILE).exists()  # stale, on purpose
        assert main(["validate", str(degraded)]) == EXIT_FAILURES

    def test_inject_is_deterministic(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for dst in (a, b):
            assert main(["inject", str(corpus_dir), "--out", str(dst),
                         "--fault", "jitter:0.2", "--seed", "9"]) == EXIT_OK
        assert (a / CONTROL_FILE).read_bytes() == \
               (b / CONTROL_FILE).read_bytes()

    def test_inject_requires_fault(self, corpus_dir, tmp_path, capsys):
        rc = main(["inject", str(corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert "--fault" in capsys.readouterr().err

    def test_inject_rejects_bad_spec(self, corpus_dir, tmp_path, capsys):
        rc = main(["inject", str(corpus_dir), "--out", str(tmp_path / "x"),
                   "--fault", "gremlins:0.5"])
        assert rc == EXIT_USAGE

    def test_lenient_analyze_of_injected_corpus(self, corpus_dir, tmp_path,
                                                capsys):
        degraded = tmp_path / "degraded"
        main(["inject", str(corpus_dir), "--out", str(degraded),
              "--fault", "corrupt:0.05", "--seed", "4"])
        capsys.readouterr()
        rc = main(["analyze", str(degraded), "--host-min-days", "4"])
        out = capsys.readouterr().out
        assert rc in (EXIT_OK, EXIT_FAILURES, EXIT_ALL_DEGRADED)
        assert "ingest dropped" in out


class TestTelemetryFlags:
    def test_analyze_trace_covers_every_analysis_and_ingestion(
            self, corpus_dir, tmp_path, capsys):
        from repro.core.pipeline import ANALYSIS_NAMES

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        rc = main(["analyze", str(corpus_dir), "--host-min-days", "4",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == EXIT_OK
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["type"] == "span"}
        for analysis in ANALYSIS_NAMES:
            assert f"analyze.{analysis}" in names
        assert "ingest.control" in names and "ingest.data" in names
        manifest = records[0]
        assert manifest["type"] == "manifest"
        assert manifest["command"] == "analyze"
        assert manifest["wall_seconds"] > 0
        payload = json.loads(metrics.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["ingest.records{outcome=ok,plane=control}"] > 0
        assert counters["ingest.records{outcome=ok,plane=data}"] > 0

    def test_analyze_without_flags_uses_null_backend(self, corpus_dir,
                                                     capsys):
        from repro import telemetry

        rc = main(["analyze", str(corpus_dir), "--host-min-days", "4"])
        assert rc == EXIT_OK
        assert telemetry.current() is telemetry.NULL
        assert telemetry.NULL.tracer.records == []
        capsys.readouterr()

    def test_generate_progress_lines(self, tmp_path, capsys):
        rc = main(["generate", "--scale", "0.005", "--days", "3",
                   "--out", str(tmp_path / "c"), "--progress"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        for stage in ("generate.traffic", "generate.sampling",
                      "generate.routes", "generate.write"):
            assert stage in captured.err
        assert "wrote" in captured.out

    def test_generate_quiet_suppresses_output(self, tmp_path, capsys):
        rc = main(["generate", "--scale", "0.005", "--days", "3",
                   "--out", str(tmp_path / "c"), "-q", "--progress"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "generate.traffic" not in captured.err

    def test_generate_stamps_run_manifest_into_corpus_manifest(
            self, corpus_dir):
        manifest = json.loads((corpus_dir / MANIFEST_FILE).read_text())
        run = manifest["run"]
        assert run["command"] == "generate"
        assert run["seed"] == 7
        assert run["config_hash"]
        assert run["wall_seconds"] > 0

    def test_validate_surfaces_run_manifest(self, corpus_dir, capsys):
        rc = main(["validate", str(corpus_dir)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "generated by:" in out
        assert "seed=7" in out


class TestJsonModes:
    def test_validate_json(self, corpus_dir, capsys):
        rc = main(["validate", str(corpus_dir), "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert not any(i["severity"] == "error" for i in payload["issues"])
        assert payload["control_ingest"]["skipped"] == 0
        assert payload["run_manifest"]["seed"] == 7

    def test_validate_json_corrupted(self, corpus_copy, capsys):
        blob = (corpus_copy / CONTROL_FILE).read_bytes()
        (corpus_copy / CONTROL_FILE).write_bytes(blob[: len(blob) // 2])
        rc = main(["validate", str(corpus_copy), "--json"])
        assert rc == EXIT_FAILURES
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(i["severity"] == "error" for i in payload["issues"])

    def test_summary_json(self, capsys):
        rc = main(["summary", "--scale", "0.005", "--days", "7",
                   "--host-min-days", "4", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["analyses"]) == 16
        assert all(a["status"] == "ok" for a in payload["analyses"])
        assert payload["counts"]["failed"] == 0

    def test_summary_json_with_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main(["summary", "--scale", "0.005", "--days", "7",
                   "--host-min-days", "4", "--json",
                   "--metrics", str(metrics)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # with telemetry enabled the study report embeds the snapshot
        assert payload["telemetry"] is not None
        assert metrics.exists()


class TestReportCommand:
    @pytest.fixture
    def trace_file(self, corpus_dir, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["analyze", str(corpus_dir), "--host-min-days", "4",
                     "--trace", str(trace)]) == EXIT_OK
        capsys.readouterr()
        return trace

    def test_report_renders_timing_table(self, trace_file, capsys):
        rc = main(["report", str(trace_file)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "analyze.fig3_load" in out
        assert "ingest.control" in out
        assert "command=analyze" in out
        assert "total_s" in out

    def test_report_missing_file(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        assert rc == EXIT_USAGE
        assert "does not exist" in capsys.readouterr().err

    def test_report_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json at all\n")
        rc = main(["report", str(bad)])
        assert rc == EXIT_UNREADABLE
        assert "bad trace record" in capsys.readouterr().err

    def test_report_on_binary_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\x00\x01\x02\xff" * 64)
        rc = main(["report", str(bad)])
        assert rc == EXIT_UNREADABLE
        assert capsys.readouterr().err.startswith("error:")

    def test_report_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["report", str(empty)])
        assert rc == EXIT_UNREADABLE
        assert "no span or metrics" in capsys.readouterr().err

    def test_reader_closing_early_is_a_clean_exit(self, tmp_path):
        """``repro report t.jsonl | head``: a stdout reader that goes
        away ends the command with its own exit code, no traceback."""
        trace = tmp_path / "wide.jsonl"
        # enough distinct spans that the table outgrows a pipe buffer
        trace.write_text("".join(
            json.dumps({"type": "span", "name": f"stage.{i:05d}",
                        "seconds": 0.001}) + "\n" for i in range(4000)))
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(cli_command(["report", trace]),
                                stdout=write_end, stderr=subprocess.PIPE,
                                text=True, env=cli_env())
        os.close(write_end)
        os.close(read_end)  # the reader is gone before any output
        try:
            _, err = proc.communicate(timeout=CLI_TIMEOUT)
        finally:
            proc.kill()
        assert proc.returncode == EXIT_BROKEN_PIPE, err
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
