"""CLI surface of the tap layer: ``repro watch --tap`` over the
committed fixtures for every adapter format, the JSON report's tap
section, and the usage-error paths."""

import json
from pathlib import Path

import pytest

from tests.cli_helpers import run_cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

FEEDS = {
    "ris": FIXTURES / "feed.ris.jsonl",
    "exabgp": FIXTURES / "feed.exabgp.jsonl",
    "mrt": FIXTURES / "feed.mrt.mrt",
}


def test_fixtures_are_committed():
    for path in FEEDS.values():
        assert path.is_file(), f"missing fixture {path}; regenerate with "\
            "tests/taps/fixtures/make_fixtures.py"


@pytest.mark.parametrize("fmt", sorted(FEEDS))
def test_watch_tap_consumes_fixture_feed(fmt, tmp_path):
    corpus = tmp_path / "corpus"
    proc = run_cli(["watch", str(corpus), "--tap", f"{fmt}:{FEEDS[fmt]}",
                    "--once", "--analyses", "fig3_load",
                    "--host-min-days", "1", "--no-cache", "--json"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["stream"]["watermark_days"] == 2
    assert payload["stream"]["degraded"] is False
    (name,) = payload["stream"]["taps"]
    tap = payload["stream"]["taps"][name]
    assert tap["format"] == fmt
    assert tap["state"] == "finished"
    assert tap["records_ok"] == 24
    assert tap["records_malformed"] == 0
    statuses = {a["name"]: a["status"] for a in payload["analyses"]}
    assert statuses == {"fig3_load": "ok"}


def test_watch_two_taps_text_report_lists_both(tmp_path):
    corpus = tmp_path / "corpus"
    proc = run_cli(["watch", str(corpus),
                    "--tap", f"a=ris:{FEEDS['ris']}",
                    "--tap", f"b=mrt:{FEEDS['mrt']}",
                    "--once", "--analyses", "fig3_load",
                    "--host-min-days", "1", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert "taps:" in proc.stdout
    assert "DEGRADED" not in proc.stdout
    for name in ("a", "b"):
        assert name in proc.stdout


def test_watch_resumes_across_invocations(tmp_path):
    """Two --once runs over the same fixture feed: the second is a no-op
    replay (late records fenced off), not a double ingest."""
    corpus = tmp_path / "corpus"
    spec = f"ris:{FEEDS['ris']}"
    first = run_cli(["watch", str(corpus), "--tap", spec, "--once",
                     "--analyses", "fig3_load", "--host-min-days", "1",
                     "--no-cache", "--json"])
    assert first.returncode == 0, first.stderr
    second = run_cli(["watch", str(corpus), "--tap", spec, "--once",
                      "--analyses", "fig3_load", "--host-min-days", "1",
                      "--no-cache", "--json"])
    assert second.returncode == 0, second.stderr
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    assert b["stream"]["watermark_days"] == 2
    digest = {x["name"]: x["value_digest"] for x in a["analyses"]}
    assert digest == {x["name"]: x["value_digest"] for x in b["analyses"]}


@pytest.mark.parametrize("spec", [
    "justapath",              # no FORMAT: prefix
    "bogus:feed.jsonl",       # unknown format
    "=ris:feed.jsonl",        # empty name
])
def test_bad_tap_spec_is_a_usage_error(spec, tmp_path):
    proc = run_cli(["watch", str(tmp_path / "corpus"), "--tap", spec,
                    "--once"])
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_tapping_generated_corpus_is_refused(stream_corpus):
    proc = run_cli(["watch", str(stream_corpus),
                    "--tap", f"ris:{FEEDS['ris']}", "--once"])
    assert proc.returncode == 2
    assert "refusing to tap" in proc.stderr


def test_watch_without_corpus_or_taps_is_a_usage_error(tmp_path):
    proc = run_cli(["watch", str(tmp_path / "nope"), "--once"])
    assert proc.returncode == 2
