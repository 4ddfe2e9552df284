"""``repro status``: exit codes, rendering, --json, typed errors."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.obs import ObsPlane, SLORules
from repro.obs.snapshot import snapshot_path, write_snapshot


def _watch_once(tmp_path, sample, rules=SLORules()):
    with telemetry.activate(telemetry.Telemetry()):
        with ObsPlane(tmp_path, rules=rules) as plane:
            plane.observe(sample)


class TestExitCodes:
    def test_ok_session_exits_zero(self, tmp_path, capsys):
        _watch_once(tmp_path, {"lag_days": 0, "watermark_days": 3,
                               "committed_days": 3})
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "watermark day 3" in out

    def test_degraded_session_exits_four(self, tmp_path, capsys):
        _watch_once(tmp_path, {"lag_days": 5, "watermark_days": 0,
                               "committed_days": 5})
        assert main(["status", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "stream.lag_days" in out

    def test_unhealthy_session_exits_five(self, tmp_path, capsys):
        _watch_once(tmp_path, {
            "taps": {"a": {"state": "dead"}, "b": {"state": "dead"}}})
        assert main(["status", str(tmp_path)]) == 5
        assert "UNHEALTHY" in capsys.readouterr().out

    def test_never_watched_corpus_exits_two_with_guidance(self, tmp_path,
                                                          capsys):
        assert main(["status", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "never run a watch session" in err
        assert "Traceback" not in err

    def test_corrupt_snapshot_exits_three(self, tmp_path, capsys):
        write_snapshot(tmp_path, {"watermark_days": 1})
        path = snapshot_path(tmp_path)
        path.write_text(path.read_text()[:20])
        assert main(["status", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "unreadable obs snapshot" in err
        assert "Traceback" not in err


class TestOutput:
    def test_json_output_is_the_raw_document(self, tmp_path, capsys):
        _watch_once(tmp_path, {"lag_days": 0, "watermark_days": 2})
        assert main(["status", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["watermark_days"] == 2
        assert payload["health"]["state"] == "ok"
        assert payload["slo"] == SLORules().to_json()

    def test_tap_table_rendered(self, tmp_path, capsys):
        _watch_once(tmp_path, {
            "lag_days": 0,
            "taps": {"ris-a": {"state": "stalled",
                               "records_ok": 12, "records_malformed": 1,
                               "last_error": "stalled: no new data"}}})
        assert main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith("ris-a"))
        assert row.split()[:4] == ["ris-a", "stalled", "12", "1"]
        assert row.endswith("stalled: no new data")

