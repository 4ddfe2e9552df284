"""``repro doctor``: exit codes, rendering, --repair, --json."""

import json

from repro.cli import main
from repro.runtime.generate import JOURNAL_FILE, SEGMENT_DIR
from tests.doctor.conftest import corpus_fingerprint


class TestDoctorExitCodes:
    def test_clean_corpus_exits_zero(self, corpus, capsys):
        assert main(["doctor", str(corpus)]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_damaged_corpus_exits_one(self, corpus, capsys):
        (corpus / "manifest.json").write_text("{torn")
        assert main(["doctor", str(corpus)]) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_repair_exits_zero_and_rescrubs_clean(
            self, corpus, baseline_fingerprint, capsys):
        journal = corpus / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes() + b"{torn")
        seg = corpus / SEGMENT_DIR / "control-000.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)
        assert main(["doctor", str(corpus), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "re-scrub: CLEAN" in out
        assert corpus_fingerprint(corpus) == baseline_fingerprint

    def test_unrepairable_damage_exits_one(self, corpus, capsys):
        # sever the generation-parameter trust chain so segment damage
        # has no redundancy left
        meta = json.loads((corpus / "platform.json").read_text())
        meta["seed"] = 999
        (corpus / "platform.json").write_text(json.dumps(meta))
        seg = corpus / SEGMENT_DIR / "control-000.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)
        assert main(["doctor", str(corpus), "--repair"]) == 1
        assert "unrecoverable" in capsys.readouterr().out

    def test_not_a_corpus_exits_three(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_quick_mode_skips_hashing(self, corpus):
        seg = corpus / SEGMENT_DIR / "control-000.jsonl"
        seg.write_bytes(b"X" * seg.stat().st_size)  # same-size drift
        assert main(["doctor", str(corpus), "--quick"]) == 0
        assert main(["doctor", str(corpus)]) == 1


class TestDoctorJson:
    def test_scrub_json_shape(self, corpus, capsys):
        (corpus / ".tmp-orphan").write_text("x")
        assert main(["doctor", str(corpus), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        kinds = {d["kind"] for d in payload["damages"]}
        assert kinds == {"tmp"}
        assert all("plan" in d for d in payload["damages"])

    def test_repair_json_includes_verification(self, corpus, capsys):
        (corpus / ".tmp-orphan").write_text("x")
        assert main(["doctor", str(corpus), "--repair", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repair"]["ok"] is True
        assert payload["repair"]["verified"]["clean"] is True
        assert payload["repair"]["actions"]
