"""Corpora written by older versions still work: the ``.columnar/``
directory and ``columnar:*`` commits in ``.checkpoint.jsonl`` left
before the columnar sidecar plane was retired, and the
``.analysis.checkpoint.jsonl`` left before the result cache became the
one store of finished analyses, are inert leftovers — ``validate``
passes, ``doctor`` finds nothing to repair, and ``generate --resume``
finishes or recognises the corpus without touching them.
"""

import hashlib
import json
import shutil

import pytest

from repro.cli import EXIT_OK, MANIFEST_FILE
from repro.runtime.generate import FINALIZE_KEY, JOURNAL_FILE
from tests.cli_helpers import run_cli

GENERATE = ["generate", "--scale", "0.005", "--days", "3", "--seed", "3"]

#: header bytes of the retired ``.col`` segment format
COL_MAGIC = b"RCOL\x01\n\x00\x00"


def _journal_lines(corpus):
    return (corpus / JOURNAL_FILE).read_text().splitlines(keepends=True)


def plant_legacy_leftovers(corpus, *, finalized=True):
    """Give a freshly generated corpus the layout older versions left:
    the two sidecars plus their journal commits ahead of the finalize
    record (or, for an interrupted run, with no finalize record)."""
    sidecars = corpus / ".columnar"
    sidecars.mkdir()
    commits = []
    for plane, source in (("control", "control.jsonl"), ("data", "data.npz")):
        path = sidecars / f"{plane}.col"
        path.write_bytes(COL_MAGIC + bytes(range(256)) * 4)
        commits.append(json.dumps({
            "key": f"columnar:{plane}", "rows": 1,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "source_sha256": hashlib.sha256(
                (corpus / source).read_bytes()).hexdigest(),
            "type": "step"}, sort_keys=True) + "\n")
    lines = _journal_lines(corpus)
    finalize = [i for i, line in enumerate(lines)
                if json.loads(line).get("key") == FINALIZE_KEY]
    at = finalize[0]
    lines[at:at] = commits
    if not finalized:
        del lines[at + len(commits):]
    (corpus / JOURNAL_FILE).write_text("".join(lines))


def leftovers(corpus):
    return {p.name: p.read_bytes() for p in (corpus / ".columnar").iterdir()}


@pytest.fixture(scope="module")
def fresh_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("legacy") / "corpus"
    proc = run_cli([*GENERATE, "--out", corpus])
    assert proc.returncode == EXIT_OK, proc.stderr
    return corpus


@pytest.fixture
def legacy_corpus(fresh_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(fresh_corpus, corpus)
    plant_legacy_leftovers(corpus)
    return corpus


def test_generate_writes_no_sidecars(fresh_corpus):
    assert not (fresh_corpus / ".columnar").exists()
    assert all(not json.loads(line).get("key", "").startswith("columnar:")
               for line in _journal_lines(fresh_corpus))


def test_validate_passes(legacy_corpus):
    proc = run_cli(["validate", legacy_corpus])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr


def test_doctor_is_clean_and_leaves_them_alone(legacy_corpus):
    before = leftovers(legacy_corpus)
    proc = run_cli(["doctor", legacy_corpus])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "CLEAN" in proc.stdout
    assert leftovers(legacy_corpus) == before


def test_resume_of_complete_corpus_is_noop(legacy_corpus, fresh_corpus):
    proc = run_cli([*GENERATE, "--out", legacy_corpus, "--resume"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "already complete" in proc.stdout
    assert (legacy_corpus / MANIFEST_FILE).read_bytes() == \
        (fresh_corpus / MANIFEST_FILE).read_bytes()


def test_resume_finishes_a_run_killed_after_the_sidecars(fresh_corpus,
                                                         tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(fresh_corpus, corpus)
    plant_legacy_leftovers(corpus, finalized=False)
    proc = run_cli([*GENERATE, "--out", corpus, "--resume"])
    assert proc.returncode == EXIT_OK, proc.stderr
    files = json.loads((corpus / MANIFEST_FILE).read_text())["files"]
    expected = json.loads((fresh_corpus / MANIFEST_FILE).read_text())
    assert files == expected["files"]
    assert run_cli(["validate", corpus]).returncode == EXIT_OK


def test_analysis_journal_leftover_is_inert(fresh_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(fresh_corpus, corpus)
    leftover = corpus / ".analysis.checkpoint.jsonl"
    leftover.write_text(
        json.dumps({"type": "header", "command": "analyze",
                    "corpus": str(corpus), "policy": "skip",
                    "host_min_days": 2}) + "\n"
        + json.dumps({"type": "step", "key": "analysis:fig3_load",
                      "name": "fig3_load", "status": "failed"}) + "\n"
        + "{torn")
    before = leftover.read_bytes()
    proc = run_cli(["validate", corpus])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    proc = run_cli(["doctor", corpus])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "CLEAN" in proc.stdout
    assert leftover.read_bytes() == before
