"""Golden equivalence: parallel execution must reproduce the serial
reference path bit for bit.

Three layers of proof, strongest first:

* **corpus bytes** — ``generate --jobs 4`` writes byte-identical
  ``control.jsonl`` / ``data.npz`` / ``platform.json`` and an identical
  manifest ``files`` section;
* **report equivalence** — a ``--jobs 4`` analysis run produces the same
  canonical StudyReport (statuses, warnings, errors, value fingerprints)
  as ``--jobs 1``;
* **golden fixtures** — the corpus checksums and per-analysis value
  fingerprints are pinned in ``golden/checksums.json``, committed to the
  repo, so silent drift in *any* analysis across PRs fails here.

Refreshing the fixtures after an intentional change::

    REPRO_GOLDEN_UPDATE=1 python -m pytest tests/parallel/test_golden_equivalence.py

On mismatch, set ``REPRO_GOLDEN_DIFF_DIR`` to dump the actual values for
inspection (CI uploads that directory as an artifact).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import AnalysisPipeline, ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    META_FILE,
    file_sha256,
)
from repro.corpus.platform import load_platform
from repro.parallel.golden import FINGERPRINT_VERSION
from repro.runtime.generate import checkpointed_generate
from repro.scenario.config import ScenarioConfig

CONFIG = ScenarioConfig.paper(scale=0.005, duration_days=3.0, seed=3)
HOST_MIN_DAYS = 2
GOLDEN_PATH = Path(__file__).parent / "golden" / "checksums.json"


def _packets_sha256(npz_path: Path) -> str:
    """Checksum of the decompressed packet array — environment-robust
    (zlib builds may compress differently; the payload cannot)."""
    import hashlib

    with np.load(npz_path) as archive:
        arr = np.ascontiguousarray(archive["packets"])
        return hashlib.sha256(
            arr.dtype.str.encode() + str(arr.shape).encode() + arr.tobytes()
        ).hexdigest()


def _make_pipeline(corpus_dir: Path) -> AnalysisPipeline:
    control = ControlPlaneCorpus.load_jsonl(corpus_dir / CONTROL_FILE)
    data = DataPlaneCorpus.load_npz(corpus_dir / DATA_FILE)
    peers, rs_asn, peeringdb = load_platform(corpus_dir)
    return AnalysisPipeline(control, data, peer_asns=peers,
                            peeringdb=peeringdb, route_server_asn=rs_asn,
                            host_min_days=HOST_MIN_DAYS)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The same corpus generated serially and with ``--jobs 4``."""
    base = tmp_path_factory.mktemp("golden")
    serial_dir = base / "serial"
    parallel_dir = base / "parallel"
    checkpointed_generate(CONFIG, serial_dir)
    checkpointed_generate(CONFIG, parallel_dir, jobs=4)
    return serial_dir, parallel_dir


@pytest.fixture(scope="module")
def reports(corpora):
    """The same corpus analysed serially and with ``--jobs 4``."""
    serial_dir, parallel_dir = corpora
    serial = _make_pipeline(serial_dir).run_all(strict=False)
    parallel = _make_pipeline(parallel_dir).run_all(strict=False, jobs=4)
    return serial, parallel


class TestCorpusEquivalence:
    def test_corpus_files_byte_identical(self, corpora):
        serial_dir, parallel_dir = corpora
        for name in (CONTROL_FILE, DATA_FILE, META_FILE):
            assert (serial_dir / name).read_bytes() \
                == (parallel_dir / name).read_bytes(), name

    def test_manifest_files_sections_identical(self, corpora):
        serial_dir, parallel_dir = corpora
        serial = json.loads((serial_dir / MANIFEST_FILE).read_text())
        parallel = json.loads((parallel_dir / MANIFEST_FILE).read_text())
        assert serial["files"] == parallel["files"]
        assert serial["counts"] == parallel["counts"]


class TestReportEquivalence:
    def test_canonical_reports_byte_identical(self, reports):
        serial, parallel = reports
        assert serial.canonical_json() == parallel.canonical_json()

    def test_every_analysis_fingerprinted_and_equal(self, reports):
        serial, parallel = reports
        serial_digests = {o.name: o.value_digest for o in serial}
        parallel_digests = {o.name: o.value_digest for o in parallel}
        assert serial_digests == parallel_digests
        assert all(serial_digests.values())  # no analysis skipped the hash

    def test_statuses_all_ok(self, reports):
        serial, _ = reports
        assert serial.ok and not serial.all_degraded


class TestGoldenFixtures:
    """Pin the corpus checksums and value fingerprints across PRs."""

    def _actual(self, corpora, reports) -> dict:
        serial_dir, _ = corpora
        serial, _ = reports
        return {
            "fingerprint_version": FINGERPRINT_VERSION,
            "config": {"scale": 0.005, "duration_days": 3.0, "seed": 3,
                       "host_min_days": HOST_MIN_DAYS},
            "numpy": ".".join(np.__version__.split(".")[:2]),
            "corpus": {
                "control_sha256": file_sha256(serial_dir / CONTROL_FILE),
                "platform_sha256": file_sha256(serial_dir / META_FILE),
                "data_packets_sha256": _packets_sha256(
                    serial_dir / DATA_FILE),
            },
            "analyses": {o.name: o.value_digest for o in serial},
        }

    def test_matches_committed_golden(self, corpora, reports):
        actual = self._actual(corpora, reports)
        if os.environ.get("REPRO_GOLDEN_UPDATE"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(json.dumps(actual, indent=2,
                                              sort_keys=True) + "\n")
            pytest.skip(f"golden fixtures regenerated at {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), \
            "no golden fixtures committed; run with REPRO_GOLDEN_UPDATE=1"
        golden = json.loads(GOLDEN_PATH.read_text())
        mismatch = self._diff(golden, actual)
        if mismatch:
            diff_dir = os.environ.get("REPRO_GOLDEN_DIFF_DIR")
            if diff_dir:
                Path(diff_dir).mkdir(parents=True, exist_ok=True)
                (Path(diff_dir) / "golden_actual.json").write_text(
                    json.dumps(actual, indent=2, sort_keys=True))
                (Path(diff_dir) / "golden_expected.json").write_text(
                    json.dumps(golden, indent=2, sort_keys=True))
        assert not mismatch, "golden drift:\n" + "\n".join(mismatch)

    @staticmethod
    def _diff(golden: dict, actual: dict) -> list:
        out = []
        if golden.get("fingerprint_version") != actual["fingerprint_version"]:
            out.append("fingerprint encoding version changed; regenerate "
                       "fixtures with REPRO_GOLDEN_UPDATE=1")
            return out
        for key, value in actual["corpus"].items():
            if golden.get("corpus", {}).get(key) != value:
                out.append(f"corpus {key}: expected "
                           f"{golden.get('corpus', {}).get(key)}, got {value}")
        # analysis fingerprints hash *computed* floats: guaranteed stable
        # for one numpy series, not across them — compare only when the
        # fixture was produced by the same numpy major.minor
        if golden.get("numpy") == actual["numpy"]:
            for name, digest in actual["analyses"].items():
                if golden.get("analyses", {}).get(name) != digest:
                    out.append(f"analysis {name}: fingerprint drifted")
        return out
