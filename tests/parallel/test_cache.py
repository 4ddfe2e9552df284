"""Tests for the content-addressed result cache: keying, round trips,
corruption tolerance, the ``validate`` stale-cache regression, and the
cached ``analyze`` that reads no corpus plane."""

import json
import os
import shutil

import pytest

from repro.api import AnalyzeOptions, Study
from repro.cli import EXIT_OK, EXIT_UNREADABLE, main
from repro.core.study import AnalysisOutcome, AnalysisStatus
from repro.corpus.manifest import (
    DATA_FILE,
    MANIFEST_FILE,
    validate_corpus,
    write_manifest,
)
from repro.parallel.cache import (
    DEFAULT_CACHE_DIRNAME,
    ResultCache,
    corpus_digest,
    digest_of_files,
)


def outcome(name="fig1", status=AnalysisStatus.OK, digest="aa" * 32):
    return AnalysisOutcome(name=name, status=status, value={"x": 1},
                           value_digest=digest, seconds=1.25, attempts=2)


class TestKeying:
    def test_key_depends_on_every_component(self):
        base = ResultCache.key("corpus", "cfg", "fig1")
        assert ResultCache.key("corpus2", "cfg", "fig1") != base
        assert ResultCache.key("corpus", "cfg2", "fig1") != base
        assert ResultCache.key("corpus", "cfg", "fig2") != base
        assert ResultCache.key("corpus", "cfg", "fig1") == base

    def test_digest_of_files_ignores_listing_order(self):
        a = {"x": {"sha256": "1"}, "y": {"sha256": "2"}}
        b = {"y": {"sha256": "2"}, "x": {"sha256": "1"}}
        assert digest_of_files(a) == digest_of_files(b)
        assert digest_of_files({"x": {"sha256": "9"}}) != digest_of_files(a)


class TestCorpusDigest:
    def test_digest_from_manifest(self, tmp_path):
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(
            {"files": {"control.jsonl": {"sha256": "ab", "bytes": 10}}}))
        assert corpus_digest(tmp_path) is not None

    def test_no_manifest_means_no_digest(self, tmp_path):
        assert corpus_digest(tmp_path) is None
        (tmp_path / MANIFEST_FILE).write_text("{not json")
        assert corpus_digest(tmp_path) is None
        (tmp_path / MANIFEST_FILE).write_text(json.dumps({"files": {}}))
        assert corpus_digest(tmp_path) is None

    def test_digest_excludes_provenance(self, tmp_path):
        files = {"control.jsonl": {"sha256": "ab", "bytes": 10}}
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(
            {"files": files, "run": {"started_unix": 1.0}}))
        first = corpus_digest(tmp_path)
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(
            {"files": files, "run": {"started_unix": 999.0}}))
        assert corpus_digest(tmp_path) == first


class TestRoundTrip:
    def test_put_get_restores_status_and_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("corpus", "cfg", outcome())
        hit = cache.get("corpus", "cfg", "fig1")
        assert hit is not None and hit.cached
        assert hit.status is AnalysisStatus.OK
        assert hit.value_digest == "aa" * 32
        assert hit.value is None  # values are not persisted

    def test_mismatched_key_components_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("corpus", "cfg", outcome())
        assert cache.get("other", "cfg", "fig1") is None
        assert cache.get("corpus", "other", "fig1") is None
        assert cache.get("corpus", "cfg", "other") is None

    def test_failed_outcomes_never_cached_or_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put("corpus", "cfg",
                         outcome(status=AnalysisStatus.FAILED)) is None
        assert cache.get("corpus", "cfg", "fig1") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("corpus", "cfg", outcome())
        path.write_text("{torn")
        assert cache.get("corpus", "cfg", "fig1") is None

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("corpus", "cfg", outcome())
        entry = json.loads(path.read_text())
        entry["version"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get("corpus", "cfg", "fig1") is None


def stale_names(corpus, cache_dir):
    """Names of the entries the cache audit calls stale for ``corpus``."""
    from repro.doctor.scrub import audit_caches

    _, audited = audit_caches(corpus, cache_dir)
    return [a.record["name"] for a in audited if a.verdict == "stale"]


class TestStaleEntries:
    def test_stale_detection(self, tmp_path):
        current, previous = tmp_path / "current", tmp_path / "previous"
        for corpus in (current, previous):
            corpus.mkdir()
            (corpus / "control.jsonl").write_text(corpus.name)
            write_manifest(corpus)
        cache = ResultCache(tmp_path / "cache")
        cache.put(corpus_digest(current), "cfg", outcome(name="fig1"))
        cache.put(corpus_digest(previous), "cfg", outcome(name="fig2"))
        assert stale_names(current, cache.root) == ["fig2"]
        assert stale_names(previous, cache.root)[0] == "fig1"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A real (tiny) generated corpus to validate against."""
    from repro.runtime.generate import checkpointed_generate
    from repro.scenario.config import ScenarioConfig

    out = tmp_path_factory.mktemp("corpus")
    config = ScenarioConfig.paper(scale=0.004, duration_days=3.0, seed=3)
    checkpointed_generate(config, out)
    return out


class TestValidateStaleCache:
    """Regression: ``validate`` must fail when a cached analysis result's
    corpus digest no longer matches the manifest."""

    def test_matching_cache_passes(self, corpus_dir):
        cache = ResultCache(corpus_dir / DEFAULT_CACHE_DIRNAME)
        cache.put(corpus_digest(corpus_dir), "cfg", outcome())
        report = validate_corpus(corpus_dir)
        assert report.ok
        for _, entry in cache.entries():
            (_,) = [entry]  # exactly one entry, and it is fresh

    def test_stale_default_cache_fails_validation(self, corpus_dir):
        cache = ResultCache(corpus_dir / DEFAULT_CACHE_DIRNAME)
        stale_path = cache.put("0123456789ab" * 4 + "deadbeefcafe0042",
                               "cfg", outcome(name="fig9"))
        try:
            report = validate_corpus(corpus_dir)
            assert not report.ok
            codes = [i.code for i in report.issues if i.severity == "error"]
            assert "stale-cache" in codes
            message = next(i.message for i in report.issues
                           if i.code == "stale-cache")
            assert "fig9" in message
        finally:
            stale_path.unlink()

    def test_explicit_cache_dir_is_checked(self, corpus_dir, tmp_path):
        cache = ResultCache(tmp_path / "elsewhere")
        cache.put("not-this-corpus-digest", "cfg", outcome())
        report = validate_corpus(corpus_dir,
                                 cache_dir=tmp_path / "elsewhere")
        assert not report.ok
        assert any(i.code == "stale-cache" for i in report.issues)

    def test_unmanifested_corpus_with_cache_fails(self, tmp_path):
        # a cache next to a corpus whose manifest is unusable cannot be
        # trusted at all
        from repro.corpus.manifest import CONTROL_FILE, DATA_FILE, META_FILE

        for name in (CONTROL_FILE, DATA_FILE):
            (tmp_path / name).write_text("")
        (tmp_path / META_FILE).write_text("{}")
        cache = ResultCache(tmp_path / DEFAULT_CACHE_DIRNAME)
        cache.put("whatever", "cfg", outcome())
        report = validate_corpus(tmp_path)
        assert any(i.code == "stale-cache" for i in report.issues)


class TestSizeBudget:
    """--cache-max-bytes: LRU-by-mtime eviction with telemetry."""

    def entry_size(self, tmp_path):
        cache = ResultCache(tmp_path / "probe")
        path = cache.put("corpus", "cfg", outcome())
        return path.stat().st_size

    def fill(self, cache, names):
        for name in names:
            path = cache.put("corpus", "cfg", outcome(name=name))
            # spread mtimes deterministically so LRU order is exact
            os.utime(path, (1_000_000 + len(cache_names(cache)),
                            1_000_000 + len(cache_names(cache))))

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put("corpus", "cfg", outcome(name=f"fig{i}"))
        assert len(cache_names(cache)) == 20

    def test_put_evicts_oldest_past_budget(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(tmp_path, max_bytes=3 * size + size // 2)
        self.fill(cache, [f"fig{i}" for i in range(5)])
        kept = cache_names(cache)
        assert len(kept) == 3
        assert {"fig2", "fig3", "fig4"} == kept  # oldest two evicted

    def test_get_touch_protects_served_entries(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(tmp_path, max_bytes=2 * size + size // 2)
        self.fill(cache, ["figA", "figB"])
        assert cache.get("corpus", "cfg", "figA") is not None  # LRU touch
        cache.put("corpus", "cfg", outcome(name="figC"))
        kept = cache_names(cache)
        assert "figA" in kept and "figC" in kept
        assert "figB" not in kept

    def test_just_written_entry_never_evicted(self, tmp_path):
        size = self.entry_size(tmp_path)
        cache = ResultCache(tmp_path, max_bytes=size // 2)
        path = cache.put("corpus", "cfg", outcome(name="only"))
        assert path.exists()
        assert cache_names(cache) == {"only"}

    def test_eviction_counter_increments(self, tmp_path):
        from repro import telemetry

        size = self.entry_size(tmp_path)
        with telemetry.activate(telemetry.Telemetry()) as telem:
            cache = ResultCache(tmp_path, max_bytes=size + size // 2)
            self.fill(cache, ["figA", "figB", "figC"])
            evicted = telem.registry.counter("cache.evictions",
                                             reason="size").value
        assert evicted == 2


def cache_names(cache):
    return {entry.get("name") for _, entry in cache.entries()}


def analyze(corpus, capsys, *extra):
    """``repro analyze --jobs 2 --json`` in process: (exit code, report)."""
    rc = main(["analyze", str(corpus), "--host-min-days", "1", "--jobs", "2",
               "--json", *extra])
    return rc, capsys.readouterr().out


def span_names(trace):
    records = (json.loads(line) for line in trace.read_text().splitlines())
    return {r["name"] for r in records if r.get("type") == "span"}


INGEST_SPANS = {"ingest.control", "ingest.data"}


class TestCachedAnalyzeReadsNoPlane:
    """A run served whole from ``ok`` cache hits over plane files that
    match the manifest reads neither plane; any other run reads both, and
    reports exactly what it reported when every run read them."""

    @pytest.fixture
    def corpus(self, corpus_dir, tmp_path):
        dst = tmp_path / "corpus"
        shutil.copytree(corpus_dir, dst,
                        ignore=shutil.ignore_patterns(DEFAULT_CACHE_DIRNAME))
        return dst

    def test_fully_cached_run_ingests_nothing(self, corpus, tmp_path,
                                              capsys):
        traces = [tmp_path / f"t{i}.jsonl" for i in range(3)]
        runs = [analyze(corpus, capsys, "--trace", str(t)) for t in traces]
        assert [rc for rc, _ in runs] == [EXIT_OK] * 3
        cold, first, second = (json.loads(out) for _, out in runs)
        assert INGEST_SPANS <= span_names(traces[0])
        assert not any(a["cached"] for a in cold["analyses"])
        assert all(a["cached"] for a in first["analyses"])
        for trace in traces[1:]:
            assert not {n for n in span_names(trace)
                        if n.startswith("ingest.")}
        assert runs[1][1] == runs[2][1]  # byte-equal reports
        assert first["warnings"] == cold["warnings"] == []
        assert ({a["name"]: a["value_digest"] for a in first["analyses"]}
                == {a["name"]: a["value_digest"] for a in cold["analyses"]})

    def inject(self, corpus_dir, out, capsys):
        assert main(["inject", str(corpus_dir), "--out", str(out),
                     "--fault", "corrupt:0.1", "--seed", "3"]) == EXIT_OK
        capsys.readouterr()
        return out

    def test_degraded_hits_keep_their_warnings(self, corpus_dir, tmp_path,
                                               capsys):
        # a manifest that vouches for files with unreadable records: the
        # planes match it, but the hits are degraded, so both are read
        degraded = self.inject(corpus_dir, tmp_path / "degraded", capsys)
        write_manifest(degraded)
        rc_cold, cold = analyze(degraded, capsys)
        trace = tmp_path / "warm.jsonl"
        rc_warm, warm = analyze(degraded, capsys, "--trace", str(trace))
        cold, warm = json.loads(cold), json.loads(warm)
        assert cold["warnings"]
        assert (rc_warm, warm["warnings"]) == (rc_cold, cold["warnings"])
        assert {a["status"] for a in warm["analyses"]} == {"degraded"}
        assert all(a["cached"] for a in warm["analyses"])
        assert INGEST_SPANS <= span_names(trace)

    def test_stale_manifest_copy_keeps_its_warnings(self, corpus_dir,
                                                    corpus, tmp_path,
                                                    capsys):
        # `repro inject` copies the parent's manifest, so the damaged copy
        # keys the cache like its parent; its planes no longer match
        degraded = self.inject(corpus_dir, tmp_path / "degraded", capsys)
        rc_cold, cold = analyze(degraded, capsys)
        trace = tmp_path / "warm.jsonl"
        rc_warm, warm = analyze(degraded, capsys, "--trace", str(trace))
        cold, warm = json.loads(cold), json.loads(warm)
        assert cold["warnings"]
        assert (rc_warm, warm["warnings"]) == (rc_cold, cold["warnings"])
        assert all(a["cached"] for a in warm["analyses"])
        assert INGEST_SPANS <= span_names(trace)
        # a cache the intact parent filled serves the copy only ok hits;
        # the copy's planes are read all the same and its losses reported
        shared = tmp_path / "shared-cache"
        assert analyze(corpus, capsys, "--cache-dir", str(shared))[0] \
            == EXIT_OK
        rc, served = analyze(degraded, capsys, "--cache-dir", str(shared))
        served = json.loads(served)
        assert rc == EXIT_OK
        assert {a["status"] for a in served["analyses"]} == {"ok"}
        assert all(a["cached"] for a in served["analyses"])
        assert served["warnings"] == cold["warnings"]

    def test_damaged_plane_under_intact_manifest_fails(self, corpus, capsys):
        assert analyze(corpus, capsys)[0] == EXIT_OK
        data = corpus / DATA_FILE
        data.write_bytes(bytes(data.stat().st_size))
        rc = main(["analyze", str(corpus), "--host-min-days", "1",
                   "--jobs", "2", "--json"])
        assert rc == EXIT_UNREADABLE
        assert "cannot ingest" in capsys.readouterr().err

    def test_study_analyze_matches_cli(self, corpus, capsys):
        rc, out = analyze(corpus, capsys)
        assert rc == EXIT_OK
        report = Study.open(corpus).analyze(
            options=AnalyzeOptions(host_min_days=1))
        assert ({o.name: o.value_digest for o in report.outcomes}
                == {a["name"]: a["value_digest"]
                    for a in json.loads(out)["analyses"]})
