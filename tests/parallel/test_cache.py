"""Tests for the content-addressed result cache: keying, round trips,
corruption tolerance, and the ``validate`` stale-cache regression."""

import json
import os

import pytest

from repro.core.study import AnalysisOutcome, AnalysisStatus
from repro.corpus.manifest import MANIFEST_FILE, validate_corpus
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
        from repro.corpus.manifest import write_manifest

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
