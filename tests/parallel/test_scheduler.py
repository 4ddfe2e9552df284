"""Tests for the analysis runner's ``jobs > 1`` pool against a stub
pipeline: concurrent dispatch, deterministic merging, retry/timeout
parity with supervised ``jobs=1``, resume from the result cache, and
strict-stop semantics."""

import os

import pytest

from repro import telemetry
from repro.core.pipeline import SHARED_INTERMEDIATES
from repro.core.study import AnalysisStatus
from repro.errors import AnalysisError, SupervisorError
from repro.parallel.cache import ResultCache
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import (
    SupervisorPolicy,
    resolve_jobs,
    run_analyses,
    schedule_order,
)
from tests.runner_helpers import StubPipeline, no_sleep_policy


class TestSchedulerBasics:
    def test_outcomes_merge_in_request_order(self):
        # slow_ok finishes last but must still come back first
        names = ["slow_ok", "ok_fast", "ok_other"]
        report = run_analyses(StubPipeline(), analyses=names, jobs=3)
        assert [o.name for o in report.outcomes] == names
        assert all(o.status is AnalysisStatus.OK for o in report.outcomes)

    def test_values_and_fingerprints_cross_the_pipe(self):
        report = run_analyses(StubPipeline(), analyses=["ok_fast", "big_value"],
                              jobs=2)
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["ok_fast"].value == {"answer": 42}
        assert len(by_name["big_value"].value) == 200_000
        assert all(o.value_digest for o in report.outcomes)

    def test_jobs_one_matches_many(self):
        names = ["ok_fast", "ok_other", "typed_failure"]
        policy, _ = no_sleep_policy(retry=RetryPolicy(max_retries=0))
        serial = run_analyses(StubPipeline(), analyses=names, jobs=1,
                              policy=policy)
        wide = run_analyses(StubPipeline(), analyses=names, jobs=8,
                            policy=policy)
        assert serial.canonical_json() == wide.canonical_json()

    def test_degraded_inputs_propagate(self):
        pipeline = StubPipeline()
        pipeline.degraded_inputs = True
        report = run_analyses(pipeline, analyses=["ok_fast"], jobs=2)
        assert report.outcomes[0].status is AnalysisStatus.DEGRADED

    def test_failure_does_not_take_down_the_rest(self):
        policy, _ = no_sleep_policy(timeout=0.3,
                                    retry=RetryPolicy(max_retries=0))
        report = run_analyses(
            StubPipeline(), analyses=["ok_fast", "hangs", "typed_failure"],
            jobs=3, policy=policy)
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["ok_fast"].status is AnalysisStatus.OK
        assert by_name["hangs"].error_type == "AnalysisTimeout"
        assert by_name["typed_failure"].error_type == "AnalysisError"

    def test_negative_jobs_rejected(self):
        with pytest.raises(SupervisorError, match="jobs"):
            run_analyses(StubPipeline(), analyses=["ok_fast"], jobs=-2)

    def test_resolve_jobs_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(3) == 3


class TestRetryParity:
    def test_transient_failure_exhausts_retry_budget(self):
        policy, _ = no_sleep_policy(retry=RetryPolicy(max_retries=2), seed=5)
        report = run_analyses(StubPipeline(), analyses=["transient"],
                              jobs=2, policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "OSError"
        assert outcome.attempts == 3

    def test_killed_child_is_retried_then_failed(self):
        policy, _ = no_sleep_policy(retry=RetryPolicy(max_retries=1))
        report = run_analyses(StubPipeline(), analyses=["dies"],
                              jobs=2, policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "ChildKilled"
        assert outcome.attempts == 2

    def test_timeout_counters_recorded(self):
        policy, _ = no_sleep_policy(timeout=0.3,
                                    retry=RetryPolicy(max_retries=1))
        telem = telemetry.Telemetry()
        with telemetry.activate(telem):
            report = run_analyses(StubPipeline(), analyses=["hangs"],
                                  jobs=2, policy=policy)
        (outcome,) = report.outcomes
        assert outcome.error_type == "AnalysisTimeout"
        assert outcome.attempts == 2 and outcome.timeouts == 2
        counters = report.telemetry["counters"]
        assert counters["supervisor.timeouts{name=hangs}"] == 2
        assert counters["supervisor.retries{name=hangs}"] == 1
        assert counters["parallel.dispatched{name=hangs}"] == 2


def cache_keys(tmp_path):
    return dict(cache=ResultCache(tmp_path / "cache"),
                corpus_digest="c0ffee", config_hash="cfg")


def stored(keys, name):
    """The outcome the cache holds for ``name``, or None."""
    return keys["cache"].get(keys["corpus_digest"], keys["config_hash"],
                             name)


class TestJournal:
    """The pool stores each terminal outcome in the result cache as it
    finishes; a re-run in any mode is served what was stored."""

    def test_terminal_outcomes_are_committed_with_digests(self, tmp_path):
        keys = cache_keys(tmp_path)
        policy, _ = no_sleep_policy()
        report = run_analyses(StubPipeline(),
                              analyses=["ok_fast", "typed_failure"],
                              jobs=2, policy=policy, **keys)
        ok = stored(keys, "ok_fast")
        assert ok.status is AnalysisStatus.OK and ok.value_digest
        assert ok.value_digest == report.outcome("ok_fast").value_digest
        # a failure is never stored: a re-run runs it again
        assert report.outcome("typed_failure").error_type == "AnalysisError"
        assert stored(keys, "typed_failure") is None

    def test_resume_skips_journaled_analyses(self, tmp_path):
        keys = cache_keys(tmp_path)
        run_analyses(StubPipeline(), analyses=["ok_fast"], jobs=2, **keys)
        pipeline = StubPipeline()
        pipeline.ok_fast = pipeline.dies  # re-running would SIGKILL
        report = run_analyses(pipeline, analyses=["ok_fast"], jobs=2,
                              **keys)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.OK and outcome.cached
        assert outcome.value is None  # values are not persisted

    def test_serial_journal_resumes_in_parallel(self, tmp_path):
        keys = cache_keys(tmp_path)
        policy, _ = no_sleep_policy()
        run_analyses(StubPipeline(), analyses=["ok_fast"], policy=policy,
                     **keys)
        pipeline = StubPipeline()
        pipeline.ok_fast = pipeline.dies
        report = run_analyses(pipeline, analyses=["ok_fast"], jobs=4,
                              **keys)
        assert report.outcomes[0].status is AnalysisStatus.OK
        assert report.outcomes[0].cached


class TestStrict:
    def test_strict_failure_raises_after_journaling(self, tmp_path):
        # both children are in flight when the failure lands: the ok one
        # drains and is stored before the run raises
        keys = cache_keys(tmp_path)
        policy, _ = no_sleep_policy()
        with pytest.raises(AnalysisError, match="typed_failure failed"):
            run_analyses(StubPipeline(),
                         analyses=["typed_failure", "slow_ok"],
                         jobs=2, policy=policy, strict=True, **keys)
        assert stored(keys, "slow_ok") is not None
        assert stored(keys, "typed_failure") is None

    def test_strict_stop_leaves_undispatched_unjournaled(self, tmp_path):
        # jobs=1 serialises dispatch: the failure lands before the queue
        # drains, and everything not yet dispatched is left for a re-run
        keys = cache_keys(tmp_path)
        policy, _ = no_sleep_policy(retry=RetryPolicy(max_retries=0))
        with pytest.raises(AnalysisError):
            run_analyses(StubPipeline(),
                         analyses=["typed_failure", "ok_fast"],
                         jobs=1, policy=policy, strict=True, **keys)
        assert stored(keys, "ok_fast") is None
        # the re-run is served nothing and runs ``ok_fast`` fresh
        report = run_analyses(StubPipeline(), analyses=["ok_fast"],
                              jobs=1, policy=policy, **keys)
        assert not report.outcomes[0].cached
        assert stored(keys, "ok_fast") is not None


class TestCacheIntegration:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        policy, _ = no_sleep_policy()
        first = run_analyses(StubPipeline(), analyses=["ok_fast"], jobs=2,
                             policy=policy, cache=cache,
                             corpus_digest="c0ffee", config_hash="cfg")
        pipeline = StubPipeline()
        pipeline.ok_fast = pipeline.dies  # a real re-run would SIGKILL
        second = run_analyses(pipeline, analyses=["ok_fast"], jobs=2,
                              policy=policy, cache=cache,
                              corpus_digest="c0ffee", config_hash="cfg")
        assert second.outcomes[0].cached
        assert second.outcomes[0].status is AnalysisStatus.OK
        assert second.outcomes[0].value_digest == \
            first.outcomes[0].value_digest
        assert first.canonical_json() == second.canonical_json()

    def test_different_corpus_digest_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        policy, _ = no_sleep_policy()
        run_analyses(StubPipeline(), analyses=["ok_fast"], jobs=2,
                     policy=policy, cache=cache,
                     corpus_digest="c0ffee", config_hash="cfg")
        report = run_analyses(StubPipeline(), analyses=["ok_fast"], jobs=2,
                              policy=policy, cache=cache,
                              corpus_digest="0ther", config_hash="cfg")
        assert not report.outcomes[0].cached

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        policy, _ = no_sleep_policy(retry=RetryPolicy(max_retries=0))
        run_analyses(StubPipeline(), analyses=["typed_failure"], jobs=2,
                     policy=policy, cache=cache,
                     corpus_digest="c0ffee", config_hash="cfg")
        report = run_analyses(StubPipeline(), analyses=["typed_failure"],
                              jobs=2, policy=policy, cache=cache,
                              corpus_digest="c0ffee", config_hash="cfg")
        assert not report.outcomes[0].cached  # recomputed, not served


class TestWarmUpOnlyWhenQueued:
    """Resolving every analysis from the cache, pooled or supervised,
    must not compute the shared intermediates the forked workers would
    need."""

    INTERMEDIATES = SHARED_INTERMEDIATES

    @pytest.fixture
    def fresh_pipeline(self, tiny_result):
        from repro import AnalysisPipeline

        return AnalysisPipeline(tiny_result.control, tiny_result.data,
                                peer_asns=tiny_result.ixp.member_asns,
                                peeringdb=tiny_result.ixp.peeringdb,
                                host_min_days=8)

    def warmed(self, pipeline):
        return [name for name in self.INTERMEDIATES
                if name in vars(pipeline)]

    def test_all_cached_run_computes_no_intermediate(self, tmp_path,
                                                     fresh_pipeline):
        from repro.core.pipeline import ANALYSIS_NAMES
        from repro.core.study import AnalysisOutcome

        cache = ResultCache(tmp_path / "cache")
        for name in ANALYSIS_NAMES:
            cache.put("c0ffee", "cfg", AnalysisOutcome(
                name=name, status=AnalysisStatus.OK, value_digest="ab"))
        report = run_analyses(fresh_pipeline, jobs=2, cache=cache,
                              corpus_digest="c0ffee", config_hash="cfg")
        assert all(o.cached for o in report.outcomes)
        assert len(report.outcomes) == len(ANALYSIS_NAMES)
        assert self.warmed(fresh_pipeline) == []

    def test_all_journaled_supervised_run_computes_no_intermediate(
            self, tmp_path, fresh_pipeline):
        from repro.core.pipeline import ANALYSIS_NAMES
        from repro.core.study import AnalysisOutcome

        cache = ResultCache(tmp_path / "cache")
        for name in ANALYSIS_NAMES:
            cache.put("c0ffee", "cfg", AnalysisOutcome(
                name=name, status=AnalysisStatus.OK, value_digest="ab"))
        report = run_analyses(fresh_pipeline, policy=SupervisorPolicy(),
                              cache=cache, corpus_digest="c0ffee",
                              config_hash="cfg")
        assert [o.status for o in report.outcomes] == \
            [AnalysisStatus.OK] * len(ANALYSIS_NAMES)
        assert all(o.cached for o in report.outcomes)
        assert self.warmed(fresh_pipeline) == []

    def test_one_uncached_analysis_still_warms(self, tmp_path,
                                               fresh_pipeline):
        cache = ResultCache(tmp_path / "cache")
        report = run_analyses(fresh_pipeline, analyses=["fig3_load"],
                              jobs=2, cache=cache, corpus_digest="c0ffee",
                              config_hash="cfg")
        assert report.outcomes[0].status is AnalysisStatus.OK
        assert self.warmed(fresh_pipeline) == list(self.INTERMEDIATES)


class TestScheduleOrder:
    def test_is_a_permutation_and_deterministic(self):
        from repro.core.pipeline import ANALYSIS_NAMES

        order = schedule_order(ANALYSIS_NAMES)
        assert sorted(order) == sorted(ANALYSIS_NAMES)
        assert order == schedule_order(ANALYSIS_NAMES)

    def test_fig8_after_fig7_builds_the_source_table_once(
            self, tiny_result, monkeypatch):
        # no analysis recomputes another: Fig 8 and Fig 7 cut one
        # shared per-AS table, whichever runs first
        from repro import AnalysisPipeline
        from repro.core import droprate

        built = []
        real = droprate.source_table
        monkeypatch.setattr(droprate, "source_table",
                            lambda *a, **k: built.append(1) or real(*a, **k))
        pipeline = AnalysisPipeline(tiny_result.control, tiny_result.data,
                                    peer_asns=tiny_result.ixp.member_asns,
                                    peeringdb=tiny_result.ixp.peeringdb)
        org_types = pipeline.run("fig8_org_types")
        top = pipeline.run("fig7_top_sources")
        assert len(built) == 1
        assert sum(org_types.values()) == len(top)
