"""Tests for the analysis runner against a stub pipeline: supervised
``jobs=1`` runs (process isolation, timeout kills, retry budgets,
resume from the result cache, the telemetry counters the CLI surfaces)
and the inline reference path."""

import os
from dataclasses import dataclass, field

import pytest

from repro import telemetry
from repro.core.study import AnalysisStatus
from repro.errors import AnalysisError
from repro.parallel.cache import ResultCache
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import SupervisorPolicy, run_analyses
from tests.runner_helpers import StubPipeline, no_sleep_policy


class TestTerminalOutcomes:
    def test_ok_value_crosses_the_pipe(self):
        report = run_analyses(StubPipeline(), analyses=["ok_fast"],
                              policy=SupervisorPolicy())
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.OK
        assert outcome.value == {"answer": 42}
        assert outcome.attempts == 1 and outcome.timeouts == 0

    def test_large_value_does_not_deadlock_the_pipe(self):
        policy, _ = no_sleep_policy(timeout=30.0)
        report = run_analyses(StubPipeline(), analyses=["big_value"],
                              policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.OK
        assert len(outcome.value) == 200_000

    def test_typed_failure_is_terminal_without_retry(self):
        policy, slept = no_sleep_policy()
        report = run_analyses(StubPipeline(), analyses=["typed_failure"],
                              policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "AnalysisError"
        assert outcome.attempts == 1
        assert slept == []  # deterministic data problem: never retried

    def test_untyped_bug_is_terminal_without_retry(self):
        policy, slept = no_sleep_policy()
        report = run_analyses(StubPipeline(), analyses=["buggy"],
                              policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "RuntimeError"
        assert outcome.attempts == 1 and slept == []

    def test_degraded_inputs_propagate(self):
        pipeline = StubPipeline()
        pipeline.degraded_inputs = True
        report = run_analyses(pipeline, analyses=["ok_fast"],
                              policy=SupervisorPolicy())
        assert report.outcomes[0].status is AnalysisStatus.DEGRADED


class TestRetries:
    def test_transient_failure_exhausts_retry_budget(self):
        policy, slept = no_sleep_policy(retry=RetryPolicy(max_retries=2),
                                        seed=5)
        report = run_analyses(StubPipeline(), analyses=["transient"],
                              policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "OSError"
        assert outcome.attempts == 3  # initial + max_retries

    def test_backoff_schedule_is_deterministic(self):
        policy, slept = no_sleep_policy(retry=RetryPolicy(max_retries=2),
                                        seed=5)
        run_analyses(StubPipeline(), analyses=["transient"], policy=policy)
        # jitter is seeded per analysis, f"{seed}:{name}"
        assert slept == \
            RetryPolicy(max_retries=2).schedule(seed="5:transient")

    def test_killed_child_is_retried_then_failed(self):
        policy, slept = no_sleep_policy(retry=RetryPolicy(max_retries=1))
        report = run_analyses(StubPipeline(), analyses=["dies"],
                              policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "ChildKilled"
        assert outcome.attempts == 2
        assert len(slept) == 1


class TestTimeouts:
    def test_hung_analysis_killed_retried_and_failed(self):
        policy, slept = no_sleep_policy(timeout=0.3,
                                        retry=RetryPolicy(max_retries=1))
        telem = telemetry.Telemetry()
        with telemetry.activate(telem):
            report = run_analyses(StubPipeline(), analyses=["hangs"],
                                  policy=policy)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "AnalysisTimeout"
        assert "timed out after 0.3s" in outcome.error
        assert outcome.attempts == 2 and outcome.timeouts == 2
        counters = report.telemetry["counters"]
        assert counters["supervisor.timeouts{name=hangs}"] == 2
        assert counters["supervisor.retries{name=hangs}"] == 1

    def test_hung_analysis_does_not_take_down_the_rest(self):
        policy, _ = no_sleep_policy(timeout=0.3,
                                    retry=RetryPolicy(max_retries=0))
        report = run_analyses(
            StubPipeline(), analyses=["ok_fast", "hangs", "typed_failure"],
            policy=policy)
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["ok_fast"].status is AnalysisStatus.OK
        assert by_name["hangs"].status is AnalysisStatus.FAILED
        assert by_name["typed_failure"].status is AnalysisStatus.FAILED
        assert not report.ok


class TestJournal:
    """The result cache is the one store of finished analyses: a
    supervised run stores each terminal outcome as it finishes, and a
    re-run is served what was stored."""

    def cache_keys(self, tmp_path):
        return dict(cache=ResultCache(tmp_path / "cache"),
                    corpus_digest="c0ffee", config_hash="cfg")

    def test_terminal_outcomes_are_committed(self, tmp_path):
        keys = self.cache_keys(tmp_path)
        policy, _ = no_sleep_policy()
        run_analyses(StubPipeline(), analyses=["ok_fast", "typed_failure"],
                     policy=policy, **keys)
        cache = keys["cache"]
        ok = cache.get("c0ffee", "cfg", "ok_fast")
        assert ok.status is AnalysisStatus.OK and ok.attempts == 1
        # a failure is never stored: a re-run runs it again
        assert cache.get("c0ffee", "cfg", "typed_failure") is None
        assert cache_names(cache) == {"ok_fast"}

    def test_resume_skips_journaled_analyses(self, tmp_path):
        keys = self.cache_keys(tmp_path)
        run_analyses(StubPipeline(), analyses=["ok_fast"],
                     policy=SupervisorPolicy(), **keys)
        # a second run must reuse the stored outcome, not re-execute:
        # ``dies`` under the resumed name would SIGKILL the child
        pipeline = StubPipeline()
        pipeline.ok_fast = pipeline.dies
        report = run_analyses(pipeline, analyses=["ok_fast"],
                              policy=SupervisorPolicy(), **keys)
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.OK and outcome.cached
        assert outcome.value is None  # values are not persisted

    def test_strict_failure_raises_after_journaling(self, tmp_path):
        keys = self.cache_keys(tmp_path)
        policy, _ = no_sleep_policy()
        with pytest.raises(AnalysisError, match="typed_failure failed"):
            run_analyses(StubPipeline(),
                         analyses=["ok_fast", "typed_failure"],
                         policy=policy, strict=True, **keys)
        # the analysis that finished before the failure is stored
        assert cache_names(keys["cache"]) == {"ok_fast"}


def cache_names(cache):
    return {entry["name"] for _, entry in cache.entries()}


@dataclass(frozen=True)
class RecordingRetry(RetryPolicy):
    """A retry policy that records every backoff it draws, grouped by
    the RNG the runner handed it."""

    drawn: dict = field(default_factory=dict, compare=False)

    def delay(self, attempt, rng):
        value = super().delay(attempt, rng)
        self.drawn.setdefault(id(rng), []).append(value)
        return value


class TestPerAnalysisBackoff:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_analysis_draws_its_own_schedule(self, jobs):
        retry = RecordingRetry(max_retries=2, backoff_base=0.01)
        policy, _ = no_sleep_policy(retry=retry, seed=5)
        report = run_analyses(StubPipeline(), analyses=["transient", "flaky"],
                              jobs=jobs, policy=policy)
        assert [o.attempts for o in report.outcomes] == [3, 3]
        plain = RetryPolicy(max_retries=2, backoff_base=0.01)
        expected = [plain.schedule(seed=f"5:{name}")
                    for name in ("transient", "flaky")]
        assert sorted(retry.drawn.values()) == sorted(expected)


class TestInline:
    """No policy and ``jobs=1``: analyses run in this process."""

    def test_runs_in_process_with_one_span_each(self):
        telem = telemetry.Telemetry()
        with telemetry.activate(telem):
            report = run_analyses(StubPipeline(),
                                  analyses=["in_process", "ok_fast"])
        assert report.outcomes[0].value == os.getpid()
        assert all(o.attempts == 1 and o.value_digest
                   for o in report.outcomes)
        names = [r["name"] for r in telem.tracer.records]
        assert names.count("analyze.in_process") == 1
        assert names.count("analyze.ok_fast") == 1
        assert "analyze.parallel" not in names
        assert "analyze.warm_caches" not in names

    def test_typed_failure_is_captured(self):
        report = run_analyses(StubPipeline(), analyses=["typed_failure"])
        (outcome,) = report.outcomes
        assert outcome.status is AnalysisStatus.FAILED
        assert outcome.error_type == "AnalysisError"

    def test_strict_reraises_the_original_typed_error(self):
        with pytest.raises(AnalysisError, match="^insufficient data$"):
            run_analyses(StubPipeline(), analyses=["typed_failure"],
                         strict=True)

    def test_untyped_bug_propagates(self):
        with pytest.raises(RuntimeError, match="a programming error"):
            run_analyses(StubPipeline(), analyses=["buggy"])

    def test_cache_serves_and_stores_in_process(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = dict(cache=cache, corpus_digest="c0ffee", config_hash="cfg")
        first = run_analyses(StubPipeline(), analyses=["in_process"], **keys)
        (outcome,) = first.outcomes
        assert outcome.value == os.getpid() and not outcome.cached
        pipeline = StubPipeline()
        pipeline.in_process = pipeline.buggy  # a re-run would raise here
        second = run_analyses(pipeline, analyses=["in_process"], **keys)
        (hit,) = second.outcomes
        assert hit.cached and hit.value_digest == outcome.value_digest

    def test_run_all_journals_without_a_supervisor(self, tmp_path,
                                                   tiny_pipeline):
        cache = ResultCache(tmp_path / "cache")
        report = tiny_pipeline.run_all(strict=False, analyses=["fig3_load"],
                                       cache=cache, corpus_digest="c0ffee",
                                       config_hash="cfg")
        hit = cache.get("c0ffee", "cfg", "fig3_load")
        assert hit is not None and hit.status is AnalysisStatus.OK
        assert hit.value_digest == report.outcomes[0].value_digest
