"""The parallel analysis scheduler: a dependency-aware process pool.

``AnalysisPipeline.run_all(jobs=N)`` delegates here.  The scheduler
extends the PR 3 supervisor from one-child-at-a-time to a pool of up to
``jobs`` concurrent forked children while keeping every crash-safety
guarantee: per-attempt wall-clock timeouts, bounded retries with
deterministic backoff, journaled terminal outcomes for ``--resume``, and
typed-failure isolation.

Execution model::

    parent: ingest corpora once ──► warm shared intermediates ──► fork
                                                                   │
        ┌────────────┬─────────────┬────────────┐                  ▼
     worker 1     worker 2      worker 3     worker 4       (≤ jobs children)
     fig7 …       table4 …      fig2 …       fig5 …
        └────────────┴──────┬──────┴────────────┘
                            ▼
            deterministic merge into study order

* **Dependency-aware ordering.**  Analyses that share ingested corpora
  and intermediates (Δ-merged events, pre-RTBH classification, host
  study) run *after* a single shared warm-up in the parent, so children
  inherit those caches via copy-on-write instead of recomputing them 16
  times (and only when the journal and the cache leave something to
  run).  Analyses whose results other analyses recompute internally
  (``fig7_top_sources`` inside ``fig8_org_types``, ``sec54_protocol_mix``
  inside ``table3_amplification``) are scheduled first, and heavy
  analyses are dispatched before cheap ones (longest-processing-time
  first) to minimise the makespan.
* **Deterministic merging.**  Outcomes complete in any order but are
  merged into the canonical study order; retry backoff jitter is seeded
  per analysis name (not from a shared sequential RNG), so schedules do
  not depend on completion order.
* **Determinism.**  A ``--jobs N`` run produces byte-identical analysis
  values to the serial reference path — the golden-equivalence suite
  holds fingerprints (:mod:`repro.parallel.golden`) from both paths
  equal, and workers always fingerprint their values before the pickle
  pipe so equivalence stays checkable.
* **Caching.**  With a :class:`~repro.parallel.cache.ResultCache`,
  analyses whose (corpus digest, config hash, name) key already has a
  finished entry are served from cache and never dispatched.

On platforms without ``fork`` the scheduler degrades to the serial
supervised runner.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.core.study import AnalysisOutcome, AnalysisStatus, StudyReport
from repro.errors import AnalysisError, SupervisorError
from repro.parallel.cache import ResultCache
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.supervisor import (
    ANALYSIS_KEY,
    SupervisorPolicy,
    _analysis_fn,
    _child_main,
    _fork_context,
    _outcome_from_entry,
    ingest_warnings,
    journal_outcome,
    run_supervised,
    warm_shared_caches,
)

#: relative cost estimates (longest-processing-time-first dispatch);
#: anything absent weighs 1 — exact values only shape the schedule,
#: never the results
ANALYSIS_WEIGHTS = {
    "fig2_time_offset": 6,
    "fig8_org_types": 5,      # recomputes fig7's source scan internally
    "fig7_top_sources": 5,
    "fig4_targeted_visibility": 4,
    "fig10_merge_sweep": 3,
    "fig5_drop_by_length": 3,
    "fig6_drop_cdfs": 3,
    "fig19_use_cases": 2,
    "fig14_filterable": 2,
    "fig18_collateral": 2,
    "table3_amplification": 2,  # recomputes sec54's protocol mix
    "sec54_protocol_mix": 2,
}

#: analyses another analysis recomputes internally: the provider is
#: dispatched no later than its dependents so a shared intermediate is
#: never the last thing keeping a worker busy
ANALYSIS_PROVIDES = {
    "fig7_top_sources": ("fig8_org_types",),
    "sec54_protocol_mix": ("table3_amplification",),
}


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise SupervisorError(f"jobs must be >= 0: {jobs}")
    return jobs


def schedule_order(names: Sequence[str]) -> List[str]:
    """The dispatch order: heavy first, providers before dependents,
    study order as the deterministic tie-break."""
    index = {name: i for i, name in enumerate(names)}
    weight = {}
    for name in names:
        w = ANALYSIS_WEIGHTS.get(name, 1)
        for dependent in ANALYSIS_PROVIDES.get(name, ()):
            if dependent in index:
                w = max(w, ANALYSIS_WEIGHTS.get(dependent, 1) + 1)
        weight[name] = w
    return sorted(names, key=lambda n: (-weight[n], index[n]))


@dataclass
class _Task:
    """One analysis working its way to a terminal outcome."""

    name: str
    fn: object
    rng: random.Random
    attempts: int = 0
    timeouts: int = 0
    retry_at: float = 0.0
    proc: Optional[object] = None
    conn: Optional[object] = None
    started: float = 0.0
    deadline: Optional[float] = None
    last_error: Optional[str] = None
    last_error_type: Optional[str] = None
    last_seconds: float = 0.0

    def clear_child(self) -> None:
        self.proc = None
        self.conn = None
        self.deadline = None


@dataclass
class _Pool:
    """Mutable scheduler state shared by the dispatch helpers."""

    ctx: object
    policy: SupervisorPolicy
    degraded: bool
    fingerprint: bool
    strict: bool = False
    journal: Optional[CheckpointJournal] = None
    cache: Optional[ResultCache] = None
    corpus_digest: Optional[str] = None
    config_hash: Optional[str] = None
    telem: object = None
    queue: List[_Task] = field(default_factory=list)
    waiting: List[_Task] = field(default_factory=list)
    running: Dict[object, _Task] = field(default_factory=dict)
    outcomes: Dict[str, AnalysisOutcome] = field(default_factory=dict)
    stop_dispatch: bool = False


def run_parallel(
    pipeline,
    *,
    analyses: Optional[Sequence[str]] = None,
    policy: Optional[SupervisorPolicy] = None,
    jobs: Optional[int] = None,
    strict: bool = False,
    journal: Optional[CheckpointJournal] = None,
    cache: Optional[ResultCache] = None,
    corpus_digest: Optional[str] = None,
    config_hash: Optional[str] = None,
    fingerprint: bool = True,
) -> StudyReport:
    """Run the study's analyses on a pool of ``jobs`` forked workers.

    Semantics match :func:`repro.runtime.supervisor.run_supervised`
    exactly (same outcome classification, journal format, and strict
    behaviour) — only the execution is concurrent.  ``cache`` skips
    analyses whose ``(corpus_digest, config_hash, name)`` key holds a
    finished entry and stores fresh ok/degraded outcomes back.  With
    ``strict=True`` the first failed terminal outcome stops new
    dispatches, lets the in-flight children finish (and be journaled),
    then raises :class:`~repro.errors.AnalysisError` for the failed
    analysis earliest in study order.
    """
    from repro.core.pipeline import ANALYSIS_NAMES

    policy = policy or SupervisorPolicy()
    jobs = resolve_jobs(jobs)
    names = list(analyses if analyses is not None else ANALYSIS_NAMES)
    ctx = _fork_context()
    if ctx is None:  # pragma: no cover - non-POSIX platforms
        return run_supervised(pipeline, analyses=names, policy=policy,
                              strict=strict, journal=journal)

    telem = telemetry.current()
    report = StudyReport()
    report.warnings.extend(ingest_warnings(pipeline))
    degraded = pipeline.degraded_inputs

    use_cache = cache is not None and corpus_digest is not None
    pool = _Pool(ctx=ctx, policy=policy, degraded=degraded,
                 fingerprint=fingerprint, strict=strict, journal=journal,
                 cache=cache if use_cache else None,
                 corpus_digest=corpus_digest, config_hash=config_hash,
                 telem=telem)
    for name in schedule_order(names):
        outcome = _resolved_outcome(name, journal, pool.cache,
                                    corpus_digest, config_hash, telem)
        if outcome is not None:
            pool.outcomes[name] = outcome
            continue
        pool.queue.append(_Task(
            name=name, fn=_analysis_fn(pipeline, name),
            rng=random.Random(f"{policy.seed}:{name}")))
    if pool.queue:
        warm_shared_caches(pipeline, telem)

    with telem.span("analyze.parallel", jobs=jobs,
                    queued=len(pool.queue)) as sp:
        _drive(pool, jobs, telem)
        sp.attrs["completed"] = len(pool.outcomes)

    for name in names:
        outcome = pool.outcomes.get(name)
        if outcome is None:
            continue  # strict stop dropped it before it ran
        report.outcomes.append(outcome)
    if telem.enabled:
        report.telemetry = telem.metrics_snapshot()
    if strict:
        for name in names:
            outcome = pool.outcomes.get(name)
            if outcome is not None \
                    and outcome.status is AnalysisStatus.FAILED:
                raise AnalysisError(
                    f"{name} failed under supervision after "
                    f"{outcome.attempts} attempt(s): "
                    f"{outcome.error_type}: {outcome.error}")
    return report


def _resolved_outcome(name: str, journal: Optional[CheckpointJournal],
                      cache: Optional[ResultCache], corpus_digest,
                      config_hash, telem) -> Optional[AnalysisOutcome]:
    """A terminal outcome available without running anything: the journal
    first (authoritative for this run), then the content-addressed cache."""
    if journal is not None:
        entry = journal.committed(ANALYSIS_KEY + name)
        if entry is not None:
            outcome = _outcome_from_entry(entry)
            outcome._resumed = True
            telem.counter("supervisor.resumed").inc()
            return outcome
    if cache is not None:
        outcome = cache.get(corpus_digest, config_hash, name)
        if outcome is not None:
            return outcome
    return None


def _drive(pool: _Pool, jobs: int, telem) -> None:
    """The dispatch loop: fill slots, wait for events, classify attempts."""
    policy = pool.policy
    while pool.queue or pool.waiting or pool.running:
        if pool.stop_dispatch:
            # strict stop: drop everything not yet terminal.  Dropped
            # analyses are never journaled, so ``--resume`` re-runs
            # them — exactly what serial strict leaves behind when it
            # raises mid-study.
            pool.queue.clear()
            pool.waiting.clear()
            if not pool.running:
                break
        now = monotonic()
        due = [t for t in pool.waiting if t.retry_at <= now]
        for task in due:
            pool.waiting.remove(task)
            pool.queue.insert(0, task)  # retries go to the head
        while pool.queue and len(pool.running) < jobs \
                and not pool.stop_dispatch:
            _start(pool, pool.queue.pop(0), telem)
        if pool.running:
            _await_events(pool, telem)
        elif pool.waiting:
            # nothing in flight: sleep out the earliest backoff (the
            # injectable policy.sleep keeps tests instantaneous), then
            # force the task due — the wait has been served either way
            task = min(pool.waiting, key=lambda t: t.retry_at)
            policy.sleep(max(0.0, task.retry_at - monotonic()))
            task.retry_at = 0.0


def _start(pool: _Pool, task: _Task, telem) -> None:
    parent_conn, child_conn = pool.ctx.Pipe(duplex=False)
    proc = pool.ctx.Process(
        target=_child_main,
        args=(child_conn, task.name, task.fn, pool.degraded,
              pool.fingerprint, (parent_conn, *pool.running)),
        daemon=True)
    task.started = perf_counter()
    proc.start()
    child_conn.close()
    task.proc = proc
    task.conn = parent_conn
    task.deadline = (None if pool.policy.timeout is None
                     else monotonic() + pool.policy.timeout)
    pool.running[parent_conn] = task
    telem.counter("parallel.dispatched", name=task.name).inc()
    telem.gauge("parallel.workers").set(len(pool.running))


def _await_events(pool: _Pool, telem) -> None:
    """Block until a child reports, dies, or a deadline/backoff expires."""
    now = monotonic()
    horizons = [t.deadline - now for t in pool.running.values()
                if t.deadline is not None]
    horizons += [t.retry_at - now for t in pool.waiting]
    timeout = max(0.0, min(horizons)) if horizons else None
    ready = _wait_connections(list(pool.running), timeout)
    for conn in ready:
        task = pool.running.pop(conn)
        telem.gauge("parallel.workers").set(len(pool.running))
        _attempt_done(pool, task, _read_attempt(task), telem)
    now = monotonic()
    expired = [t for t in pool.running.values()
               if t.deadline is not None and now >= t.deadline]
    for task in expired:
        pool.running.pop(task.conn)
        telem.gauge("parallel.workers").set(len(pool.running))
        _attempt_done(pool, task, _kill_timed_out(pool, task), telem)


def _read_attempt(task: _Task) -> dict:
    """Classify a readable (or EOF'd) child exactly as the supervisor does."""
    try:
        msg = task.conn.recv()
    except (EOFError, OSError):
        msg = None
    task.proc.join()
    task.conn.close()
    seconds = perf_counter() - task.started
    if msg is None:
        exitcode = task.proc.exitcode or 0
        if exitcode < 0:
            return {"event": "killed", "retryable": True,
                    "error": f"child killed by signal {-exitcode}",
                    "error_type": "ChildKilled", "seconds": seconds}
        return {"event": "crashed", "retryable": False,
                "error": f"child exited with code {exitcode} "
                         "without reporting a result",
                "error_type": "ChildCrashed", "seconds": seconds}
    if msg["kind"] == "raised":
        return {"event": "raised", "error": msg["error"],
                "error_type": msg["error_type"],
                "retryable": msg["retryable"], "seconds": seconds}
    return {"event": "outcome", "outcome": msg["outcome"],
            "seconds": seconds}


def _kill_timed_out(pool: _Pool, task: _Task) -> dict:
    if task.proc.is_alive():
        task.proc.kill()
    task.proc.join()
    task.conn.close()
    return {"event": "timeout", "retryable": True,
            "error": f"timed out after {pool.policy.timeout:g}s "
                     "and was killed",
            "error_type": "AnalysisTimeout",
            "seconds": perf_counter() - task.started}


def _attempt_done(pool: _Pool, task: _Task, attempt: dict, telem) -> None:
    """Mirror the serial supervisor's per-attempt state machine."""
    task.clear_child()
    task.attempts += 1
    if attempt["event"] == "outcome":
        outcome = attempt["outcome"]
        outcome.attempts = task.attempts
        outcome.timeouts = task.timeouts
        _terminal(pool, task, outcome)
        return
    if attempt["event"] == "timeout":
        task.timeouts += 1
        telem.counter("supervisor.timeouts", name=task.name).inc()
    elif attempt["event"] == "killed":
        telem.counter("supervisor.kills", name=task.name).inc()
    task.last_error = attempt["error"]
    task.last_error_type = attempt["error_type"]
    task.last_seconds = attempt["seconds"]
    if not attempt["retryable"] \
            or task.attempts > pool.policy.retry.max_retries:
        _terminal(pool, task, AnalysisOutcome(
            name=task.name, status=AnalysisStatus.FAILED,
            error=task.last_error, error_type=task.last_error_type,
            seconds=task.last_seconds, attempts=task.attempts,
            timeouts=task.timeouts))
        return
    delay = pool.policy.retry.delay(task.attempts - 1, task.rng)
    telem.counter("supervisor.retries", name=task.name).inc()
    task.retry_at = monotonic() + delay
    pool.waiting.append(task)


def _terminal(pool: _Pool, task: _Task, outcome: AnalysisOutcome) -> None:
    """Record a terminal outcome the moment it exists.

    Journal commits and cache stores happen here — not after the pool
    drains — so a run killed mid-flight resumes with every finished
    analysis already committed, exactly like the serial supervisor.
    The parent is the only journal/cache writer.
    """
    pool.outcomes[task.name] = outcome
    pool.telem.counter("pipeline.analyses",
                       status=outcome.status.value).inc()
    pool.telem.histogram("pipeline.analysis_seconds",
                         name=outcome.name).observe(outcome.seconds)
    if pool.journal is not None:
        journal_outcome(pool.journal, outcome)
    if pool.cache is not None:
        pool.cache.put(pool.corpus_digest, pool.config_hash, outcome)
    if pool.strict and outcome.status is AnalysisStatus.FAILED:
        # stop dispatching new work; in-flight children drain and are
        # journaled, then run_parallel raises for the earliest failure
        pool.stop_dispatch = True
