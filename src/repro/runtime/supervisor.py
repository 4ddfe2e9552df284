"""The supervised analysis runner: child processes, timeouts, retries.

``AnalysisPipeline.run_all(supervisor=...)`` delegates here.  Each of the
study's analyses executes in a forked child process; the parent enforces a
wall-clock timeout, classifies failures (see :mod:`repro.runtime.retry`)
and re-runs transient ones with exponential backoff, and turns anything
terminal — a typed failure, a hung child killed at its timeout, an
OOM-killed child — into a ``failed`` :class:`AnalysisOutcome` instead of
letting it take down the remaining analyses.

Supervisor state machine, per analysis::

    pending ──► running ──► ok / degraded          (result received)
                   │
                   ├──► timeout ──► running (retry) … ──► failed
                   ├──► killed  ──► running (retry) … ──► failed
                   └──► failed                      (typed / bug: no retry)

Every terminal outcome is committed to the checkpoint journal (when one
is given), so ``repro analyze --resume`` re-runs only analyses that never
reached a terminal state.  Shared intermediates (events, pre-RTBH
classification, …) are warmed in the parent *before* forking so children
inherit them via copy-on-write instead of recomputing them 16 times —
and only when some analysis is left to run after the journal is read.

On platforms without ``fork`` the runner degrades to in-process execution:
retries still apply to retryable exceptions, but hang/OOM isolation (and
therefore timeouts) are unavailable.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.core.study import (
    AnalysisOutcome,
    AnalysisStatus,
    StudyReport,
    run_analysis,
)
from repro.errors import AnalysisError
from repro.runtime import chaos
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.retry import RetryPolicy, is_retryable_exception

#: journal key prefix for per-analysis terminal outcomes
ANALYSIS_KEY = "analysis:"


@dataclass
class SupervisorPolicy:
    """How the supervisor babysits each analysis.

    ``timeout`` is the per-attempt wall-clock limit in seconds (None =
    unlimited); ``retry`` bounds and paces re-executions of transient
    failures; ``seed`` makes the backoff jitter deterministic; ``sleep``
    is injectable so tests assert the schedule without waiting it out.
    """

    timeout: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep


@dataclass
class _Attempt:
    """What one child-process execution produced."""

    event: str                       # "outcome" | "timeout" | "killed" | "raised" | "crashed"
    outcome: Optional[AnalysisOutcome] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    retryable: bool = False
    seconds: float = 0.0


def _child_main(conn, name: str, fn, degraded: bool,
                fingerprint: bool = False, inherited=()) -> None:
    # A forked child holds copies of every pipe read end the parent had
    # open: its own and those of its running siblings.  Close them, so
    # once the parent dies no reader is left and a send blocked on a
    # full pipe fails with EPIPE instead of outliving the parent.
    for other in inherited:
        other.close()
    hang = chaos.injected_hang(name)
    if hang:
        time.sleep(hang)
    try:
        outcome = run_analysis(name, fn, strict=False,
                               degraded_inputs=degraded,
                               fingerprint=fingerprint)
    except BaseException as exc:  # untyped: a bug or an OS-level failure
        try:
            conn.send({"kind": "raised", "error": str(exc),
                       "error_type": type(exc).__name__,
                       "retryable": is_retryable_exception(exc)})
        except OSError:
            pass  # the parent is gone; nobody is left to report to
        return
    try:
        conn.send({"kind": "outcome", "outcome": outcome})
    except OSError:
        return  # the parent is gone; nobody is left to report to
    except Exception:
        # the analysis value would not pickle across the pipe; keep the
        # status/timing (and the fingerprint, computed before the send)
        # and drop the value rather than failing the run
        conn.send({"kind": "outcome", "outcome": AnalysisOutcome(
            name=outcome.name, status=outcome.status, value=None,
            error=outcome.error, error_type=outcome.error_type,
            seconds=outcome.seconds, value_digest=outcome.value_digest)})


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _run_attempt(name: str, fn, degraded: bool,
                 timeout: Optional[float]) -> _Attempt:
    """Execute one attempt in a forked child; classify how it ended."""
    ctx = _fork_context()
    if ctx is None:  # pragma: no cover - non-POSIX fallback
        return _run_attempt_inline(name, fn, degraded)
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main,
                       args=(child_conn, name, fn, degraded, True,
                             (parent_conn,)),
                       daemon=True)
    start = perf_counter()
    proc.start()
    child_conn.close()
    # Drain the pipe *before* joining: a large result blocks the child's
    # send until the parent reads it, so join-then-recv would deadlock.
    # ``poll`` doubles as the wall-clock timeout; it also wakes on EOF
    # when the child dies without sending (recv then raises).
    msg = None
    timed_out = False
    try:
        if parent_conn.poll(timeout):
            msg = parent_conn.recv()
        else:
            timed_out = True
    except (EOFError, OSError):
        msg = None  # the child died mid-send; classify by exitcode below
    if timed_out and proc.is_alive():
        proc.kill()
        proc.join()
        parent_conn.close()
        return _Attempt(event="timeout", retryable=True,
                        error=f"timed out after {timeout:g}s and was killed",
                        error_type="AnalysisTimeout",
                        seconds=perf_counter() - start)
    proc.join()
    parent_conn.close()
    seconds = perf_counter() - start
    if msg is None:
        exitcode = proc.exitcode or 0
        if exitcode < 0:
            return _Attempt(event="killed", retryable=True,
                            error=f"child killed by signal {-exitcode}",
                            error_type="ChildKilled", seconds=seconds)
        return _Attempt(event="crashed", retryable=False,
                        error=f"child exited with code {exitcode} "
                              "without reporting a result",
                        error_type="ChildCrashed", seconds=seconds)
    if msg["kind"] == "raised":
        return _Attempt(event="raised", error=msg["error"],
                        error_type=msg["error_type"],
                        retryable=msg["retryable"], seconds=seconds)
    return _Attempt(event="outcome", outcome=msg["outcome"], seconds=seconds)


def _run_attempt_inline(name: str, fn, degraded: bool) -> _Attempt:
    """Fallback without process isolation (no fork): retries only."""
    start = perf_counter()
    try:
        outcome = run_analysis(name, fn, strict=False,
                               degraded_inputs=degraded, fingerprint=True)
    except BaseException as exc:
        return _Attempt(event="raised", error=str(exc),
                        error_type=type(exc).__name__,
                        retryable=is_retryable_exception(exc),
                        seconds=perf_counter() - start)
    return _Attempt(event="outcome", outcome=outcome,
                    seconds=perf_counter() - start)


def _outcome_from_entry(entry: dict) -> AnalysisOutcome:
    """Reconstruct a journaled terminal outcome (values are not persisted)."""
    return AnalysisOutcome(
        name=entry["name"], status=AnalysisStatus(entry["status"]),
        value=None, error=entry.get("error"),
        error_type=entry.get("error_type"),
        seconds=float(entry.get("seconds", 0.0)),
        attempts=int(entry.get("attempts", 1)),
        timeouts=int(entry.get("timeouts", 0)),
        value_digest=entry.get("value_digest"),
    )


def _analysis_fn(pipeline, name: str):
    """Resolve an analysis callable by registry name.

    Registry-aware pipelines expose ``analysis_fn``; duck-typed test
    doubles fall back to plain attribute access.
    """
    accessor = getattr(pipeline, "analysis_fn", None)
    if accessor is not None:
        return accessor(name)
    return getattr(pipeline, name)


def ingest_warnings(pipeline) -> list:
    """The per-corpus ingest-loss warnings a study report carries."""
    warnings = []
    for corpus_name in ("control", "data"):
        ingest = getattr(getattr(pipeline, corpus_name, None),
                         "ingest_report", None)
        if ingest is not None and not ingest.ok:
            warnings.append(
                f"{corpus_name} ingest dropped {ingest.skipped} of "
                f"{ingest.total} records")
    return warnings


def journal_outcome(journal: CheckpointJournal,
                    outcome: AnalysisOutcome) -> None:
    """Commit one terminal outcome under its analysis key."""
    journal.commit(ANALYSIS_KEY + outcome.name, name=outcome.name,
                   status=outcome.status.value, error=outcome.error,
                   error_type=outcome.error_type, seconds=outcome.seconds,
                   attempts=outcome.attempts, timeouts=outcome.timeouts,
                   value_digest=outcome.value_digest)


def warm_shared_caches(pipeline, telem) -> None:
    """Compute the pipeline's shared intermediates in the parent, so the
    forked children inherit them instead of each recomputing them.
    Called only when at least one analysis will actually run."""
    with telem.span("analyze.warm_caches"):
        warm = getattr(pipeline, "warm_shared_caches", None)
        if warm is not None:
            warm()


def run_supervised(
    pipeline,
    *,
    analyses: Optional[Sequence[str]] = None,
    policy: Optional[SupervisorPolicy] = None,
    strict: bool = False,
    journal: Optional[CheckpointJournal] = None,
) -> StudyReport:
    """Run the study's analyses under supervision; see the module docstring.

    ``pipeline`` is an :class:`~repro.core.pipeline.AnalysisPipeline`
    (anything exposing the analysis methods, ``degraded_inputs``, and the
    corpora works).  With ``strict=True`` the first ``failed`` terminal
    outcome raises :class:`~repro.errors.AnalysisError` — after being
    journaled, so a later ``--resume`` does not re-run it.
    """
    from repro.core.pipeline import ANALYSIS_NAMES

    policy = policy or SupervisorPolicy()
    names = list(analyses if analyses is not None else ANALYSIS_NAMES)
    telem = telemetry.current()
    rng = random.Random(policy.seed)
    report = StudyReport()
    degraded = pipeline.degraded_inputs
    report.warnings.extend(ingest_warnings(pipeline))

    resumed = {}
    if journal is not None:
        for name in names:
            entry = journal.committed(ANALYSIS_KEY + name)
            if entry is not None:
                resumed[name] = _outcome_from_entry(entry)
    if len(resumed) < len(names):
        warm_shared_caches(pipeline, telem)

    for name in names:
        if name in resumed:
            report.outcomes.append(resumed[name])
            telem.counter("supervisor.resumed").inc()
            continue
        outcome = _supervise_one(name, _analysis_fn(pipeline, name), degraded,
                                 policy, rng, telem)
        report.outcomes.append(outcome)
        telem.counter("pipeline.analyses", status=outcome.status.value).inc()
        telem.histogram("pipeline.analysis_seconds",
                        name=name).observe(outcome.seconds)
        if journal is not None:
            journal_outcome(journal, outcome)
        if strict and outcome.status is AnalysisStatus.FAILED:
            raise AnalysisError(
                f"{name} failed under supervision after {outcome.attempts} "
                f"attempt(s): {outcome.error_type}: {outcome.error}")
    if telem.enabled:
        report.telemetry = telem.metrics_snapshot()
    return report


def _supervise_one(name: str, fn, degraded: bool, policy: SupervisorPolicy,
                   rng: random.Random, telem) -> AnalysisOutcome:
    """Drive one analysis to a terminal outcome under the retry policy."""
    attempts = 0
    timeouts = 0
    last: Optional[_Attempt] = None
    while True:
        with telem.span(f"analyze.{name}", attempt=attempts) as sp:
            attempt = _run_attempt(name, fn, degraded, policy.timeout)
            sp.attrs["event"] = attempt.event
        attempts += 1
        last = attempt
        if attempt.event == "outcome":
            outcome = attempt.outcome
            outcome.attempts = attempts
            outcome.timeouts = timeouts
            return outcome
        if attempt.event == "timeout":
            timeouts += 1
            telem.counter("supervisor.timeouts", name=name).inc()
        elif attempt.event == "killed":
            telem.counter("supervisor.kills", name=name).inc()
        if not attempt.retryable or attempts > policy.retry.max_retries:
            break
        delay = policy.retry.delay(attempts - 1, rng)
        telem.counter("supervisor.retries", name=name).inc()
        policy.sleep(delay)
    return AnalysisOutcome(
        name=name, status=AnalysisStatus.FAILED,
        error=last.error, error_type=last.error_type,
        seconds=last.seconds, attempts=attempts, timeouts=timeouts)
