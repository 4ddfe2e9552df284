"""The analysis runner: one dispatch loop for every ``analyze`` mode.

``AnalysisPipeline.run_all`` is a single call to :func:`run_analyses`.
One rule decides how an attempt executes: **it is forked iff a
supervisor policy is given or ``jobs > 1``**.

* **Inline** (no policy and ``jobs == 1``, or no ``fork`` on this
  platform).  Each analysis runs in this process under the plain capture
  policy: a typed :class:`~repro.errors.ReproError` becomes a ``failed``
  outcome (or is re-raised as itself under ``strict``), anything else is
  a bug and propagates, and ``attempts`` is always 1.  Each analysis
  gets one ``analyze.<name>`` span; nothing is warmed up front, the
  analyses compute the shared intermediates as they need them.
* **Forked** (a policy, or ``jobs > 1``).  Up to ``jobs`` children are
  in flight at once, driven by one connection-wait loop in the parent.
  The parent enforces the policy's wall-clock timeout, classifies how
  each attempt ended (see :mod:`repro.runtime.retry`) and re-runs
  transient failures with exponential backoff; anything terminal — a
  typed failure, a hung child killed at its timeout, an OOM-killed
  child — becomes a ``failed`` outcome instead of taking down the rest.
  Shared intermediates (events, pre-RTBH classification, …) are warmed
  in the parent first, only when something is queued, so the children
  inherit them copy-on-write.  One ``analyze.parallel`` span (``jobs``,
  ``queued``, ``completed``) covers the loop.

Per forked analysis::

    pending ──► running ──► ok / degraded          (result received)
                   │
                   ├──► timeout ──► running (retry) … ──► failed
                   ├──► killed  ──► running (retry) … ──► failed
                   └──► failed                      (typed / bug: no retry)

Both modes share everything around the attempt:

* **Resolution first.**  Finished entries of the content-addressed
  result cache are served without running anything; failures are never
  cached, so they always run again.
* **Planes read once, before dispatch**, and an unreadable one fails
  the run; a run served whole by :func:`_served_whole` reads none.
* **Ordering.**  The rest is dispatched in :func:`schedule_order`: heavy
  analyses first (longest-processing-time first).  Outcomes are merged
  back into study order.
* **Determinism.**  Backoff jitter is seeded per analysis,
  ``f"{seed}:{name}"``, so a schedule never depends on completion order
  or on ``jobs``; values are fingerprinted before they cross a pipe.
* **Single writer.**  The parent stores each terminal outcome in the
  cache the moment it exists (:func:`_terminal`), so re-running a killed
  ``repro analyze`` command runs only the analyses that never finished.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro import telemetry
from repro.core.study import (
    AnalysisOutcome,
    AnalysisStatus,
    StudyReport,
    run_analysis,
)
from repro.errors import AnalysisError, SupervisorError
# every analysis fingerprints its value (``run_analysis``): loading the
# fingerprint module with the runner means no forked child imports it
import repro.parallel.golden  # noqa: F401
from repro.runtime import chaos
from repro.runtime.retry import RetryPolicy, is_retryable_exception

#: relative cost estimates (longest-processing-time-first dispatch): an
#: analysis's time over warmed intermediates at the paper default
#: (0.05 × 104 d), in units of 10 ms; anything absent weighs 1 — exact
#: values only shape the schedule, never the results
ANALYSIS_WEIGHTS = {
    "fig15_participation": 5,
    "fig4_targeted_visibility": 4,
    "fig18_collateral": 4,
    "fig2_time_offset": 3,
    "fig3_load": 3,
}


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


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise SupervisorError(f"jobs must be >= 0: {jobs}")
    return jobs


def schedule_order(names: Sequence[str]) -> List[str]:
    """The dispatch order: heavy first, study order as the
    deterministic tie-break."""
    index = {name: i for i, name in enumerate(names)}
    return sorted(names, key=lambda n: (-ANALYSIS_WEIGHTS.get(n, 1),
                                        index[n]))


def _child_main(conn, name: str, fn, degraded: bool, inherited=()) -> None:
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
                               degraded_inputs=degraded)
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


def warm_shared_caches(pipeline, telem) -> None:
    """Compute the pipeline's shared intermediates in the parent, so the
    forked children inherit them instead of each recomputing them.
    Called only when at least one analysis will actually run."""
    with telem.span("analyze.warm_caches"):
        warm = getattr(pipeline, "warm_shared_caches", None)
        if warm is not None:
            warm()


@dataclass
class _Task:
    """One analysis working its way to a terminal outcome."""

    name: str
    fn: object
    rng: random.Random
    attempts: int = 0
    timeouts: int = 0
    delay: float = 0.0
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
class _Run:
    """Mutable runner state shared by the dispatch helpers."""

    ctx: object  # fork context; None runs every attempt in process
    policy: SupervisorPolicy
    degraded: bool = False
    strict: bool = False
    cache: Optional[object] = None  # a repro.parallel.cache.ResultCache
    corpus_digest: Optional[str] = None
    config_hash: Optional[str] = None
    telem: object = None
    queue: List[_Task] = field(default_factory=list)
    waiting: List[_Task] = field(default_factory=list)
    running: Dict[object, _Task] = field(default_factory=dict)
    outcomes: Dict[str, AnalysisOutcome] = field(default_factory=dict)
    stop_dispatch: bool = False


def run_analyses(
    pipeline,
    *,
    analyses: Optional[Sequence[str]] = None,
    jobs: Optional[int] = 1,
    policy: Optional[SupervisorPolicy] = None,
    strict: bool = False,
    cache=None,
    corpus_digest: Optional[str] = None,
    config_hash: Optional[str] = None,
) -> StudyReport:
    """Run the study's analyses; see the module docstring.

    ``pipeline`` is an :class:`~repro.core.pipeline.AnalysisPipeline`
    (anything exposing the analysis methods, ``degraded_inputs``, and the
    corpora works).  ``jobs`` of ``None``/``0`` means all CPUs.
    ``cache`` (a :class:`~repro.parallel.cache.ResultCache`, used only
    together with ``corpus_digest``) serves finished ``(corpus_digest,
    config_hash, name)`` entries and stores fresh ok/degraded outcomes
    back.  The digest must prove the planes match the manifest: a run
    served whole from ``ok`` hits reads neither plane.

    With ``strict=True`` an inline run re-raises the first typed error
    as itself.  A forked run stops dispatching at the first failed
    terminal outcome, lets the in-flight children finish (and be
    cached), then raises :class:`~repro.errors.AnalysisError` for the
    failed analysis earliest in study order.
    """
    from repro.core.pipeline import ANALYSIS_NAMES

    jobs = resolve_jobs(jobs)
    names = list(analyses if analyses is not None else ANALYSIS_NAMES)
    ctx = _fork_context() if policy is not None or jobs > 1 else None
    policy = policy or SupervisorPolicy()
    telem = telemetry.current()
    run = _Run(ctx=ctx, policy=policy, strict=strict,
               cache=cache if corpus_digest is not None else None,
               corpus_digest=corpus_digest, config_hash=config_hash,
               telem=telem)
    for name in schedule_order(names):
        # resolution first: a finished outcome the cache serves
        outcome = (None if run.cache is None
                   else run.cache.get(corpus_digest, config_hash, name))
        if outcome is not None:
            run.outcomes[name] = outcome
            continue
        run.queue.append(_Task(
            name=name, fn=_analysis_fn(pipeline, name),
            rng=random.Random(f"{policy.seed}:{name}")))

    warnings = []
    if not _served_whole(run):
        run.degraded = pipeline.degraded_inputs  # reads both planes
        warnings = ingest_warnings(pipeline)

    if ctx is None:
        _drive(run, jobs)
    else:
        if run.queue:
            warm_shared_caches(pipeline, telem)
        with telem.span("analyze.parallel", jobs=jobs,
                        queued=len(run.queue)) as sp:
            _drive(run, jobs)
            sp.attrs["completed"] = len(run.outcomes)

    report = StudyReport(warnings=warnings)
    # a strict stop drops analyses before they run: they have no outcome
    report.outcomes = [run.outcomes[name] for name in names
                       if name in run.outcomes]
    if telem.enabled:
        report.telemetry = telem.metrics_snapshot()
    failed = report.failed()
    if strict and failed:
        raise AnalysisError(
            f"{failed[0].name} failed under supervision after "
            f"{failed[0].attempts} attempt(s): "
            f"{failed[0].error_type}: {failed[0].error}")
    return report


def _served_whole(run: _Run) -> bool:
    """Whether every outcome is an ``ok`` cache hit: under a digest that
    proves the planes match the manifest, proof that ingest would lose
    nothing."""
    return not run.queue and all(o.cached and o.status is AnalysisStatus.OK
                                 for o in run.outcomes.values())


def _drive(run: _Run, jobs: int) -> None:
    """The dispatch loop: fill slots, wait for events, classify attempts."""
    while run.queue or run.waiting or run.running:
        if run.stop_dispatch:
            # strict stop: drop everything not yet terminal.  Dropped
            # analyses are never cached, so a re-run runs them.
            run.queue.clear()
            run.waiting.clear()
            if not run.running:
                break
        now = monotonic()
        due = [t for t in run.waiting if t.retry_at <= now]
        for task in due:
            run.waiting.remove(task)
            run.queue.insert(0, task)  # retries go to the head
        while run.queue and len(run.running) < jobs \
                and not run.stop_dispatch:
            task = run.queue.pop(0)
            if run.ctx is None:
                _run_inline(run, task)
            else:
                _start(run, task)
        if run.running:
            _await_events(run)
        elif run.waiting:
            # nothing in flight: serve the earliest backoff through the
            # injectable policy.sleep (tests see the exact schedule and
            # never wait), then force that task due
            task = min(run.waiting, key=lambda t: t.retry_at)
            run.policy.sleep(task.delay)
            task.retry_at = 0.0


def _run_inline(run: _Run, task: _Task) -> None:
    with run.telem.span(f"analyze.{task.name}") as sp:
        outcome = run_analysis(task.name, task.fn, strict=run.strict,
                               degraded_inputs=run.degraded)
        sp.attrs["status"] = outcome.status.value
    _terminal(run, task, outcome)


def _start(run: _Run, task: _Task) -> None:
    parent_conn, child_conn = run.ctx.Pipe(duplex=False)
    proc = run.ctx.Process(
        target=_child_main,
        args=(child_conn, task.name, task.fn, run.degraded,
              (parent_conn, *run.running)),
        daemon=True)
    task.started = perf_counter()
    proc.start()
    child_conn.close()
    task.proc = proc
    task.conn = parent_conn
    task.deadline = (None if run.policy.timeout is None
                     else monotonic() + run.policy.timeout)
    run.running[parent_conn] = task
    run.telem.counter("parallel.dispatched", name=task.name).inc()
    run.telem.gauge("parallel.workers").set(len(run.running))


def _await_events(run: _Run) -> None:
    """Block until a child reports, dies, or a deadline/backoff expires."""
    now = monotonic()
    horizons = [t.deadline - now for t in run.running.values()
                if t.deadline is not None]
    horizons += [t.retry_at - now for t in run.waiting]
    timeout = max(0.0, min(horizons)) if horizons else None
    # Drain a ready pipe *before* joining its child: a large result
    # blocks the child's send until the parent reads it.
    for conn in _wait_connections(list(run.running), timeout):
        task = run.running.pop(conn)
        run.telem.gauge("parallel.workers").set(len(run.running))
        _attempt_done(run, task, _read_attempt(task))
    now = monotonic()
    expired = [t for t in run.running.values()
               if t.deadline is not None and now >= t.deadline]
    for task in expired:
        run.running.pop(task.conn)
        run.telem.gauge("parallel.workers").set(len(run.running))
        _attempt_done(run, task, _kill_timed_out(run, task))


def _read_attempt(task: _Task) -> dict:
    """Classify how a readable (or EOF'd) child ended."""
    try:
        msg = task.conn.recv()
    except (EOFError, OSError):
        msg = None  # the child died mid-send; classify by exitcode
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


def _kill_timed_out(run: _Run, task: _Task) -> dict:
    if task.proc.is_alive():
        task.proc.kill()
    task.proc.join()
    task.conn.close()
    return {"event": "timeout", "retryable": True,
            "error": f"timed out after {run.policy.timeout:g}s "
                     "and was killed",
            "error_type": "AnalysisTimeout",
            "seconds": perf_counter() - task.started}


def _attempt_done(run: _Run, task: _Task, attempt: dict) -> None:
    """The per-attempt state machine of a forked analysis."""
    telem = run.telem
    task.clear_child()
    task.attempts += 1
    if attempt["event"] == "outcome":
        outcome = attempt["outcome"]
        outcome.attempts = task.attempts
        outcome.timeouts = task.timeouts
        _terminal(run, task, outcome)
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
            or task.attempts > run.policy.retry.max_retries:
        _terminal(run, task, AnalysisOutcome(
            name=task.name, status=AnalysisStatus.FAILED,
            error=task.last_error, error_type=task.last_error_type,
            seconds=task.last_seconds, attempts=task.attempts,
            timeouts=task.timeouts))
        return
    task.delay = run.policy.retry.delay(task.attempts - 1, task.rng)
    telem.counter("supervisor.retries", name=task.name).inc()
    task.retry_at = monotonic() + task.delay
    run.waiting.append(task)


def _terminal(run: _Run, task: _Task, outcome: AnalysisOutcome) -> None:
    """Record a terminal outcome the moment it exists.

    The cache store happens here — not after the loop drains — so a
    killed run, re-run, finds every finished analysis already stored;
    the ``commit:analysis:<name>`` chaos point follows the store.  The
    parent is the only cache writer.
    """
    run.outcomes[task.name] = outcome
    run.telem.counter("pipeline.analyses",
                      status=outcome.status.value).inc()
    run.telem.histogram("pipeline.analysis_seconds",
                        name=outcome.name).observe(outcome.seconds)
    if run.cache is not None:
        run.cache.put(run.corpus_digest, run.config_hash, outcome)
    chaos.maybe_kill(f"commit:analysis:{task.name}")
    if run.strict and outcome.status is AnalysisStatus.FAILED:
        # stop dispatching new work; in-flight children drain and are
        # cached, then run_analyses raises for the earliest failure
        run.stop_dispatch = True
