"""repro.runtime — the crash-safe execution layer.

Four pieces make long ``generate``/``analyze`` jobs survivable:

* :mod:`repro.runtime.atomic` — temp-file + fsync + rename writes, so no
  artifact is ever observed half-written;
* :mod:`repro.runtime.checkpoint` — the append-only, fsynced journal of
  committed steps that ``--resume`` replays;
* :mod:`repro.runtime.generate` — day-segmented, checkpointed corpus
  generation (byte-identical after a mid-run kill + resume);
* :mod:`repro.runtime.supervisor` — the one analysis runner: inline for
  a plain ``jobs=1`` run, otherwise up to ``jobs`` forked children with
  wall-clock timeouts and bounded, jittered retries
  (:mod:`repro.runtime.retry`), so a hung or OOM-killed analysis becomes
  a ``failed`` StudyReport entry instead of a dead run; it stores each
  finished analysis in the result cache at once, so a killed run
  resumes when it is run again.

:mod:`repro.runtime.chaos` provides the environment-driven kill/hang
hooks the chaos tests (and the CI chaos job) drive.

Every public name is re-exported lazily (PEP 562), so low-level modules
(``repro.corpus.*``) can import :mod:`repro.runtime.atomic` without
loading the generator or the supervisor.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.runtime.atomic": ("atomic_write_bytes", "atomic_write_text",
                             "atomic_writer", "fsync_dir",
                             "remove_stale_tmp"),
    "repro.runtime.checkpoint": ("CheckpointJournal",),
    "repro.runtime.retry": ("RetryPolicy", "is_retryable_exception"),
    "repro.runtime.generate": ("GenerateReport", "JOURNAL_FILE",
                               "SEGMENT_DIR", "checkpointed_generate"),
    "repro.runtime.supervisor": ("SupervisorPolicy", "run_analyses"),
})

__all__ = [
    "CheckpointJournal",
    "GenerateReport",
    "JOURNAL_FILE",
    "RetryPolicy",
    "SEGMENT_DIR",
    "SupervisorPolicy",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "checkpointed_generate",
    "fsync_dir",
    "is_retryable_exception",
    "remove_stale_tmp",
    "run_analyses",
]

