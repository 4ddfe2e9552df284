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
  a ``failed`` StudyReport entry instead of a dead run.

:mod:`repro.runtime.chaos` provides the environment-driven kill/hang
hooks the chaos tests (and the CI chaos job) drive.

The corpus-facing submodules (:mod:`~repro.runtime.generate`,
:mod:`~repro.runtime.supervisor`) are loaded lazily via PEP 562 so that
low-level modules (``repro.corpus.*``) can import
:mod:`repro.runtime.atomic` without creating an import cycle.
"""

from repro.runtime.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    fsync_dir,
    remove_stale_tmp,
)
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.retry import RetryPolicy, is_retryable_exception

#: names resolved lazily: attribute -> (module, attribute)
_LAZY = {
    "GenerateReport": ("repro.runtime.generate", "GenerateReport"),
    "JOURNAL_FILE": ("repro.runtime.generate", "JOURNAL_FILE"),
    "SEGMENT_DIR": ("repro.runtime.generate", "SEGMENT_DIR"),
    "checkpointed_generate": ("repro.runtime.generate",
                              "checkpointed_generate"),
    "SupervisorPolicy": ("repro.runtime.supervisor", "SupervisorPolicy"),
    "run_analyses": ("repro.runtime.supervisor", "run_analyses"),
}

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


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
