"""The repair engine: heal scrubbed damage from redundancy.

Every repair is **idempotent** (running it twice equals running it once)
and **journaled** (committed to ``.doctor.checkpoint.jsonl`` — the same
fsynced append-only journal the rest of the runtime uses — so a repair
pass SIGKILLed half-way leaves an audit trail and the next pass simply
re-scrubs and finishes the remainder).  Repairs draw on the redundancy
the state plane already carries:

===========================  ==============================================
damage                       repair source
===========================  ==============================================
journal torn tail            truncate at the last valid entry (the byte
                             offset the scrub recorded)
doctor journal bad header    discard (the doctor rebuilds it on demand)
synthetic segment/file loss  ``generate --resume`` — the scenario is
                             deterministic in (scale, days, seed), which
                             ``platform.json`` records and the journal
                             header's config hash cross-checks
tap segment loss             re-slice the finalized corpus files using the
                             per-segment byte counts in the journal; when
                             the slice no longer checksums, truncate the
                             commit log at the damaged day instead
manifest garbled             rebuild from disk, cross-checked against the
                             finalize entry's file checksums
stream checkpoint            replay the commit log with the checkpoint's
                             own stored config; garbled → discard (derived)
cache entry drift            evict (entries are memoization, never truth)
obs snapshot / events        discard / trim (operator forensics)
tap offset beyond source     rewind to zero
===========================  ==============================================

What has no redundancy left is **quarantined** into
``.doctor.quarantine/``, never silently deleted.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    verify_file,
    write_manifest,
)
from repro.corpus.platform import read_platform_meta
from repro.errors import DoctorError, ReproError
from repro.doctor.report import (
    Damage,
    DamageReport,
    RepairAction,
    RepairReport,
)
from repro.doctor.scrub import (
    DOCTOR_JOURNAL_FILE,
    DOCTOR_QUARANTINE_DIR,
    generation_params,
    scrub_corpus,
)
from repro.runtime.atomic import atomic_write_text, atomic_writer, fsync_dir
from repro.runtime.checkpoint import (
    CheckpointJournal,
    JournalScan,
    scan_journal_file,
)
from repro.runtime.generate import (
    FINALIZE_KEY,
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    _segment_name,
    committed_days,
    finalize,
    segment_entry,
)

#: execution order of repair plans — journals first (later repairs read
#: them), then content, then derived state
PLAN_ORDER = (
    "remove-tmp",
    "truncate-journal",
    "discard-journal",
    "rebuild-tap-journal",
    "repair-tap-segments",
    "regenerate",
    "refinalize",
    "rebuild-manifest",
    "rebuild-stream-checkpoint",
    "discard-stream-checkpoint",
    "evict-cache-entry",
    "reset-tap-offset",
    "discard-obs-snapshot",
    "trim-events",
    "quarantine",
)


def repair_corpus(corpus_dir: str | Path,
                  report: Optional[DamageReport] = None, *,
                  deep: bool = True,
                  cache_dir: str | Path | None = None) -> RepairReport:
    """Execute the repair plan for every damage in ``report``.

    With ``report=None`` a fresh scrub runs first.  Returns a
    :class:`RepairReport`; callers wanting proof of convergence re-scrub
    afterwards (the CLI does, attaching it as ``verified``).
    """
    corpus = Path(corpus_dir)
    if report is None:
        report = scrub_corpus(corpus, deep=deep, cache_dir=cache_dir)
    result = RepairReport(corpus_dir=str(corpus))
    if report.clean:
        return result
    telem = telemetry.current()
    with telem.span("doctor.repair", corpus=str(corpus),
                    damages=len(report.damages)):
        engine = _RepairEngine(corpus, report, result)
        engine.run()
    telem.counter("doctor.repairs",
                  outcome="ok" if result.ok else "failed").inc()
    return result


class _RepairEngine:
    """One repair pass over one damage report."""

    def __init__(self, corpus: Path, report: DamageReport,
                 result: RepairReport):
        self.corpus = corpus
        self.report = report
        self.result = result
        self.scan: JournalScan = scan_journal_file(corpus / JOURNAL_FILE)
        self._journal: Optional[CheckpointJournal] = None

    # -- orchestration -------------------------------------------------------

    def run(self) -> None:
        by_plan: Dict[str, List[Damage]] = {}
        for damage in self.report.damages:
            by_plan.setdefault(damage.plan, []).append(damage)
        # the doctor journal heals first, unjournaled — it is about to
        # be appended to
        for plan in ("truncate-journal", "discard-journal"):
            for damage in list(by_plan.get(plan, ())):
                if damage.artifact == DOCTOR_JOURNAL_FILE:
                    by_plan[plan].remove(damage)
                    self._execute(plan, damage, journal=False)
        if "regenerate" in by_plan:
            # regenerate re-runs finalize, which rewrites the corpus
            # files and the manifest — narrower plans become redundant
            for superseded in ("rebuild-manifest", "refinalize"):
                for damage in by_plan.pop(superseded, ()):
                    self._record(RepairAction(
                        plan=superseded, artifact=damage.artifact,
                        ok=True, detail="superseded by regenerate"),
                        journal=False)
        if "refinalize" in by_plan or "rebuild-tap-journal" in by_plan:
            # both plans end in a full refinalize, which writes a fresh
            # manifest anyway
            for damage in by_plan.pop("rebuild-manifest", ()):
                self._record(RepairAction(
                    plan="rebuild-manifest", artifact=damage.artifact,
                    ok=True, detail="superseded by refinalize"),
                    journal=False)
        for plan in PLAN_ORDER:
            damages = by_plan.pop(plan, ())
            if not damages:
                continue
            if plan == "regenerate":
                self._execute_regenerate(damages)
            elif plan == "repair-tap-segments":
                self._execute_tap_segments(damages)
            elif plan in ("refinalize", "rebuild-tap-journal"):
                # corpus-wide plans: execute once however many damages
                # named them
                self._execute(plan, damages[0])
            else:
                for damage in damages:
                    self._execute(plan, damage)
        for plan, damages in by_plan.items():  # pragma: no cover - guard
            for damage in damages:
                self._record(RepairAction(
                    plan=plan, artifact=damage.artifact, ok=False,
                    detail="no executor for this repair plan"))

    def _execute(self, plan: str, damage: Damage, *,
                 journal: bool = True) -> None:
        action = self._attempt(plan, damage.artifact,
                               lambda: self._dispatch(plan, damage),
                               journal=journal)
        if plan == "quarantine" and action.ok:
            self.result.unrecoverable.append(damage)

    def _attempt(self, plan: str, artifact: str,
                 repair: Callable[[], Optional[str]], *,
                 journal: bool = True) -> RepairAction:
        """Run one repair and record its outcome."""
        try:
            action = RepairAction(plan=plan, artifact=artifact, ok=True,
                                  detail=repair() or "")
        except (ReproError, OSError, ValueError) as exc:
            action = RepairAction(plan=plan, artifact=artifact, ok=False,
                                  detail=str(exc))
        self._record(action, journal=journal)
        return action

    def _record(self, action: RepairAction, *, journal: bool = True) -> None:
        self.result.actions.append(action)
        telemetry.current().event(
            "doctor.repair", severity="info" if action.ok else "warning",
            plan=action.plan, artifact=action.artifact, ok=action.ok)
        if journal and action.ok:
            self._doctor_journal().commit(
                f"{action.plan}:{action.artifact}", detail=action.detail)

    def _doctor_journal(self) -> CheckpointJournal:
        if self._journal is None:
            journal = CheckpointJournal.load(self.corpus
                                             / DOCTOR_JOURNAL_FILE)
            if journal.header is None \
                    or journal.header.get("command") != "doctor":
                journal.start({"command": "doctor", "version": 1})
            self._journal = journal
        return self._journal

    def _dispatch(self, plan: str, damage: Damage) -> Optional[str]:
        path = self.corpus / damage.artifact
        if plan == "remove-tmp":
            path.unlink(missing_ok=True)
            return None
        if plan == "truncate-journal":
            return _truncate_file(path, int(damage.context["offset"]))
        if plan in ("discard-journal", "discard-stream-checkpoint",
                    "discard-obs-snapshot"):
            path.unlink(missing_ok=True)
            return "discarded (derived state)"
        if plan == "evict-cache-entry":
            path.unlink(missing_ok=True)
            telemetry.current().counter("cache.evictions",
                                        reason="doctor").inc()
            return "evicted"
        if plan == "reset-tap-offset":
            return _reset_tap_offset(path, damage.context.get("source"))
        if plan == "trim-events":
            return _trim_events(path)
        if plan == "rebuild-manifest":
            return self._rebuild_manifest()
        if plan == "rebuild-stream-checkpoint":
            return _rebuild_stream_checkpoint(self.corpus,
                                              damage.context["config"])
        if plan == "rebuild-tap-journal":
            return self._rebuild_tap_journal()
        if plan == "refinalize":
            return _finalize_committed(self.corpus)
        if plan == "quarantine":
            return _quarantine(self.corpus, path)
        raise DoctorError(f"unknown repair plan {plan!r}")

    # -- compound plans ------------------------------------------------------

    def _execute_regenerate(self, damages: List[Damage]) -> None:
        """One deterministic regeneration covers every synthetic damage."""
        resume = all(d.context.get("resume", True) for d in damages)
        self._attempt("regenerate", _artifacts(damages),
                      lambda: _regenerate(self.corpus, self.scan,
                                          resume=resume))

    def _execute_tap_segments(self, damages: List[Damage]) -> None:
        """Re-slice damaged tap segments from the finalized corpus files;
        truncate the commit log at the first day that will not verify."""
        if any("day" not in d.context for d in damages):
            days = list(range(len(committed_days(self.scan.steps))))
        else:
            days = sorted({int(d.context["day"]) for d in damages})
        self._attempt("repair-tap-segments", _artifacts(damages),
                      lambda: _repair_tap_segments(self.corpus, self.scan,
                                                   days, damages))

    def _rebuild_manifest(self) -> str:
        """Rebuild ``manifest.json``, cross-checked against finalize."""
        finalized = self.scan.steps.get(FINALIZE_KEY)
        if finalized is None:
            raise DoctorError(
                f"{self.corpus}: no finalize entry to rebuild the "
                "manifest from")
        for name, key in ((CONTROL_FILE, "control_sha256"),
                          (DATA_FILE, "data_sha256")):
            recorded = finalized.get(key)
            if recorded and verify_file(self.corpus / name,
                                        {"sha256": recorded}) == "sha256":
                raise DoctorError(
                    f"{name}: on-disk checksum differs from the finalize "
                    "entry; rebuilding the manifest would mask file "
                    "damage — repair the corpus files first")
        counts = {"control_messages": finalized.get("control_messages", 0),
                  "data_packets": finalized.get("data_packets", 0)}
        write_manifest(self.corpus, counts=counts)
        return "rebuilt from disk (provenance run block not recoverable)"

    def _rebuild_tap_journal(self) -> str:
        """Recommit every contiguous complete day from the disk segments."""
        seg_dir = self.corpus / SEGMENT_DIR
        journal = CheckpointJournal(self.corpus / JOURNAL_FILE)
        journal.start({"command": "tap", "version": 1})
        day = 0
        while all((seg_dir / _segment_name(plane, day)).exists()
                  for plane in ("control", "data")):
            for plane in ("control", "data"):
                journal.commit(_segment_key(plane, day),
                               **segment_entry(seg_dir, plane, day))
            day += 1
        self.scan = scan_journal_file(self.corpus / JOURNAL_FILE)
        if day > 0:
            _finalize_committed(self.corpus)
            self.scan = scan_journal_file(self.corpus / JOURNAL_FILE)
        _drop_overtaken_stream_checkpoint(self.corpus, day)
        return f"recommitted {day} day(s) from disk segments"


def _artifacts(damages: List[Damage]) -> str:
    """The artifact label of a repair that covers several damages."""
    return ", ".join(sorted({d.artifact for d in damages}))


# -- primitive repairs -------------------------------------------------------

def _truncate_file(path: Path, offset: int) -> str:
    fd = os.open(str(path), os.O_RDWR)
    try:
        os.ftruncate(fd, offset)
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_dir(path.parent)
    return f"truncated at byte {offset}"


def _reset_tap_offset(path: Path, source: Optional[str]) -> str:
    name = path.name
    if name.endswith(".offset.json"):
        name = name[:-len(".offset.json")]
    if source is None:
        path.unlink(missing_ok=True)
        return "discarded (no usable source to rewind against)"
    atomic_write_text(path, json.dumps({
        "version": 1, "tap": name, "offset": 0, "generation": 0,
        "source": source, "source_bytes": 0}, sort_keys=True))
    return "rewound to offset 0"


def _trim_events(path: Path) -> str:
    from repro.obs.events import read_event_file

    records = list(read_event_file(path))
    kept = [record for record in records if record is not None]
    with atomic_writer(path) as fh:
        for record in kept:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return (f"kept {len(kept)} event(s), dropped "
            f"{len(records) - len(kept)} torn line(s)")


def _quarantine(corpus: Path, path: Path) -> str:
    quarantine = corpus / DOCTOR_QUARANTINE_DIR
    quarantine.mkdir(exist_ok=True)
    name = str(path.relative_to(corpus)).replace(os.sep, "__")
    target = quarantine / name
    serial = 1
    while target.exists():
        target = quarantine / f"{name}.{serial}"
        serial += 1
    if path.exists():
        shutil.move(str(path), str(target))
    return f"moved to {target.relative_to(corpus)}"


def _regenerate(corpus: Path, scan: JournalScan, *, resume: bool) -> str:
    """Deterministically rebuild a synthetic corpus from its recorded
    generation parameters (the journal, segments, corpus files, and
    manifest all converge to the undamaged bytes)."""
    from repro.runtime.generate import checkpointed_generate
    from repro.scenario.config import ScenarioConfig

    params = generation_params(corpus, scan.header if resume else None)
    if params is None:
        raise DoctorError(
            f"{corpus}: generation parameters unreadable or inconsistent "
            "with the journal header; cannot regenerate")
    config = ScenarioConfig.paper(**params)
    keep_segments = (corpus / SEGMENT_DIR).is_dir()
    # force the finalize path to re-run even when it was journaled — the
    # resume fast-path trusts an existing manifest, which is exactly what
    # cannot be trusted mid-repair
    (corpus / MANIFEST_FILE).unlink(missing_ok=True)
    run = telemetry.run_manifest("generate", seed=params["seed"],
                                 config=config)
    report = checkpointed_generate(
        config, corpus, resume=resume, run=run, jobs=1,
        keep_segments=keep_segments, extra_meta=params)
    return (f"regenerated ({'resumed, ' if resume else ''}"
            f"{report.segments_written} segment(s) rewritten, "
            f"{report.segments_skipped} intact)")


def _empty_data_segment_candidates() -> List[bytes]:
    """The bytes an empty tap data segment may hold: the segment
    writer's, then those of ``np.savez_compressed``, which wrote the
    segments of older tap corpora."""
    from repro.dataplane.packet import PACKET_DTYPE
    from repro.runtime.npz import write_packet_segment

    empty = np.zeros(0, dtype=PACKET_DTYPE)
    current, legacy = io.BytesIO(), io.BytesIO()
    write_packet_segment(current, empty)
    np.savez_compressed(legacy, packets=empty)
    return [current.getvalue(), legacy.getvalue()]


def _repair_tap_segments(corpus: Path, scan: JournalScan, days: List[int],
                         damages: List[Damage]) -> str:
    """Rebuild damaged tap segments from the finalized corpus files.

    Control segments are byte slices of ``control.jsonl`` at the offsets
    the journal's per-segment byte counts imply; data segments, always
    empty on a tap corpus, are rebuilt in the encoding whose SHA-256 the
    journal records.  A rebuilt file only counts when its SHA-256
    matches the journal commit.  Days that fail
    to verify are unrecoverable — the commit log is truncated there and
    the corpus refinalized to the surviving prefix.
    """
    seg_dir = corpus / SEGMENT_DIR
    seg_dir.mkdir(exist_ok=True)
    try:
        control_bytes = (corpus / CONTROL_FILE).read_bytes()
    except OSError:
        control_bytes = b""
    offsets: Dict[int, int] = {}
    position = 0
    for day, (control, _) in enumerate(committed_days(scan.steps)):
        offsets[day] = position
        position += int(control.get("bytes", 0) or 0)
    empty_data = _empty_data_segment_candidates()
    import hashlib
    rebuilt = 0
    failed_days: List[int] = []
    for day in sorted(set(days)):
        ok = True
        for plane in ("control", "data"):
            entry = scan.steps.get(_segment_key(plane, day))
            if entry is None:
                ok = False
                continue
            path = seg_dir / _segment_name(plane, day)
            if verify_file(path, entry) is None:
                continue  # this plane survived; only the other is damaged
            if plane == "control":
                start = offsets.get(day, len(control_bytes))
                candidates = [control_bytes[
                    start:start + int(entry.get("bytes", 0) or 0)]]
            else:
                candidates = empty_data
            candidate = next(
                (data for data in candidates
                 if hashlib.sha256(data).hexdigest() == entry.get("sha256")),
                None)
            if candidate is None:
                ok = False
                continue
            with atomic_writer(path, mode="wb") as fh:
                fh.write(candidate)
            rebuilt += 1
        if not ok:
            failed_days.append(day)
    if not failed_days:
        return f"re-sliced {rebuilt} segment file(s) from the finalized " \
               "corpus"
    keep = min(failed_days)
    _quarantine_damaged_segments(corpus, damages, keep)
    _truncate_tap_journal(corpus, scan, keep)
    if keep > 0:
        _finalize_committed(corpus)
    _drop_overtaken_stream_checkpoint(corpus, keep)
    return (f"re-sliced {rebuilt} segment file(s); day(s) "
            f"{failed_days} unrecoverable — commit log truncated to "
            f"{keep} day(s)")


def _quarantine_damaged_segments(corpus: Path, damages: List[Damage],
                                 keep: int) -> None:
    for damage in damages:
        day = damage.context.get("day")
        if day is None or int(day) < keep:
            continue
        path = corpus / damage.artifact
        if path.exists():
            _quarantine(corpus, path)


def _truncate_tap_journal(corpus: Path, scan: JournalScan,
                          keep: int) -> None:
    """Rewrite the tap commit log keeping only days below ``keep``."""
    journal = CheckpointJournal(corpus / JOURNAL_FILE)
    journal.start({"command": "tap", "version": 1})
    for day in range(keep):
        for plane in ("control", "data"):
            entry = dict(scan.steps[_segment_key(plane, day)])
            entry.pop("type", None)
            key = entry.pop("key")
            journal.commit(key, **entry)


def _finalize_committed(corpus: Path) -> str:
    """Run :func:`~repro.runtime.generate.finalize` over the commit log's
    contiguous committed days; ``platform.json`` is left as it is."""
    journal = CheckpointJournal.load(corpus / JOURNAL_FILE)
    days = len(committed_days(journal))
    try:
        sampling_rate = int(read_platform_meta(corpus)
                            .get("sampling_rate", 10_000))
    except (ReproError, TypeError, ValueError):
        sampling_rate = 10_000
    finalize(corpus, journal, days, sampling_rate=sampling_rate)
    return f"refinalized {days} day(s) from committed segments"


def _drop_overtaken_stream_checkpoint(corpus: Path, days: int) -> None:
    """Discard a stream checkpoint that consumed beyond ``days``."""
    from repro.errors import StreamCheckpointError
    from repro.streaming.state import load_state, reset_stream

    try:
        state = load_state(corpus)
    except StreamCheckpointError:
        return  # scrubbed separately
    if state is not None and state.watermark_days > days:
        reset_stream(corpus)


def _rebuild_stream_checkpoint(corpus: Path, config: dict) -> str:
    """Replay the commit log under the checkpoint's own stored config.

    The reducers are deterministic over the committed segments, so the
    rebuilt checkpoint equals one an uninterrupted watcher would have
    written.  When replay is impossible (segments gone), the checkpoint
    is discarded — it is derived state and says so.
    """
    from repro.streaming.engine import StreamEngine
    from repro.streaming.state import reset_stream

    reset_stream(corpus)
    try:
        engine = StreamEngine.open(
            corpus, policy=config["policy"], delta=config["delta"],
            host_min_days=config["host_min_days"], cache=None, fresh=True)
        consumed = engine.tick(final=True)
    except (ReproError, OSError, KeyError) as exc:
        reset_stream(corpus)
        return f"discarded (replay unavailable: {exc})"
    return f"rebuilt by replaying {consumed} committed day(s)"
