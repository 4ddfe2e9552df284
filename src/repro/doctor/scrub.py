"""The scrub pass: walk every durable artifact, emit typed damage.

One :func:`scrub_corpus` call examines the full state plane of a corpus
directory — checkpoint journals, day segments, finalized corpus files
and their manifest, the stream checkpoint, analysis-cache entries, obs
snapshot and event logs, tap offset sidecars, and atomic-write temp
orphans — and returns a :class:`~repro.doctor.report.DamageReport`
whose entries each carry the repair plan the engine in
:mod:`repro.doctor.repair` knows how to execute.

Two scrub depths exist: ``deep=True`` (the CLI default) re-hashes file
contents against the journal and manifest checksums; ``deep=False`` (the
``watch`` background scrub tick) checks structure, sizes, and schemas
only, so a periodic scrub of a large corpus stays cheap enough to run
inside the watch loop.

Scrubbing never mutates anything and never raises for a damaged
artifact — only for a target that is not a corpus directory at all
(:class:`~repro.errors.DoctorError`).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    META_FILE,
    read_manifest,
    verify_file,
)
from repro.errors import DoctorError
from repro.doctor.report import Damage, DamageReport
from repro.runtime.atomic import TMP_PREFIX
from repro.runtime.checkpoint import JournalScan, scan_journal_file
from repro.runtime.generate import (
    FINALIZE_KEY,
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    _segment_name,
)

#: the supervised-analyze journal (same name the CLI uses)
ANALYSIS_JOURNAL_FILE = ".analysis.checkpoint.jsonl"
#: the doctor's own repair journal
DOCTOR_JOURNAL_FILE = ".doctor.checkpoint.jsonl"
#: where unrecoverable artifacts are moved instead of deleted
DOCTOR_QUARANTINE_DIR = ".doctor.quarantine"


def generation_params(corpus_dir: Path,
                      header: Optional[dict]) -> Optional[dict]:
    """The ``ScenarioConfig.paper`` parameters a synthetic corpus can be
    regenerated from, or None when they are unreadable or untrustworthy.

    The parameters live in ``platform.json`` (the CLI and facade stamp
    scale/duration_days/seed there); when the journal header survived,
    its config hash cross-checks them — a tampered sidecar must not
    drive a "repair" that regenerates a different corpus.
    """
    try:
        meta = json.loads((corpus_dir / META_FILE).read_text())
        # values are taken verbatim: int-vs-float duration_days changes
        # the config hash, and JSON round-trips both exactly
        params = {"scale": meta["scale"],
                  "duration_days": meta["duration_days"],
                  "seed": meta["seed"]}
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in params.values()):
            return None
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if header is not None and header.get("config_hash"):
        from repro import telemetry
        from repro.scenario.config import ScenarioConfig

        config = ScenarioConfig.paper(**params)
        if telemetry.config_hash(config) != header.get("config_hash"):
            return None
    return params


def _rel(corpus_dir: Path, path: Path) -> str:
    try:
        return str(path.relative_to(corpus_dir))
    except ValueError:
        return str(path)


def scrub_corpus(corpus_dir: str | Path, *, deep: bool = True,
                 cache_dir: str | Path | None = None) -> DamageReport:
    """Examine every durable artifact; see the module docstring."""
    from repro import telemetry

    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        raise DoctorError(f"{corpus}: not a directory")
    journal_path = corpus / JOURNAL_FILE
    if not journal_path.exists() and not (corpus / MANIFEST_FILE).exists() \
            and not (corpus / META_FILE).exists():
        raise DoctorError(
            f"{corpus}: no checkpoint journal, manifest, or platform "
            "sidecar — not a corpus directory")

    report = DamageReport(corpus_dir=str(corpus), deep=deep)
    with telemetry.current().span("doctor.scrub", corpus=str(corpus),
                                  deep=deep):
        scan = scan_journal_file(journal_path)
        tap_corpus = _is_tap_corpus(corpus, scan)
        _scrub_journals(corpus, scan, tap_corpus, report)
        content_plan = _content_planner(corpus, scan, tap_corpus)
        _scrub_segments(corpus, scan, report, content_plan, deep)
        _scrub_corpus_files(corpus, scan, report, content_plan, deep)
        _scrub_stream_checkpoint(corpus, scan, report)
        _scrub_caches(corpus, report, cache_dir)
        _scrub_obs(corpus, report)
        _scrub_tap_offsets(corpus, report)
        _scrub_tmp_orphans(corpus, report, cache_dir)
    telemetry.current().counter(
        "doctor.scrubs", outcome="clean" if report.clean else "damaged").inc()
    return report


def _is_tap_corpus(corpus: Path, scan: JournalScan) -> bool:
    if scan.header is not None:
        return scan.header.get("command") == "tap"
    try:
        meta = json.loads((corpus / META_FILE).read_text())
        return bool(meta.get("tap_session"))
    except (OSError, ValueError):
        return False


# -- journals ----------------------------------------------------------------

def _scrub_journals(corpus: Path, scan: JournalScan, tap_corpus: bool,
                    report: DamageReport) -> None:
    """Scrub the commit log (``scan``) and the two derived journals."""
    for name in (JOURNAL_FILE, ANALYSIS_JOURNAL_FILE, DOCTOR_JOURNAL_FILE):
        derived = name != JOURNAL_FILE
        journal = scan_journal_file(corpus / name) if derived else scan
        if not journal.exists:
            continue
        report.count("journal")
        severity = "warning" if derived else "error"
        if journal.header_bad:
            report.add(Damage(
                artifact=name, kind="journal", damage="bad-header",
                severity=severity,
                detail=("derived journal unreadable; safe to discard"
                        if derived else
                        "journal header unreadable; commit log unusable"),
                plan=("discard-journal" if derived
                      else "rebuild-tap-journal" if tap_corpus
                      else "regenerate"),
                context={} if derived else {"resume": False}))
        elif journal.torn_offset is not None:
            report.add(Damage(
                artifact=name, kind="journal", damage="torn-tail",
                severity=severity,
                detail=(f"unparseable line at byte {journal.torn_offset}; "
                        "entries after it are unreachable"),
                plan=("rebuild-tap-journal" if tap_corpus and not derived
                      else "truncate-journal"),
                context={"offset": journal.torn_offset}))


# -- segments ----------------------------------------------------------------

def _content_planner(corpus: Path, scan: JournalScan,
                     tap_corpus: bool) -> Callable[[str], tuple]:
    """``plan(tap_plan)`` -> the ``(plan, context)`` repairing damaged
    corpus content: ``tap_plan`` on a tap corpus, else regenerate from
    trusted parameters or quarantine.  The parameters are resolved on
    the first call, so a clean scrub never builds a scenario config."""
    params = functools.cache(lambda: generation_params(corpus, scan.header))

    def plan(tap_plan: str) -> tuple:
        if tap_corpus:
            return tap_plan, {}
        if params() is None:
            return "quarantine", {}
        return "regenerate", {"resume": True}

    return plan


def _scrub_segments(corpus: Path, scan: JournalScan, report: DamageReport,
                    content_plan: Callable[[str], tuple],
                    deep: bool) -> None:
    seg_dir = corpus / SEGMENT_DIR
    segment_steps = {key: entry for key, entry in scan.steps.items()
                     if key.startswith("segment:")}
    if not seg_dir.is_dir():
        # segments not kept is a legitimate layout — unless a stream
        # checkpoint proves a watcher depends on them
        if segment_steps and (corpus / ".stream.checkpoint.json").exists():
            plan, context = content_plan("repair-tap-segments")
            report.add(Damage(
                artifact=SEGMENT_DIR, kind="segment", damage="missing",
                severity="error",
                detail=(f"{len(segment_steps)} journaled segments have no "
                        f"{SEGMENT_DIR}/ directory but a stream checkpoint "
                        "depends on them"),
                plan=plan, context=context))
        return
    for key, entry in sorted(segment_steps.items()):
        _, plane, day_text = key.split(":")
        day = int(day_text)
        path = seg_dir / _segment_name(plane, day)
        artifact = _rel(corpus, path)
        report.count("segment")
        failed = verify_file(path, entry, deep=deep)
        if failed is not None:
            damage, detail = _file_damage(failed, path, entry, "the journal")
            plan, context = content_plan("repair-tap-segments")
            report.add(Damage(
                artifact=artifact, kind="segment", damage=damage,
                severity="error", detail=detail, plan=plan,
                context=dict(context, plane=plane, day=day)))


def _file_damage(failed: str, path: Path, entry: dict,
                 witness: str) -> Tuple[str, str]:
    """The damage tag and detail for a failed :func:`verify_file` check."""
    if failed == "missing":
        return "missing", f"recorded in {witness} but absent"
    if failed == "size":
        return "checksum-drift", (f"{path.stat().st_size} bytes on disk, "
                                  f"{entry['bytes']} in {witness}")
    return "checksum-drift", f"SHA-256 differs from {witness}"


# -- corpus files + manifest -------------------------------------------------

def _scrub_corpus_files(corpus: Path, scan: JournalScan,
                        report: DamageReport,
                        content_plan: Callable[[str], tuple],
                        deep: bool) -> None:
    finalized = scan.steps.get(FINALIZE_KEY)
    report.count("manifest")
    manifest = None
    try:
        manifest = read_manifest(corpus)
    except FileNotFoundError:
        if finalized is not None:
            report.add(Damage(
                artifact=MANIFEST_FILE, kind="manifest", damage="missing",
                severity="error",
                detail="finalize is journaled but the manifest is absent",
                plan="rebuild-manifest"))
    except (OSError, ValueError) as exc:
        plan, context = (("rebuild-manifest", {}) if finalized is not None
                         else content_plan("refinalize"))
        report.add(Damage(
            artifact=MANIFEST_FILE, kind="manifest", damage="garbled",
            severity="error", detail=f"unreadable: {exc}",
            plan=plan, context=context))
    if manifest is not None:
        witness, entries = "the manifest", manifest["files"]
    elif finalized is not None and deep:
        # the manifest is gone, but the finalize journal entry carries
        # its own checksums of the two corpus files — second witness
        witness, entries = "the finalize entry", {
            name: {"sha256": finalized[key]}
            for name, key in ((CONTROL_FILE, "control_sha256"),
                              (DATA_FILE, "data_sha256"))
            if finalized.get(key)}
    else:
        return
    for name, entry in sorted(entries.items()):
        report.count("corpus-file")
        failed = verify_file(corpus / name, entry, deep=deep)
        if failed is not None:
            damage, detail = _file_damage(failed, corpus / name, entry,
                                          witness)
            plan, context = content_plan("refinalize")
            report.add(Damage(
                artifact=name, kind="corpus-file", damage=damage,
                severity="error", detail=detail, plan=plan,
                context=context))


# -- stream checkpoint -------------------------------------------------------

def _scrub_stream_checkpoint(corpus: Path, scan: JournalScan,
                             report: DamageReport) -> None:
    from repro.errors import StreamCheckpointError
    from repro.streaming.state import STREAM_CHECKPOINT_FILE, load_state

    if not (corpus / STREAM_CHECKPOINT_FILE).exists():
        return
    report.count("stream-checkpoint")
    try:
        state = load_state(corpus)
    except StreamCheckpointError as exc:
        report.add(Damage(
            artifact=STREAM_CHECKPOINT_FILE, kind="stream-checkpoint",
            damage="garbled", severity="error",
            detail=str(exc), plan="discard-stream-checkpoint"))
        return
    if state is None:
        return
    for entry in state.consumed:
        control = scan.steps.get(_segment_key("control", entry.day))
        data = scan.steps.get(_segment_key("data", entry.day))
        if (control is None or data is None
                or control.get("sha256") != entry.control_sha256
                or data.get("sha256") != entry.data_sha256):
            report.add(Damage(
                artifact=STREAM_CHECKPOINT_FILE, kind="stream-checkpoint",
                damage="fence-mismatch", severity="error",
                detail=(f"consumed day {entry.day} disagrees with the "
                        "corpus journal"),
                plan="rebuild-stream-checkpoint",
                context={"config": state.config()}))
            return


# -- caches ------------------------------------------------------------------

def _cache_roots(corpus: Path,
                 cache_dir: str | Path | None) -> List[Path]:
    from repro.parallel.cache import DEFAULT_CACHE_DIRNAME, ENTRY_DIR

    roots = []
    if cache_dir is not None:
        roots.append(Path(cache_dir) / ENTRY_DIR)
    default = corpus / DEFAULT_CACHE_DIRNAME / ENTRY_DIR
    if default.is_dir() and all(r.resolve() != default.resolve()
                                for r in roots):
        roots.append(default)
    return [root for root in roots if root.is_dir()]


class CacheAudit(NamedTuple):
    """One analysis-cache entry as :func:`audit_caches` classified it."""

    path: Path
    #: "garbled" | "version" | "current" | "stream" | "stale"
    verdict: str
    #: the parsed entry (None when garbled)
    record: Optional[dict] = None
    #: why a garbled entry did not parse
    error: str = ""


def audit_caches(corpus: Path, cache_dir: str | Path | None
                 ) -> Tuple[Optional[str], List[CacheAudit]]:
    """Classify every entry of the corpus's analysis caches.

    The roots are ``cache_dir`` plus the corpus-local default.  An entry
    is *current* when it is keyed to this corpus's digest, *stream* when
    keyed to a ``stream:`` prefix of this corpus's commit log (a
    watcher's entry), and *stale* otherwise — with no usable manifest,
    every entry that is not a stream prefix is stale.
    Returns the corpus digest (None without a usable manifest) and the
    entries.  ``validate`` and the scrub apply their own policies.
    """
    roots = _cache_roots(corpus, cache_dir)
    if not roots:
        return None, []
    from repro.parallel.cache import ENTRY_VERSION, corpus_digest
    from repro.streaming.state import stream_corpus_digests

    current = corpus_digest(corpus)
    stream_digests = stream_corpus_digests(corpus)
    audited = []
    for root in roots:
        for path in sorted(root.glob("*.json")):
            try:
                record = json.loads(path.read_text())
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except (OSError, ValueError) as exc:
                audited.append(CacheAudit(path, "garbled", error=str(exc)))
                continue
            digest = str(record.get("corpus_digest"))
            verdict = ("version" if record.get("version") != ENTRY_VERSION
                       else "current" if digest == current
                       else "stream" if digest in stream_digests
                       else "stale")
            audited.append(CacheAudit(path, verdict, record))
    return current, audited


def _scrub_caches(corpus: Path, report: DamageReport,
                  cache_dir: str | Path | None) -> None:
    current, audited = audit_caches(corpus, cache_dir)
    for entry in audited:
        report.count("cache-entry")
        if entry.verdict == "garbled":
            detail, damage = f"unreadable: {entry.error}", "garbled"
        elif entry.verdict == "version":
            detail, damage = (f"unsupported entry version "
                              f"{entry.record.get('version')!r}",
                              "digest-drift")
        elif entry.verdict == "stale" and current is not None:
            digest = str(entry.record.get("corpus_digest"))
            detail, damage = (f"keyed to corpus digest {digest[:12]}… but "
                              f"this corpus digests to {current[:12]}…",
                              "digest-drift")
        else:
            continue
        report.add(Damage(
            artifact=_rel(corpus, entry.path), kind="cache-entry",
            damage=damage, severity="error", detail=detail,
            plan="evict-cache-entry"))


# -- obs ---------------------------------------------------------------------

def _scrub_obs(corpus: Path, report: DamageReport) -> None:
    from repro.errors import ObsSnapshotError
    from repro.obs.events import (
        DEFAULT_BACKUPS,
        iter_event_files,
        read_event_file,
    )
    from repro.obs.snapshot import events_path, load_snapshot, snapshot_path

    snapshot = snapshot_path(corpus)
    if snapshot.exists():
        report.count("obs-snapshot")
        try:
            load_snapshot(corpus)
        except ObsSnapshotError as exc:
            report.add(Damage(
                artifact=_rel(corpus, snapshot), kind="obs-snapshot",
                damage="garbled", severity="warning",
                detail=f"{exc} (derived state)",
                plan="discard-obs-snapshot"))
    for file in iter_event_files(events_path(corpus), DEFAULT_BACKUPS):
        report.count("obs-events")
        torn = sum(record is None for record in read_event_file(file))
        if torn:
            report.add(Damage(
                artifact=_rel(corpus, file), kind="obs-events",
                damage="torn-tail", severity="warning",
                detail=f"{torn} unparseable line(s)",
                plan="trim-events"))


# -- tap offset sidecars -----------------------------------------------------

def _scrub_tap_offsets(corpus: Path, report: DamageReport) -> None:
    taps_dir = corpus / ".taps"
    if not taps_dir.is_dir():
        return
    for path in sorted(taps_dir.glob("*.offset.json")):
        report.count("tap-offset")
        artifact = _rel(corpus, path)
        try:
            record = json.loads(path.read_text())
            offset = int(record["offset"])
            source = str(record["source"])
        except (OSError, ValueError, TypeError, KeyError) as exc:
            report.add(Damage(
                artifact=artifact, kind="tap-offset", damage="garbled",
                severity="warning", detail=f"unreadable: {exc}",
                plan="reset-tap-offset"))
            continue
        try:
            size = Path(source).stat().st_size
        except OSError:
            continue  # source gone: nothing to bound-check against
        if offset > size:
            report.add(Damage(
                artifact=artifact, kind="tap-offset",
                damage="beyond-source", severity="warning",
                detail=(f"recorded offset {offset} exceeds the source's "
                        f"{size} bytes (source truncated)"),
                plan="reset-tap-offset", context={"source": source}))


# -- temp orphans ------------------------------------------------------------

def _scrub_tmp_orphans(corpus: Path, report: DamageReport,
                       cache_dir: str | Path | None) -> None:
    directories = [corpus, corpus / SEGMENT_DIR, corpus / ".taps",
                   corpus / ".obs"]
    directories.extend(_cache_roots(corpus, cache_dir))
    for directory in directories:
        if not directory.is_dir():
            continue
        report.count("tmp-dir")
        for entry in sorted(directory.iterdir()):
            if entry.is_file() and entry.name.startswith(TMP_PREFIX):
                report.add(Damage(
                    artifact=_rel(corpus, entry), kind="tmp",
                    damage="orphan", severity="warning",
                    detail="atomic-write temporary left by a killed writer",
                    plan="remove-tmp"))
