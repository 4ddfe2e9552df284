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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    META_FILE,
    file_sha256,
)
from repro.errors import DoctorError
from repro.doctor.report import Damage, DamageReport
from repro.runtime.atomic import TMP_PREFIX
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


@dataclass
class JournalScan:
    """Byte-accurate structural scan of one checkpoint journal file."""

    path: Path
    header: Optional[dict] = None
    #: step entries in file order (later duplicates win, like load())
    steps: Dict[str, dict] = field(default_factory=dict)
    #: byte offset of the first unparseable line, or None when intact
    torn_offset: Optional[int] = None
    #: the unparseable line is the *first* line — no usable header
    header_bad: bool = False
    exists: bool = True


def scan_journal_file(path: str | Path) -> JournalScan:
    """Parse a journal like ``CheckpointJournal.load`` but byte-exactly.

    Where ``load`` silently drops a torn tail, this records the byte
    offset the file must be truncated at to make the tear permanent —
    appends after an un-truncated torn line concatenate onto it and are
    lost on the next load, so the tear is real damage, not cosmetics.
    """
    scan = JournalScan(path=Path(path))
    try:
        raw = scan.path.read_bytes()
    except FileNotFoundError:
        scan.exists = False
        return scan
    # an unterminated final line is torn even when it parses: the next
    # append concatenates onto it and produces an unparseable line, so
    # the tail must be truncated away before the journal is appended to
    tail_offset = None
    if raw and not raw.endswith(b"\n"):
        tail_offset = raw.rfind(b"\n") + 1
        raw = raw[:tail_offset]
    offset = 0
    saw_line = False
    for chunk in raw.split(b"\n"):
        line = chunk.strip()
        if line:
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except (ValueError, UnicodeDecodeError):
                scan.torn_offset = offset
                scan.header_bad = not saw_line
                break
            if not saw_line and record.get("type") == "header":
                scan.header = record
            elif record.get("type") == "step" and "key" in record:
                scan.steps[record["key"]] = record
            saw_line = True
        offset += len(chunk) + 1
    if scan.torn_offset is None and tail_offset is not None:
        scan.torn_offset = tail_offset
        scan.header_bad = not saw_line
    if not saw_line and scan.torn_offset is None:
        # an existing-but-empty journal has no header to trust
        scan.header_bad = True
        scan.torn_offset = 0
    return scan


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
        scan = _scrub_journals(corpus, report)
        tap_corpus = _is_tap_corpus(corpus, scan)
        params = (None if tap_corpus
                  else generation_params(corpus, scan.header))
        _scrub_segments(corpus, scan, report, tap_corpus, params, deep)
        _scrub_corpus_files(corpus, scan, report, tap_corpus, params, deep)
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

def _scrub_journals(corpus: Path, report: DamageReport) -> JournalScan:
    """Scrub all three journals; returns the commit-log scan."""
    main_scan = scan_journal_file(corpus / JOURNAL_FILE)
    tap_corpus = _is_tap_corpus(corpus, main_scan)
    if main_scan.exists:
        report.count("journal")
        if main_scan.header_bad:
            report.add(Damage(
                artifact=JOURNAL_FILE, kind="journal", damage="bad-header",
                severity="error",
                detail="journal header unreadable; commit log unusable",
                plan="rebuild-tap-journal" if tap_corpus
                else "regenerate",
                context={"resume": False}))
        elif main_scan.torn_offset is not None:
            report.add(Damage(
                artifact=JOURNAL_FILE, kind="journal", damage="torn-tail",
                severity="error",
                detail=(f"unparseable line at byte {main_scan.torn_offset}; "
                        "entries after it are unreachable"),
                plan="rebuild-tap-journal" if tap_corpus
                else "truncate-journal",
                context={"offset": main_scan.torn_offset}))
    for name, discard_plan in ((ANALYSIS_JOURNAL_FILE, "discard-journal"),
                               (DOCTOR_JOURNAL_FILE, "discard-journal")):
        scan = scan_journal_file(corpus / name)
        if not scan.exists:
            continue
        report.count("journal")
        if scan.header_bad:
            report.add(Damage(
                artifact=name, kind="journal", damage="bad-header",
                severity="warning",
                detail="derived journal unreadable; safe to discard",
                plan=discard_plan))
        elif scan.torn_offset is not None:
            report.add(Damage(
                artifact=name, kind="journal", damage="torn-tail",
                severity="warning",
                detail=f"unparseable line at byte {scan.torn_offset}",
                plan="truncate-journal",
                context={"offset": scan.torn_offset}))
    return main_scan


# -- segments ----------------------------------------------------------------

def _segment_damage_plan(tap_corpus: bool, params: Optional[dict]) -> tuple:
    if tap_corpus:
        return "repair-tap-segments", {}
    if params is None:
        return "quarantine", {}
    return "regenerate", {"resume": True}


def _scrub_segments(corpus: Path, scan: JournalScan, report: DamageReport,
                    tap_corpus: bool, params: Optional[dict],
                    deep: bool) -> None:
    seg_dir = corpus / SEGMENT_DIR
    segment_steps = {key: entry for key, entry in scan.steps.items()
                     if key.startswith("segment:")}
    if not seg_dir.is_dir():
        # segments not kept is a legitimate layout — unless a stream
        # checkpoint proves a watcher depends on them
        if segment_steps and (corpus / ".stream.checkpoint.json").exists():
            plan, context = _segment_damage_plan(tap_corpus, params)
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
        plan, context = _segment_damage_plan(tap_corpus, params)
        context = dict(context, plane=plane, day=day)
        if not path.exists():
            report.add(Damage(
                artifact=artifact, kind="segment", damage="missing",
                severity="error",
                detail="journaled segment file absent", plan=plan,
                context=context))
            continue
        size = path.stat().st_size
        if entry.get("bytes") is not None and size != entry["bytes"]:
            report.add(Damage(
                artifact=artifact, kind="segment", damage="checksum-drift",
                severity="error",
                detail=(f"{size} bytes on disk, {entry['bytes']} in "
                        "journal"),
                plan=plan, context=context))
            continue
        if deep and entry.get("sha256") \
                and file_sha256(path) != entry["sha256"]:
            report.add(Damage(
                artifact=artifact, kind="segment", damage="checksum-drift",
                severity="error",
                detail="SHA-256 differs from the journal commit",
                plan=plan, context=context))


# -- corpus files + manifest -------------------------------------------------

def _scrub_corpus_files(corpus: Path, scan: JournalScan,
                        report: DamageReport, tap_corpus: bool,
                        params: Optional[dict], deep: bool) -> None:
    manifest_path = corpus / MANIFEST_FILE
    finalized = scan.steps.get(FINALIZE_KEY)
    file_plan, file_context = (
        ("refinalize", {}) if tap_corpus
        else ("regenerate", {"resume": True}) if params is not None
        else ("quarantine", {}))
    report.count("manifest")
    manifest = None
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
            if not isinstance(manifest, dict) \
                    or not isinstance(manifest.get("files"), dict):
                raise ValueError("not a manifest object")
        except (OSError, ValueError) as exc:
            report.add(Damage(
                artifact=MANIFEST_FILE, kind="manifest", damage="garbled",
                severity="error", detail=f"unreadable: {exc}",
                plan="rebuild-manifest" if finalized is not None
                else file_plan,
                context=dict(file_context)))
            manifest = None
    elif finalized is not None:
        report.add(Damage(
            artifact=MANIFEST_FILE, kind="manifest", damage="missing",
            severity="error",
            detail="finalize is journaled but the manifest is absent",
            plan="rebuild-manifest"))
    if manifest is None:
        # the manifest is gone, but the finalize journal entry carries
        # its own checksums of the two corpus files — second witness
        if finalized is not None and deep:
            for name, key in ((CONTROL_FILE, "control_sha256"),
                              (DATA_FILE, "data_sha256")):
                recorded = finalized.get(key)
                path = corpus / name
                if not recorded:
                    continue
                report.count("corpus-file")
                if not path.exists():
                    report.add(Damage(
                        artifact=name, kind="corpus-file",
                        damage="missing", severity="error",
                        detail="journaled at finalize but absent",
                        plan=file_plan, context=dict(file_context)))
                elif file_sha256(path) != recorded:
                    report.add(Damage(
                        artifact=name, kind="corpus-file",
                        damage="checksum-drift", severity="error",
                        detail="SHA-256 differs from the finalize entry",
                        plan=file_plan, context=dict(file_context)))
        return
    for name, meta in sorted(manifest.get("files", {}).items()):
        path = corpus / name
        report.count("corpus-file")
        if not path.exists():
            report.add(Damage(
                artifact=name, kind="corpus-file", damage="missing",
                severity="error", detail="listed in manifest but absent",
                plan=file_plan, context=dict(file_context)))
            continue
        size = path.stat().st_size
        if meta.get("bytes") is not None and size != meta["bytes"]:
            report.add(Damage(
                artifact=name, kind="corpus-file", damage="checksum-drift",
                severity="error",
                detail=f"{size} bytes on disk, {meta['bytes']} in manifest",
                plan=file_plan, context=dict(file_context)))
            continue
        if deep and meta.get("sha256") \
                and file_sha256(path) != meta["sha256"]:
            report.add(Damage(
                artifact=name, kind="corpus-file", damage="checksum-drift",
                severity="error",
                detail="SHA-256 differs from the manifest",
                plan=file_plan, context=dict(file_context)))


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


def _scrub_caches(corpus: Path, report: DamageReport,
                  cache_dir: str | Path | None) -> None:
    from repro.parallel.cache import ENTRY_VERSION, corpus_digest
    from repro.streaming.engine import stream_corpus_digests

    roots = _cache_roots(corpus, cache_dir)
    if not roots:
        return
    current = corpus_digest(corpus)
    stream_digests = stream_corpus_digests(corpus)
    for root in roots:
        for path in sorted(root.glob("*.json")):
            report.count("cache-entry")
            artifact = _rel(corpus, path)
            try:
                entry = json.loads(path.read_text())
                if not isinstance(entry, dict):
                    raise ValueError("not an object")
            except (OSError, ValueError) as exc:
                report.add(Damage(
                    artifact=artifact, kind="cache-entry", damage="garbled",
                    severity="error", detail=f"unreadable: {exc}",
                    plan="evict-cache-entry"))
                continue
            if entry.get("version") != ENTRY_VERSION:
                report.add(Damage(
                    artifact=artifact, kind="cache-entry",
                    damage="digest-drift", severity="error",
                    detail=f"unsupported entry version "
                           f"{entry.get('version')!r}",
                    plan="evict-cache-entry"))
                continue
            digest = str(entry.get("corpus_digest"))
            if current is not None and digest != current \
                    and digest not in stream_digests:
                report.add(Damage(
                    artifact=artifact, kind="cache-entry",
                    damage="digest-drift", severity="error",
                    detail=(f"keyed to corpus digest {digest[:12]}… but "
                            f"this corpus digests to {current[:12]}…"),
                    plan="evict-cache-entry"))


# -- obs ---------------------------------------------------------------------

def _scrub_obs(corpus: Path, report: DamageReport) -> None:
    from repro.obs.events import DEFAULT_BACKUPS, iter_event_files
    from repro.obs.snapshot import events_path, snapshot_path

    snapshot = snapshot_path(corpus)
    if snapshot.exists():
        report.count("obs-snapshot")
        try:
            raw = json.loads(snapshot.read_text())
            if not isinstance(raw, dict):
                raise ValueError("not an object")
            from repro.obs.snapshot import SNAPSHOT_VERSION
            if raw.get("version") != SNAPSHOT_VERSION:
                raise ValueError(
                    f"unsupported version {raw.get('version')!r}")
        except (OSError, ValueError) as exc:
            report.add(Damage(
                artifact=_rel(corpus, snapshot), kind="obs-snapshot",
                damage="garbled", severity="warning",
                detail=f"unreadable: {exc} (derived state)",
                plan="discard-obs-snapshot"))
    for file in iter_event_files(events_path(corpus), DEFAULT_BACKUPS):
        report.count("obs-events")
        torn = _count_torn_lines(file)
        if torn:
            report.add(Damage(
                artifact=_rel(corpus, file), kind="obs-events",
                damage="torn-tail", severity="warning",
                detail=f"{torn} unparseable line(s)",
                plan="trim-events"))


def _count_torn_lines(path: Path) -> int:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return 0
    torn = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            if not isinstance(json.loads(line), dict):
                torn += 1
        except ValueError:
            torn += 1
    return torn


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
