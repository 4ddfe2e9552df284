"""Corpus manifests and integrity validation.

``generate`` writes a ``manifest.json`` next to the corpus files: per-file
SHA-256 checksums and sizes plus record counts.  :func:`validate_corpus`
replays the contract — files present, checksums matching, every record
parseable, timestamps sane, no suspicious feed gaps — and returns a
:class:`ValidationReport` the CLI turns into an exit code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.corpus.ingest import IngestReport
from repro.errors import MissingCorpusFileError, ReproError

#: canonical corpus file names (the CLI re-exports these)
CONTROL_FILE = "control.jsonl"
DATA_FILE = "data.npz"
META_FILE = "platform.json"
MANIFEST_FILE = "manifest.json"

#: a feed gap is suspicious when it exceeds both this many seconds (six
#: hours — longer than any diurnal lull the traffic model produces) …
MIN_SUSPICIOUS_GAP = 6 * 3_600.0
#: … and this multiple of the corpus's median inter-record gap
GAP_FACTOR = 50.0


def require_corpus_files(corpus_dir: str | Path) -> Path:
    """``corpus_dir`` as a path, once it holds the three corpus files;
    raises :class:`~repro.errors.MissingCorpusFileError` otherwise."""
    path = Path(corpus_dir)
    for name in (CONTROL_FILE, DATA_FILE, META_FILE):
        if not (path / name).exists():
            raise MissingCorpusFileError(
                f"{path / name} missing: not a corpus directory (run "
                "`repro generate` first)")
    return path


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(corpus_dir: str | Path) -> dict:
    """Parse ``manifest.json``: ``FileNotFoundError`` when it is absent,
    ``ValueError`` when it is not a manifest object with a ``files``
    mapping."""
    manifest = json.loads((Path(corpus_dir) / MANIFEST_FILE).read_text())
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("files"), dict):
        raise ValueError("not a manifest object")
    return manifest


def verify_file(path: str | Path, entry: dict, *,
                deep: bool = True) -> Optional[str]:
    """Check one file against the entry that vouches for it.

    ``entry`` is a manifest ``files`` entry or a journal commit: its
    ``bytes`` (checked when recorded) and ``sha256`` (checked only when
    ``deep``).  Returns ``None`` when the file verifies, else the first
    check that failed: ``"missing"``, ``"size"`` or ``"sha256"``.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return "missing"
    if entry.get("bytes") is not None and size != entry["bytes"]:
        return "size"
    if deep and file_sha256(path) != entry.get("sha256"):
        return "sha256"
    return None


def build_manifest(corpus_dir: str | Path,
                   counts: Optional[Dict[str, int]] = None,
                   run: Optional[dict] = None) -> dict:
    """Checksum every regular file in the corpus directory (except the
    manifest itself).

    ``run`` is the telemetry run manifest of the generating invocation
    (seed, config hash, git revision, wall time — see
    :func:`repro.telemetry.run_manifest`), embedded so the provenance of a
    corpus is checksummed along with its contents.
    """
    corpus_dir = Path(corpus_dir)
    files = {}
    for entry in sorted(corpus_dir.iterdir()):
        # dot-prefixed entries are runtime internals (checkpoint journal,
        # segment scratch dir, atomic-write temporaries) — not corpus data
        if entry.is_file() and entry.name != MANIFEST_FILE \
                and not entry.name.startswith("."):
            files[entry.name] = {
                "sha256": file_sha256(entry),
                "bytes": entry.stat().st_size,
            }
    manifest = {"version": 1, "files": files, "counts": dict(counts or {})}
    if run is not None:
        manifest["run"] = dict(run)
    return manifest


def write_manifest(corpus_dir: str | Path,
                   counts: Optional[Dict[str, int]] = None,
                   run: Optional[dict] = None) -> dict:
    """Write ``manifest.json`` atomically (temp file + fsync + rename)
    and return the manifest written, so a caller needing a file's
    checksum need not hash the file again.

    A crash mid-write therefore leaves either the previous manifest or
    none at all — never a truncated file that ``validate`` would report
    as malformed instead of missing.
    """
    from repro.runtime.atomic import atomic_write_text

    corpus_dir = Path(corpus_dir)
    manifest = build_manifest(corpus_dir, counts, run=run)
    atomic_write_text(corpus_dir / MANIFEST_FILE,
                      json.dumps(manifest, indent=2))
    return manifest


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a corpus directory."""

    severity: str  # "error" | "warning"
    code: str      # stable machine-readable tag, e.g. "checksum-mismatch"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class ValidationReport:
    """Everything `repro validate` learned about a corpus directory."""

    corpus_dir: str
    issues: List[ValidationIssue] = field(default_factory=list)
    control_ingest: Optional[IngestReport] = None
    data_ingest: Optional[IngestReport] = None
    control_gaps: List[Tuple[float, float]] = field(default_factory=list)
    data_gaps: List[Tuple[float, float]] = field(default_factory=list)
    #: the generating invocation's run manifest, when the corpus manifest
    #: recorded one (seed, config hash, git rev, wall time)
    run_manifest: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issue was found (warnings pass)."""
        return not any(i.severity == "error" for i in self.issues)

    def error(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue("error", code, message))

    def warning(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue("warning", code, message))

    def format(self) -> str:
        lines = [f"validate {self.corpus_dir}: "
                 f"{'OK' if self.ok else 'CORRUPT'}"]
        if self.run_manifest:
            run = self.run_manifest
            bits = []
            if run.get("seed") is not None:
                bits.append(f"seed={run['seed']}")
            if run.get("config_hash"):
                bits.append(f"config={run['config_hash']}")
            if run.get("git_rev"):
                bits.append(f"rev={run['git_rev']}")
            if run.get("wall_seconds") is not None:
                bits.append(f"wall={run['wall_seconds']:.2f}s")
            if bits:
                lines.append("  generated by: " + "  ".join(bits))
        for issue in self.issues:
            lines.append(f"  {issue}")
        for name, report in (("control", self.control_ingest),
                             ("data", self.data_ingest)):
            if report is not None:
                lines.append(f"  {name}: {report.loaded}/{report.total} "
                             f"records loaded, {report.skipped} bad")
        for name, gaps in (("control", self.control_gaps),
                           ("data", self.data_gaps)):
            for start, end in gaps[:5]:
                lines.append(f"  {name} feed gap: "
                             f"[{start:.0f}, {end:.0f}] "
                             f"({end - start:.0f}s)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A machine-readable mirror of :meth:`format` for ``--json``."""
        def ingest(report: Optional[IngestReport]) -> Optional[dict]:
            if report is None:
                return None
            return {"total": report.total, "loaded": report.loaded,
                    "skipped": report.skipped}

        return {
            "corpus_dir": self.corpus_dir,
            "ok": self.ok,
            "issues": [
                {"severity": i.severity, "code": i.code, "message": i.message}
                for i in self.issues
            ],
            "control_ingest": ingest(self.control_ingest),
            "data_ingest": ingest(self.data_ingest),
            "control_gaps": [[s, e] for s, e in self.control_gaps],
            "data_gaps": [[s, e] for s, e in self.data_gaps],
            "run_manifest": self.run_manifest,
        }


def _find_gaps(times, min_gap: float = MIN_SUSPICIOUS_GAP,
               factor: float = GAP_FACTOR) -> List[Tuple[float, float]]:
    """Sorted-timestamp gaps that dwarf the feed's own cadence."""
    import numpy as np

    if len(times) < 3:
        return []
    diffs = np.diff(times)
    positive = diffs[diffs > 0]
    if len(positive) == 0:
        return []
    threshold = max(min_gap, factor * float(np.median(positive)))
    out = []
    for i in np.flatnonzero(diffs > threshold):
        out.append((float(times[i]), float(times[i + 1])))
    return out


def validate_corpus(corpus_dir: str | Path, *,
                    min_gap: float = MIN_SUSPICIOUS_GAP,
                    gap_factor: float = GAP_FACTOR,
                    cache_dir: Optional[str | Path] = None) -> ValidationReport:
    """Integrity-check a corpus directory without loading it strictly.

    Checks, in order: directory and required files exist; manifest
    checksums match; every record parses (lenient load, bad records
    counted as errors); timestamps are finite; record counts match the
    manifest; neither feed has gaps wildly out of scale with its own
    cadence (reported as warnings — a quiet night is not corruption);
    and no analysis-result cache (the corpus-local default, plus
    ``cache_dir`` when given) holds entries keyed to a corpus digest the
    current manifest no longer matches — serving those would silently
    report another corpus's numbers.
    """
    import numpy as np

    from repro.corpus.control import ControlPlaneCorpus
    from repro.corpus.data import DataPlaneCorpus

    corpus_dir = Path(corpus_dir)
    report = ValidationReport(corpus_dir=str(corpus_dir))
    if not corpus_dir.is_dir():
        report.error("missing-dir", f"{corpus_dir} is not a directory")
        return report

    for required in (CONTROL_FILE, DATA_FILE, META_FILE):
        if not (corpus_dir / required).exists():
            report.error("missing-file", f"{required} not found")
    if not report.ok:
        return report

    manifest: Optional[dict] = None
    try:
        manifest = read_manifest(corpus_dir)
    except FileNotFoundError:
        report.warning("no-manifest",
                       f"{MANIFEST_FILE} absent; checksums not verifiable")
    except (OSError, ValueError) as exc:
        report.error("bad-manifest", f"{MANIFEST_FILE} unreadable: {exc}")

    if manifest is not None:
        run = manifest.get("run")
        if isinstance(run, dict):
            report.run_manifest = run
        for name, meta in manifest["files"].items():
            failed = verify_file(corpus_dir / name, meta)
            if failed == "missing":
                report.error("missing-file",
                             f"{name} listed in manifest but absent")
            elif failed == "size":
                report.error("size-mismatch",
                             f"{name}: {(corpus_dir / name).stat().st_size} "
                             f"bytes on disk, {meta.get('bytes')} in "
                             "manifest")
            elif failed == "sha256":
                report.error("checksum-mismatch",
                             f"{name}: SHA-256 differs from manifest")

    control_only = False
    try:
        meta = json.loads((corpus_dir / META_FILE).read_text())
        # tap corpora ingest control-plane feeds only; their empty data
        # plane is by construction, not a defect
        control_only = bool(meta.get("tap_session"))
    except (OSError, ValueError) as exc:
        report.error("bad-metadata", f"{META_FILE} unreadable: {exc}")

    control = None
    try:
        control = ControlPlaneCorpus.load_jsonl(
            corpus_dir / CONTROL_FILE, on_error="skip")
        report.control_ingest = control.ingest_report
        if not control.ingest_report.ok:
            report.error(
                "bad-records",
                f"{CONTROL_FILE}: {control.ingest_report.skipped} of "
                f"{control.ingest_report.total} records malformed")
        if len(control) == 0:
            report.error("empty-corpus", f"{CONTROL_FILE}: no usable records")
    except ReproError as exc:
        report.error("unreadable", f"{CONTROL_FILE}: {exc}")

    data = None
    try:
        data = DataPlaneCorpus.load_npz(corpus_dir / DATA_FILE,
                                        on_error="skip")
        report.data_ingest = data.ingest_report
        if not data.ingest_report.ok:
            report.error(
                "bad-records",
                f"{DATA_FILE}: {data.ingest_report.skipped} of "
                f"{data.ingest_report.total} records malformed")
        if len(data) == 0:
            if control_only:
                report.warning("empty-data-plane",
                               f"{DATA_FILE}: control-only tap corpus")
            else:
                report.error("empty-corpus",
                             f"{DATA_FILE}: no usable records")
    except ReproError as exc:
        report.error("unreadable", f"{DATA_FILE}: {exc}")

    if manifest is not None:
        counts = manifest.get("counts", {})
        recorded = counts.get("control_messages")
        if control is not None and recorded is not None \
                and control.ingest_report.total != recorded:
            report.error("count-mismatch",
                         f"{CONTROL_FILE}: {control.ingest_report.total} "
                         f"records on disk, {recorded} in manifest")
        recorded = counts.get("data_packets")
        if data is not None and recorded is not None \
                and data.ingest_report.total != recorded:
            report.error("count-mismatch",
                         f"{DATA_FILE}: {data.ingest_report.total} "
                         f"records on disk, {recorded} in manifest")

    if control is not None and len(control) >= 3:
        times = np.array([m.time for m in control])
        report.control_gaps = _find_gaps(times, min_gap, gap_factor)
        for start, end in report.control_gaps:
            report.warning("feed-gap",
                           f"{CONTROL_FILE}: {end - start:.0f}s silence at "
                           f"t={start:.0f}")
    if data is not None and len(data) >= 3:
        report.data_gaps = _find_gaps(data.packets["time"], min_gap,
                                      gap_factor)
        for start, end in report.data_gaps:
            report.warning("feed-gap",
                           f"{DATA_FILE}: {end - start:.0f}s silence at "
                           f"t={start:.0f}")

    if control is not None and data is not None \
            and len(control) and len(data):
        overlap_start = max(control.start_time, data.start_time)
        overlap_end = min(control.end_time, data.end_time)
        if overlap_end <= overlap_start:
            report.warning("span-mismatch",
                           "control and data feeds do not overlap in time")

    from repro.doctor.scrub import audit_caches

    # only a stale entry is an error here: garbled and wrong-version
    # entries are silent cache misses, which the doctor reports
    current, audited = audit_caches(corpus_dir, cache_dir)
    for entry in audited:
        if entry.verdict == "stale":
            recorded = str(entry.record.get("corpus_digest"))[:12]
            report.error(
                "stale-cache",
                f"{entry.path.parent.parent}: cached result for "
                f"{entry.record.get('name')!r} is keyed to corpus digest "
                f"{recorded}… but this corpus digests to "
                f"{'absent' if current is None else current[:12]}…; drop "
                "the cache or re-run analyze")
    return report
