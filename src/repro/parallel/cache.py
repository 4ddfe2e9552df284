"""Content-addressed analysis result cache.

Re-running ``repro analyze`` on a corpus that has not changed is pure
waste at production scale, so finished analyses can be skipped via a
small on-disk cache.  Entries are *content-addressed*: the key is the
SHA-256 of

* the **corpus digest** — a digest over the per-file checksums recorded
  in the corpus's ``manifest.json`` (so the corpus bytes themselves are
  not re-hashed on every run),
* the **config hash** of the analyze invocation (ingest policy,
  ``host_min_days``, merge Δ — anything that changes results), and
* the analysis name.

A cache hit therefore proves "this exact analysis ran on this exact
corpus under this exact configuration".  Only ``ok``/``degraded``
outcomes are cached — failures are recomputed, matching the resume
semantics of the checkpoint journal.  Like journal resume, a hit
restores the outcome's status/fingerprint but not the in-memory value.

Every entry records the corpus digest it was keyed on, which is what
lets ``repro validate`` detect a *stale* cache: a cache directory whose
entries reference a digest the current manifest no longer matches is an
error, not a pass.  :func:`repro.doctor.scrub.audit_caches` classifies
the entries for both ``validate`` and ``repro doctor``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.core.study import AnalysisOutcome, AnalysisStatus
from repro.corpus.manifest import read_manifest
from repro import telemetry

#: subdirectory holding the per-analysis entries (room for other kinds)
ENTRY_DIR = "analysis"
#: default cache location inside a corpus directory (dot-prefixed, so
#: manifests and corpus checksums never include it)
DEFAULT_CACHE_DIRNAME = ".cache"

ENTRY_VERSION = 1


def corpus_digest(corpus_dir: str | Path) -> Optional[str]:
    """Digest of the corpus *content* as recorded by its manifest.

    Hashes the sorted ``(file name, sha256)`` pairs of ``manifest.json``
    — the manifest's own provenance block (timestamps, git revision) is
    excluded, so regenerating an identical corpus keys identically.
    Returns ``None`` when there is no usable manifest: an unmanifested
    corpus cannot be safely cached against.
    """
    try:
        files = read_manifest(corpus_dir)["files"]
    except (OSError, ValueError):
        return None
    return digest_of_files(files) if files else None


def digest_of_files(files: dict) -> str:
    """The corpus digest for a manifest's ``files`` section."""
    h = hashlib.sha256()
    for name in sorted(files):
        meta = files[name] if isinstance(files[name], dict) else {}
        h.update(name.encode("utf-8") + b"\0")
        h.update(str(meta.get("sha256")).encode("utf-8") + b"\n")
    return h.hexdigest()


class ResultCache:
    """One cache directory of content-addressed analysis outcomes.

    ``max_bytes`` bounds the entry directory: once a ``put`` pushes the
    total size of entries past the budget, the least-recently-used
    entries (by mtime — ``get`` touches entries it serves) are evicted
    until the cache fits again.  Unbounded by default, matching the
    previous behaviour.
    """

    def __init__(self, root: str | Path, *,
                 max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.max_bytes = max_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r})"

    @classmethod
    def for_corpus(cls, corpus_dir: str | Path, *,
                   max_bytes: Optional[int] = None) -> "ResultCache":
        """The default cache location for a corpus directory."""
        return cls(Path(corpus_dir) / DEFAULT_CACHE_DIRNAME,
                   max_bytes=max_bytes)

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def key(corpus: str, config_hash: Optional[str], name: str) -> str:
        payload = f"{corpus}\0{config_hash}\0{name}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]

    def _entry_path(self, key: str) -> Path:
        return self.root / ENTRY_DIR / f"{key}.json"

    # -- lookup / store -------------------------------------------------------

    def get(self, corpus: str, config_hash: Optional[str],
            name: str) -> Optional[AnalysisOutcome]:
        """The cached outcome for this (corpus, config, analysis), if any.

        An unreadable or mismatching entry is treated as a miss — the
        analysis simply recomputes.  ``repro doctor`` reports garbled and
        wrong-version entries; ``repro validate`` reports entries keyed
        to a corpus digest that no longer matches.
        """
        path = self._entry_path(self.key(corpus, config_hash, name))
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (entry.get("version") != ENTRY_VERSION
                or entry.get("corpus_digest") != corpus
                or entry.get("config_hash") != config_hash
                or entry.get("name") != name):
            return None
        raw = entry.get("outcome") or {}
        try:
            outcome = AnalysisOutcome(
                name=name, status=AnalysisStatus(raw["status"]),
                value=None, error=raw.get("error"),
                error_type=raw.get("error_type"),
                seconds=float(raw.get("seconds", 0.0)),
                attempts=int(raw.get("attempts", 1)),
                timeouts=int(raw.get("timeouts", 0)),
                value_digest=raw.get("value_digest"),
                cached=True,
            )
        except (KeyError, ValueError):
            return None
        if outcome.status is AnalysisStatus.FAILED:
            return None  # never serve failures from cache
        try:
            os.utime(path)  # LRU touch: a served entry is a live entry
        except OSError:
            pass
        telemetry.current().counter("cache.hits", name=name).inc()
        return outcome

    def put(self, corpus: str, config_hash: Optional[str],
            outcome: AnalysisOutcome) -> Optional[Path]:
        """Store a terminal outcome; failures are deliberately not cached."""
        if outcome.status is AnalysisStatus.FAILED:
            return None
        from repro.runtime.atomic import atomic_write_text

        path = self._entry_path(
            self.key(corpus, config_hash, outcome.name))
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": ENTRY_VERSION,
            "name": outcome.name,
            "corpus_digest": corpus,
            "config_hash": config_hash,
            "created_unix": time.time(),
            "outcome": {
                "status": outcome.status.value,
                "error": outcome.error,
                "error_type": outcome.error_type,
                "seconds": outcome.seconds,
                "attempts": outcome.attempts,
                "timeouts": outcome.timeouts,
                "value_digest": outcome.value_digest,
            },
        }
        atomic_write_text(path, json.dumps(entry, indent=2))
        telemetry.current().counter("cache.stores", name=outcome.name).inc()
        self._enforce_budget(keep=path)
        return path

    def _enforce_budget(self, keep: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until the cache fits.

        The entry just written (``keep``) is never evicted — a budget
        smaller than one entry must not turn every ``put`` into a no-op.
        Returns the number of entries evicted.
        """
        if self.max_bytes is None:
            return 0
        entry_dir = self.root / ENTRY_DIR
        if not entry_dir.is_dir():
            return 0
        candidates = []
        total = 0
        for path in entry_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            candidates.append((stat.st_mtime, stat.st_size, path))
        evicted = 0
        for _, size, path in sorted(candidates):
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            telemetry.current().counter("cache.evictions",
                                        reason="size").inc()
        return evicted

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[Tuple[Path, dict]]:
        """Every readable entry in the cache (path, parsed JSON)."""
        entry_dir = self.root / ENTRY_DIR
        if not entry_dir.is_dir():
            return
        for path in sorted(entry_dir.glob("*.json")):
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(entry, dict):
                yield path, entry
