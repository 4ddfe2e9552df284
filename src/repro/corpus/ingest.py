"""Per-record error policies and ingest accounting shared by both loaders.

Every corpus loader accepts an ``on_error`` policy:

``strict``
    The first malformed record raises :class:`~repro.errors.IngestError`
    (a :class:`~repro.errors.CorpusError`).  The default — a clean corpus
    must load silently, a dirty one must not load at all.
``skip``
    Malformed records are dropped; counts and capped per-record reasons
    accumulate in an :class:`IngestReport` attached to the corpus.
``collect``
    Like ``skip``, but the raw offending payloads are also retained (and
    written to a quarantine file when the loader is given one) for offline
    forensics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Set, Union

from repro.errors import IngestError


class ErrorPolicy(str, Enum):
    """The per-record error policies, as a proper enum.

    A :class:`str` subclass, so every call site that compares against the
    literal names (``policy == "skip"``) keeps working, and either a
    member or its string value is accepted wherever a policy is expected
    (see :func:`check_policy`).
    """

    STRICT = "strict"
    SKIP = "skip"
    COLLECT = "collect"

    # render as the bare value everywhere (f-strings, json, logs)
    __str__ = str.__str__
    __format__ = str.__format__


#: the three supported per-record error policies (string values)
POLICIES = tuple(p.value for p in ErrorPolicy)

#: cap on per-record detail kept in memory; counts are always exact
MAX_PROBLEMS = 50
#: cap on raw quarantined payloads kept in memory under ``collect``
MAX_QUARANTINED = 1_000


def check_policy(policy: Union[str, ErrorPolicy]) -> ErrorPolicy:
    """Validate an ``on_error`` policy, returning the :class:`ErrorPolicy`.

    Accepts either an :class:`ErrorPolicy` member or one of the string
    values in :data:`POLICIES`; anything else raises
    :class:`~repro.errors.IngestError`.
    """
    try:
        return ErrorPolicy(policy)
    except ValueError:
        raise IngestError(
            f"unknown error policy {policy!r}; expected one of {POLICIES}"
        ) from None


@dataclass(frozen=True)
class IngestProblem:
    """One malformed record: where it was and why it was rejected."""

    location: str
    reason: str

    def __str__(self) -> str:
        return f"{self.location}: {self.reason}"


@dataclass
class IngestReport:
    """What ingestion kept, dropped, and why.

    ``total`` counts records seen, ``loaded`` records kept, ``skipped``
    records rejected.  ``problems`` holds the first :data:`MAX_PROBLEMS`
    reasons; ``skipped`` stays exact even past the cap.
    """

    source: str
    policy: str
    total: int = 0
    loaded: int = 0
    skipped: int = 0
    problems: List[IngestProblem] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    quarantine_path: Optional[str] = None
    #: payloads suppressed because their checksum was already quarantined
    #: (a re-ingested corpus must not double-count its quarantine store)
    quarantine_duplicates: int = 0
    #: SHA-256 digests of every payload seen (pre-seeded from an existing
    #: quarantine file), the dedupe key for :attr:`quarantined`
    quarantine_digests: Set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        """True when every record seen was loaded."""
        return self.skipped == 0

    def seed_quarantine_digests(self, payloads: Iterable[str]) -> None:
        """Register payloads already quarantined by an earlier pass so they
        are not quarantined (and counted) again — records are identified
        by checksum, not position."""
        for payload in payloads:
            self.quarantine_digests.add(payload_digest(payload))

    def _quarantine(self, payload: str) -> None:
        digest = payload_digest(payload)
        if digest in self.quarantine_digests:
            self.quarantine_duplicates += 1
            return
        self.quarantine_digests.add(digest)
        if len(self.quarantined) < MAX_QUARANTINED:
            self.quarantined.append(payload)

    def record_problem(self, location: str, reason: str,
                       payload: Optional[str] = None) -> None:
        self.skipped += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(IngestProblem(location=location, reason=reason))
        if payload is not None and self.policy == "collect":
            self._quarantine(payload)

    def merge_from(self, other: "IngestReport") -> None:
        """Fold a later validation pass into this report (counts add;
        ``loaded`` is overwritten by the caller once final)."""
        self.skipped += other.skipped
        for problem in other.problems:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)
        for payload in other.quarantined:
            self._quarantine(payload)

    def format(self) -> str:
        lines = [
            f"ingest {self.source} [{self.policy}]: "
            f"{self.loaded}/{self.total} records loaded, {self.skipped} skipped"
        ]
        for problem in self.problems:
            lines.append(f"  {problem}")
        if self.skipped > len(self.problems):
            lines.append(f"  … and {self.skipped - len(self.problems)} more")
        if self.quarantine_path:
            lines.append(f"  quarantine: {self.quarantine_path}")
        if self.quarantine_duplicates:
            lines.append(f"  {self.quarantine_duplicates} record(s) already "
                         "quarantined (deduped by checksum)")
        return "\n".join(lines)


def payload_digest(payload: str) -> str:
    """The dedupe key of one quarantined record: SHA-256 of its bytes."""
    return hashlib.sha256(payload.encode("utf-8", "replace")).hexdigest()
