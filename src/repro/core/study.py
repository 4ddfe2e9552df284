"""Per-analysis outcome tracking for degraded-mode studies.

``AnalysisPipeline.run_all(strict=False)`` executes every figure/table of
the study behind typed-exception capture and returns a :class:`StudyReport`
instead of dying on the first bad analysis — the behaviour a long-running
measurement service needs when one day's feed is rotten but the other
nineteen figures are fine.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.errors import ReproError


class AnalysisStatus(str, Enum):
    """How one analysis fared against (possibly degraded) corpora."""

    #: produced a result from fully-clean inputs
    OK = "ok"
    #: produced a result, but ingestion had dropped records on the way in
    DEGRADED = "degraded"
    #: raised a typed :class:`~repro.errors.ReproError`
    FAILED = "failed"


@dataclass
class AnalysisOutcome:
    """One analysis's result or typed failure."""

    name: str
    status: AnalysisStatus
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    seconds: float = 0.0
    #: executions it took to reach this terminal outcome (supervised runs
    #: may retry transient failures; unsupervised runs always report 1)
    attempts: int = 1
    #: attempts killed at the supervisor's wall-clock timeout
    timeouts: int = 0
    #: canonical SHA-256 of the value (:mod:`repro.parallel.golden`),
    #: filled for every successful run; survives even when the
    #: value itself could not cross a worker's pickle pipe
    value_digest: Optional[str] = None
    #: True when this outcome was served from the content-addressed
    #: result cache instead of being recomputed
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status is not AnalysisStatus.FAILED


@dataclass
class StudyReport:
    """Every analysis's outcome, in pipeline order."""

    outcomes: List[AnalysisOutcome] = field(default_factory=list)
    #: corpus-level context (ingest losses etc.) the statuses derive from
    warnings: List[str] = field(default_factory=list)
    #: metrics snapshot from the active telemetry context, when one was
    #: enabled during ``run_all`` (None under the null backend)
    telemetry: Optional[dict] = None

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> bool:
        """True when no analysis failed (degraded still counts as usable)."""
        return all(o.ok for o in self.outcomes)

    @property
    def all_degraded(self) -> bool:
        """True when *every* analysis ran but none ran on clean inputs.

        A fully-degraded study is technically "ok" (nothing failed), yet
        no figure can be trusted at face value — the CLI surfaces this as
        its own exit code (4) so CI catches silent full degradation.
        """
        return bool(self.outcomes) and all(
            o.status is AnalysisStatus.DEGRADED for o in self.outcomes)

    def counts(self) -> Dict[AnalysisStatus, int]:
        out = {status: 0 for status in AnalysisStatus}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out

    def outcome(self, name: str) -> AnalysisOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def value(self, name: str, default: Any = None) -> Any:
        """The analysis result, or ``default`` if it failed / is absent."""
        for o in self.outcomes:
            if o.name == name:
                return o.value if o.ok else default
        return default

    def failed(self) -> List[AnalysisOutcome]:
        return [o for o in self.outcomes if o.status is AnalysisStatus.FAILED]

    def to_json(self) -> dict:
        """A machine-readable report: statuses, timings, warnings, metrics.

        Analysis *values* are rich python objects and are deliberately not
        serialized; scripts consuming this JSON get the statuses, errors
        and timings — the shape CI needs to gate on.
        """
        counts = self.counts()
        return {
            "ok": self.ok,
            "all_degraded": self.all_degraded,
            "counts": {status.value: counts[status]
                       for status in AnalysisStatus},
            "warnings": list(self.warnings),
            "analyses": [
                {
                    "name": o.name,
                    "status": o.status.value,
                    "seconds": o.seconds,
                    "error": o.error,
                    "error_type": o.error_type,
                    "attempts": o.attempts,
                    "timeouts": o.timeouts,
                    "value_digest": o.value_digest,
                    "cached": o.cached,
                }
                for o in self.outcomes
            ],
            "telemetry": self.telemetry,
        }

    def canonical_json(self) -> str:
        """A byte-stable projection of the report for equivalence checks.

        Everything execution-dependent — timings, attempt counts, cache
        hits, telemetry — is stripped; what remains (statuses, warnings,
        errors, value fingerprints) must be identical between a serial
        run and any ``--jobs N`` run of the same corpus.  The golden
        suite compares these strings byte for byte.
        """
        import json

        payload = {
            "ok": self.ok,
            "all_degraded": self.all_degraded,
            "warnings": list(self.warnings),
            "analyses": [
                {
                    "name": o.name,
                    "status": o.status.value,
                    "error": o.error,
                    "error_type": o.error_type,
                    "value_digest": o.value_digest,
                }
                for o in self.outcomes
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def format(self) -> str:
        counts = self.counts()
        lines = [
            f"study report: {counts[AnalysisStatus.OK]} ok, "
            f"{counts[AnalysisStatus.DEGRADED]} degraded, "
            f"{counts[AnalysisStatus.FAILED]} failed"
        ]
        for warning in self.warnings:
            lines.append(f"  ! {warning}")
        width = max((len(o.name) for o in self.outcomes), default=0)
        for o in self.outcomes:
            line = f"  {o.name.ljust(width)}  {o.status.value:8s}"
            if o.cached:
                line += "  (cached)"
            if o.attempts > 1:
                line += f"  [{o.attempts} attempts, {o.timeouts} timeouts]"
            if o.error is not None:
                line += f"  {o.error_type}: {o.error}"
            lines.append(line)
        return "\n".join(lines)


def run_analysis(name: str, fn, *, strict: bool,
                 degraded_inputs: bool) -> AnalysisOutcome:
    """Execute one zero-arg analysis under the capture policy.

    Typed :class:`ReproError` failures are captured (or re-raised when
    ``strict``); anything else is a programming error and always
    propagates — graceful degradation must never paper over bugs.

    A successful outcome carries the canonical SHA-256 of its value
    (see :mod:`repro.parallel.golden`), computed here so equivalence
    between runs stays checkable even for values that cannot pickle.
    """
    from repro.parallel.golden import value_fingerprint

    base = (AnalysisStatus.DEGRADED if degraded_inputs else AnalysisStatus.OK)
    start = _time.perf_counter()
    try:
        value = fn()
    except ReproError as exc:
        if strict:
            raise
        return AnalysisOutcome(
            name=name, status=AnalysisStatus.FAILED,
            error=str(exc), error_type=type(exc).__name__,
            seconds=_time.perf_counter() - start)
    digest = value_fingerprint(value)
    return AnalysisOutcome(name=name, status=base, value=value,
                           seconds=_time.perf_counter() - start,
                           value_digest=digest)
