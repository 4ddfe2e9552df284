"""The streaming analysis report.

A :class:`StreamReport` wraps the per-analysis outcomes of one watch
tick's report pass, plus the streaming context a batch
:class:`~repro.core.study.StudyReport` has no notion of: the watermark
(days consumed), how each analysis was produced (incrementally from
reducer state, recomputed batch-style, or served from the result cache),
and the consumed-segment count.

The load-bearing guarantee — asserted by the golden suite and the CI
watch-smoke job — is that :meth:`fingerprints` equals the batch study's
fingerprints for the same corpus prefix: streaming must change *when*
numbers are computed, never the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.study import AnalysisStatus, StudyReport

#: how one analysis's outcome was produced this tick
MODE_INCREMENTAL = "incremental"
MODE_BATCH = "batch"
MODE_CACHED = "cached"


@dataclass
class StreamReport:
    """Outcomes of one streaming report pass over a corpus prefix."""

    corpus: str
    watermark_days: int
    segments_consumed: int
    study: StudyReport = field(default_factory=StudyReport)
    #: analysis name -> "incremental" | "batch" | "cached"
    modes: Dict[str, str] = field(default_factory=dict)
    #: tap name -> supervisor status dict (None: no taps attached)
    taps: Optional[Dict[str, dict]] = None

    @property
    def ok(self) -> bool:
        return self.study.ok

    @property
    def all_degraded(self) -> bool:
        return self.study.all_degraded

    @property
    def tap_degraded(self) -> bool:
        """True when any attached tap died permanently this session.

        A degraded session is still *live* — surviving taps keep
        advancing the reducers — but operators must know the corpus
        prefix no longer reflects every configured feed.
        """
        return bool(self.taps) and any(
            entry.get("state") == "dead" for entry in self.taps.values())

    def fingerprints(self) -> Dict[str, Optional[str]]:
        """Per-analysis canonical value fingerprints (None for failures).

        Must equal the batch study's fingerprints for the same corpus
        prefix — the streaming-equivalence invariant.
        """
        return {o.name: o.value_digest for o in self.study.outcomes}

    def to_json(self) -> dict:
        payload = self.study.to_json()
        payload["stream"] = {
            "corpus": self.corpus,
            "watermark_days": self.watermark_days,
            "segments_consumed": self.segments_consumed,
            "modes": dict(self.modes),
        }
        if self.taps is not None:
            payload["stream"]["taps"] = {
                name: dict(entry) for name, entry in self.taps.items()}
            payload["stream"]["degraded"] = self.tap_degraded
        return payload

    def format(self) -> str:
        counts = self.study.counts()
        lines = [
            f"stream report: watermark day {self.watermark_days} "
            f"({self.segments_consumed} segments consumed) — "
            f"{counts[AnalysisStatus.OK]} ok, "
            f"{counts[AnalysisStatus.DEGRADED]} degraded, "
            f"{counts[AnalysisStatus.FAILED]} failed"
        ]
        for warning in self.study.warnings:
            lines.append(f"  ! {warning}")
        width = max((len(o.name) for o in self.study.outcomes), default=0)
        for o in self.study.outcomes:
            mode = self.modes.get(o.name, MODE_BATCH)
            line = (f"  {o.name.ljust(width)}  {o.status.value:8s}  "
                    f"[{mode}]")
            if o.error is not None:
                line += f"  {o.error_type}: {o.error}"
            lines.append(line)
        if self.taps:
            lines.append("taps:" + (" DEGRADED" if self.tap_degraded
                                    else ""))
            width = max(len(name) for name in self.taps)
            for name, entry in sorted(self.taps.items()):
                line = (f"  {name.ljust(width)}  "
                        f"{entry.get('state', '?'):12s}  "
                        f"ok={entry.get('records_ok', 0)}  "
                        f"malformed={entry.get('records_malformed', 0)}")
                if entry.get("last_error"):
                    line += f"  [{entry['last_error']}]"
                lines.append(line)
        return "\n".join(lines)
