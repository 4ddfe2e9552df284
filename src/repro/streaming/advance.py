"""``repro advance``: extend a generated corpus by N days, incrementally.

The scenario generator is seeded but *not* prefix-deterministic across
durations — regenerating a longer scenario changes earlier days too.  So
``advance`` uses continuation semantics: the committed on-disk day
segments stay authoritative for the existing prefix, and only the day
slices *beyond* the current day count of a regenerated longer run are
appended (each filtered against the previous committed maximum timestamp
so the concatenated corpus stays time-sorted even around the clamped
last-day overflow).  :func:`~repro.runtime.generate.finalize` then
rebuilds the corpus files, ``platform.json`` (original
membership/PeeringDB preserved — only ``duration_days`` moves), the
manifest and the ``finalize`` journal entry from the full segment set.

Every new segment is committed to the same checkpoint journal the
generation wrote, so a concurrently running ``repro watch`` picks the
new days up as ordinary journal tail growth, and a crashed ``advance``
re-run skips the segments it already committed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.corpus.manifest import read_manifest, verify_file
from repro.errors import StreamError
from repro.runtime.atomic import remove_stale_tmp
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    _segment_name,
    committed_days,
    finalize,
    write_segment,
)
from repro.corpus.platform import read_platform_meta
from repro.scenario.config import ScenarioConfig
from repro.scenario.runner import run_scenario


@dataclass
class AdvanceReport:
    """What one (possibly resumed) incremental extension did."""

    out_dir: str
    days_added: int
    day_count: int
    segments_written: int = 0
    segments_skipped: int = 0
    #: regenerated records overlapping the old corpus tail, dropped to
    #: keep the concatenated corpus time-sorted
    records_dropped: int = 0
    control_messages: int = 0
    data_packets: int = 0
    #: metrics snapshot from the active telemetry context, when one was
    #: collecting (the ``advance --json`` surface)
    telemetry: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "out_dir": self.out_dir,
            "days_added": self.days_added,
            "day_count": self.day_count,
            "segments_written": self.segments_written,
            "segments_skipped": self.segments_skipped,
            "records_dropped": self.records_dropped,
            "control_messages": self.control_messages,
            "data_packets": self.data_packets,
            "telemetry": self.telemetry,
        }

    def format(self) -> str:
        line = (f"advanced {self.out_dir}/ by {self.days_added} day(s) to "
                f"{self.day_count}: {self.segments_written} new segments "
                f"({self.segments_skipped} already committed), now "
                f"{self.control_messages} control messages, "
                f"{self.data_packets} sampled packets")
        if self.records_dropped:
            line += (f"; dropped {self.records_dropped} overlapping "
                     "regenerated records")
        return line


def _provenance(meta: dict, corpus_dir: Path) -> tuple:
    try:
        return (float(meta["scale"]), int(meta["duration_days"]),
                int(meta["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamError(
            f"{corpus_dir}: platform.json lacks the generation provenance "
            f"(scale/duration_days/seed) advance needs: {exc}; only corpora "
            "written by `repro generate` can be advanced") from exc


def _tail_fence(corpus_dir: Path, old_days: int) -> float:
    """Max committed timestamp across *both* planes' last segments.

    One shared fence, not per-plane: the committed last day holds the old
    run's clamped overflow, so the two planes' tails end at different
    times.  Filtering each plane only against its own tail would let an
    appended packet land *before* the committed control maximum — i.e.
    inside a window fragment the streaming traffic reducer has already
    accumulated past, silently diverging from batch.  With the shared
    fence every appended record of either plane postdates everything the
    watcher has consumed.
    """
    seg_dir = corpus_dir / SEGMENT_DIR
    fence = float("-inf")
    with open(seg_dir / _segment_name("control", old_days - 1),
              encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                fence = max(fence, float(json.loads(line)["time"]))
    with np.load(seg_dir / _segment_name("data", old_days - 1)) as archive:
        times = archive["packets"]["time"]
        if len(times):
            fence = max(fence, float(times.max()))
    return fence


def advance_corpus(corpus_dir: str | Path, days: int) -> AdvanceReport:
    """Extend a kept-segments corpus by ``days`` more days; see module doc.

    Raises :class:`~repro.errors.StreamError` when the directory lacks
    the committed segments (``generate --keep-segments``) or the
    provenance metadata an extension needs.
    """
    if days < 1:
        raise StreamError(f"cannot advance by {days} day(s)")
    out = Path(corpus_dir)
    telem = telemetry.current()
    meta = read_platform_meta(out)
    scale, old_days_meta, seed = _provenance(meta, out)

    journal_path = out / JOURNAL_FILE
    if not journal_path.exists():
        raise StreamError(
            f"{out}: no checkpoint journal; only corpora written by "
            "`repro generate` can be advanced")
    journal = CheckpointJournal.load(journal_path)
    old_days = len(committed_days(journal))
    if old_days == 0:
        raise StreamError(f"{out}: journal holds no committed day segments")
    seg_dir = out / SEGMENT_DIR
    for day in range(old_days):
        for plane in ("control", "data"):
            if not (seg_dir / _segment_name(plane, day)).exists():
                raise StreamError(
                    f"{out}: committed segment "
                    f"{_segment_name(plane, day)} is missing on disk; "
                    "generate with --keep-segments to allow advancing")
    remove_stale_tmp(out)
    remove_stale_tmp(seg_dir)

    # target day count: N beyond the last *finalized* duration.  After a
    # crash between the segment commits and finalize, the journal is
    # ahead of platform.json — re-running the same advance then resumes
    # the interrupted extension (writing nothing new) instead of piling
    # N further days on top of it.
    new_days = max(old_days_meta + days, old_days)
    report = AdvanceReport(out_dir=str(out), days_added=days,
                           day_count=new_days)
    if new_days > old_days:
        config = ScenarioConfig.paper(scale=scale, duration_days=new_days,
                                      seed=seed)
        with telem.span("advance.scenario", days=new_days):
            result = run_scenario(config)

        fence = _tail_fence(out, old_days)
        control_slices = result.control_day_slices()
        data_slices = result.data_day_slices()
        with telem.span("advance.segments", out=str(out),
                        new_days=new_days - old_days):
            for day in range(old_days, new_days):
                for plane, chunk in (("control", control_slices[day]),
                                     ("data", data_slices[day])):
                    chunk, dropped = _filter_chunk(plane, chunk, fence)
                    report.records_dropped += dropped
                    path = seg_dir / _segment_name(plane, day)
                    entry = journal.committed(_segment_key(plane, day))
                    if entry is not None \
                            and verify_file(path, entry) is None:
                        report.segments_skipped += 1
                        continue
                    journal.commit(_segment_key(plane, day),
                                   **write_segment(seg_dir, plane, day,
                                                   chunk))
                    report.segments_written += 1
                    telem.counter("advance.segments", plane=plane).inc()

    try:  # the original generation's provenance record is carried forward
        run = read_manifest(out).get("run")
    except (OSError, ValueError):
        run = None
    with telem.span("advance.finalize") as sp:
        # membership / PeeringDB / route server stay those of the original
        # generation — the regenerated longer scenario's platform may
        # differ, but the appended traffic was filtered against the
        # committed prefix, which was produced under the original platform
        counts = finalize(out, journal, new_days,
                          sampling_rate=int(meta.get("sampling_rate",
                                                     10_000)),
                          meta=dict(meta, duration_days=new_days),
                          run=run if isinstance(run, dict) else None,
                          span=sp)
    report.control_messages = counts["control_messages"]
    report.data_packets = counts["data_packets"]
    telem.event("stream.advanced", out=str(out), days_added=days,
                day_count=new_days,
                segments_written=report.segments_written)
    if telem.enabled:
        report.telemetry = telem.metrics_snapshot()
    return report


def _filter_chunk(plane: str, chunk, fence: float) -> tuple:
    """Drop regenerated records that predate the committed tail."""
    if plane == "control":
        kept = [msg for msg in chunk if msg.time >= fence]
        return kept, len(chunk) - len(kept)
    keep = chunk["time"] >= fence
    return chunk[keep], int(len(chunk) - keep.sum())
