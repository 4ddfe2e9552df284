"""Atomic, checkpointed corpus generation.

``repro generate`` routes through :func:`checkpointed_generate`: the
scenario runs in memory exactly as before (it is deterministic in the
seed), but the corpus is persisted in *day-sized segments*, each written
atomically (temp file + fsync + rename) and committed to a
:class:`~repro.runtime.checkpoint.CheckpointJournal` with its SHA-256.
The final corpus files are then assembled *from the committed segments*
and written atomically too, so ``manifest.json`` never describes a
half-written directory.

Resume semantics (``repro generate --resume``):

* the journal header must match the requested command/seed/config hash,
  otherwise :class:`~repro.errors.CheckpointError`;
* a run whose ``finalize`` step is journaled returns immediately;
* otherwise the scenario is re-executed (cheap relative to I/O at
  production scale, and byte-deterministic), already-committed segments
  whose on-disk checksum still matches are skipped, and the remaining
  segments plus finalize are redone.

Because segments are contiguous time slices of the sorted corpora,
concatenating them reproduces exactly the bytes an uninterrupted run
writes — the chaos tests assert the checksums match.

This module is the only one that knows the commit log's on-disk layout.
``generate``, ``repro advance``, the tap session and ``repro doctor``
all go through :func:`write_segment` / :func:`segment_entry` (a day
segment and its journal entry), :func:`committed_days` (the contiguous
day prefix with both planes committed) and :func:`finalize` (the corpus
files, ``platform.json``, manifest and ``finalize`` commit).

With ``jobs > 1`` the day segments are fanned across forked workers.
Workers only *write* (atomically, under unique temp names); every
journal commit stays in the parent — a single journal writer keeps the
append-only file coherent and keeps the chaos hook (which fires inside
``commit``) meaningful.  Segment bytes are deterministic regardless of
worker count, and ``--resume`` semantics are unchanged: a parallel run
can resume a serial one and vice versa.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple, Union

from repro import telemetry
from repro.corpus.manifest import (
    CONTROL_FILE,
    DATA_FILE,
    MANIFEST_FILE,
    file_sha256,
    verify_file,
    write_manifest,
)
from repro.errors import CheckpointError
from repro.runtime.atomic import atomic_writer, remove_stale_tmp
from repro.runtime.checkpoint import CheckpointJournal

if TYPE_CHECKING:
    from repro.scenario.config import ScenarioConfig
    from repro.scenario.runner import ScenarioResult
    from repro.telemetry.trace import Span

# ``repro doctor`` and ``repro validate`` read the commit-log layout
# below, so numpy, the scenario and the record codecs are imported by
# the functions that write segments, never at module level.

#: journal + scratch locations inside the output corpus directory; both
#: are dot-prefixed so manifests exclude them (see ``build_manifest``)
JOURNAL_FILE = ".checkpoint.jsonl"
SEGMENT_DIR = ".segments"

FINALIZE_KEY = "finalize"


@dataclass
class GenerateReport:
    """What one (possibly resumed) checkpointed generation did."""

    out_dir: str
    control_messages: int = 0
    data_packets: int = 0
    segments_total: int = 0
    segments_written: int = 0
    segments_skipped: int = 0
    resumed: bool = False
    already_complete: bool = False
    manifest_path: Optional[str] = None

    def format(self) -> str:
        if self.already_complete:
            return (f"{self.out_dir}: already complete "
                    f"({self.segments_total} segments journaled); "
                    "nothing to do")
        verb = "resumed" if self.resumed else "wrote"
        return (f"{verb} {self.control_messages} control messages, "
                f"{self.data_packets} sampled packets in "
                f"{self.segments_total} day segments "
                f"({self.segments_skipped} already committed), "
                f"platform metadata, and {MANIFEST_FILE} to {self.out_dir}/")


def _segment_key(plane: str, day: int) -> str:
    return f"segment:{plane}:{day:03d}"


def _segment_name(plane: str, day: int) -> str:
    suffix = "jsonl" if plane == "control" else "npz"
    return f"{plane}-{day:03d}.{suffix}"


def _header(config: ScenarioConfig) -> dict:
    return {
        "command": "generate",
        "seed": config.seed,
        "config_hash": telemetry.config_hash(config),
    }


def checkpointed_generate(
    config: ScenarioConfig,
    out_dir: str | Path,
    *,
    resume: bool = False,
    run: Optional[dict] = None,
    extra_meta: Optional[dict] = None,
    jobs: int = 1,
    keep_segments: bool = False,
) -> GenerateReport:
    """Generate (or finish generating) a corpus directory crash-safely.

    ``run`` is the telemetry run manifest embedded into
    ``manifest.json``; ``extra_meta`` is merged into ``platform.json``
    (the CLI records scale/days/seed there).  ``jobs`` fans the segment
    writes across that many forked workers (0 = all CPUs); the output
    bytes are identical for every value.

    ``keep_segments=True`` retains the per-day ``.segments/`` files after
    finalize instead of deleting them — required for streaming consumers
    (``repro watch``) and incremental extension (``repro advance``),
    which treat the committed segments plus the checkpoint journal as an
    append-only commit log.
    """
    from time import perf_counter

    t0 = perf_counter()
    telem = telemetry.current()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seg_dir = out / SEGMENT_DIR
    remove_stale_tmp(out)
    remove_stale_tmp(seg_dir)

    header = _header(config)
    # a fresh run never parses the journal it is about to truncate
    journal = (CheckpointJournal.load(out / JOURNAL_FILE) if resume
               else CheckpointJournal(out / JOURNAL_FILE))
    report = GenerateReport(out_dir=str(out), resumed=resume)
    if resume and journal.header is not None:
        journal.require_header(header)
        finalized = journal.committed(FINALIZE_KEY)
        if finalized is not None and (out / MANIFEST_FILE).exists():
            report.already_complete = True
            # count only day segments — the journal also carries the
            # finalize commit (and, in corpora written by older versions,
            # inert columnar:* commits)
            report.segments_total = sum(
                1 for key in journal.keys() if key.startswith("segment:"))
            report.control_messages = finalized.get("control_messages", 0)
            report.data_packets = finalized.get("data_packets", 0)
            report.manifest_path = str(out / MANIFEST_FILE)
            return report
    else:
        # fresh run: truncate any previous journal and scratch segments
        if seg_dir.exists():
            shutil.rmtree(seg_dir)
        journal.start(header)
        report.resumed = False
    seg_dir.mkdir(exist_ok=True)

    from repro.scenario.runner import run_scenario

    result = run_scenario(config)

    with telem.span("generate.write", out=str(out)):
        with telem.span("generate.segments", days=result.day_count,
                        jobs=jobs):
            _write_segments(result, seg_dir, journal, report, jobs=jobs)
        if run is not None:
            # stamp the elapsed wall time into the embedded provenance
            # record before it is checksummed into the manifest
            run = dict(run)
            run["wall_seconds"] = perf_counter() - t0
        with telem.span("generate.finalize") as sp:
            counts = finalize(out, journal, result.day_count,
                              sampling_rate=result.data.sampling_rate,
                              meta={**_platform_meta(result),
                                    **(extra_meta or {})},
                              run=run, span=sp)
    report.control_messages = counts["control_messages"]
    report.data_packets = counts["data_packets"]
    report.manifest_path = str(out / MANIFEST_FILE)
    if not keep_segments:
        shutil.rmtree(seg_dir, ignore_errors=True)
    return report


def _write_segments(result: ScenarioResult, seg_dir: Path,
                    journal: CheckpointJournal,
                    report: GenerateReport,
                    jobs: int = 1) -> None:
    """Write every day slice of both corpora, skipping committed ones."""
    telem = telemetry.current()
    pending: List[tuple] = []
    control_slices = result.control_day_slices()
    data_slices = result.data_day_slices()
    for plane, slices in (("control", control_slices), ("data", data_slices)):
        for day, chunk in enumerate(slices):
            path = seg_dir / _segment_name(plane, day)
            report.segments_total += 1
            entry = journal.committed(_segment_key(plane, day))
            if entry is not None and verify_file(path, entry) is None:
                report.segments_skipped += 1
                telem.counter("runtime.segments", plane=plane,
                              outcome="skipped").inc()
                continue
            pending.append((plane, day, chunk))

    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(pending) > 1:
        from repro.runtime.supervisor import _fork_context

        ctx = _fork_context()
        if ctx is not None:
            _write_pending_parallel(pending, seg_dir, journal, report,
                                    min(jobs, len(pending)), ctx, telem)
            return

    for plane, day, chunk in pending:
        journal.commit(_segment_key(plane, day),
                       **write_segment(seg_dir, plane, day, chunk))
        report.segments_written += 1
        telem.counter("runtime.segments", plane=plane,
                      outcome="written").inc()


def write_segment(seg_dir: Path, plane: str, day: int, chunk) -> dict:
    """Atomically write one day segment and return its journal entry.

    ``chunk`` is the day's control-plane messages or data-plane packet
    array; the bytes are identical on every path.  The entry is the
    segment's SHA-256, size and record count, committed under
    ``_segment_key(plane, day)``.
    """
    path = seg_dir / _segment_name(plane, day)
    if plane == "control":
        from repro.corpus.control import update_to_json

        with atomic_writer(path) as fh:
            for msg in chunk:
                fh.write(json.dumps(update_to_json(msg)) + "\n")
    else:
        from repro.runtime.npz import write_packet_segment

        with atomic_writer(path, mode="wb") as fh:
            write_packet_segment(fh, chunk)
    return segment_entry(seg_dir, plane, day, records=len(chunk))


def segment_entry(seg_dir: Path, plane: str, day: int,
                  records: Optional[int] = None) -> dict:
    """The journal entry of a segment on disk: SHA-256, size and record
    count, the count read from the file unless ``records`` is given."""
    path = seg_dir / _segment_name(plane, day)
    if records is None and plane == "control":
        records = path.read_bytes().count(b"\n")
    elif records is None:
        import numpy as np

        with np.load(path) as archive:
            records = int(len(archive["packets"]))
    return {"sha256": file_sha256(path), "bytes": path.stat().st_size,
            "records": records}


def committed_days(log: Union[CheckpointJournal, Mapping[str, dict]]
                   ) -> List[Tuple[dict, dict]]:
    """The ``(control, data)`` segment entries of every committed day.

    Days count from 0 and stop at the first day missing either plane's
    commit: that contiguous prefix is what :func:`finalize` assembles and
    what watchers may consume.  ``log`` is a loaded journal or a
    key → entry mapping such as a ``JournalScan``'s ``steps``.
    """
    lookup = log.committed if isinstance(log, CheckpointJournal) else log.get
    days: List[Tuple[dict, dict]] = []
    while True:
        control = lookup(_segment_key("control", len(days)))
        data = lookup(_segment_key("data", len(days)))
        if control is None or data is None:
            return days
        days.append((control, data))


def _segment_worker(conn, tasks, seg_dir: Path, inherited=()) -> None:
    """Child: write a shard of segments, reporting each over the pipe.

    Workers never touch the journal — the parent is the single journal
    writer.  Temp names from ``atomic_writer`` are ``mkstemp``-unique, so
    concurrent workers (or an orphan surviving a killed parent) cannot
    collide; only the atomic rename publishes a segment.  ``inherited``
    are the parent-end pipes the fork copied (this worker's own and its
    earlier siblings'); closing them lets a send fail with EPIPE once
    the parent is gone instead of blocking forever.
    """
    for other in inherited:
        other.close()
    try:
        for plane, day, chunk in tasks:
            conn.send((plane, day,
                       write_segment(seg_dir, plane, day, chunk)))
    finally:
        conn.close()


def _write_pending_parallel(pending, seg_dir: Path,
                            journal: CheckpointJournal,
                            report: GenerateReport, jobs: int, ctx,
                            telem) -> None:
    """Fan pending segments round-robin across ``jobs`` forked workers."""
    from multiprocessing.connection import wait as _wait_connections

    conns = {}
    procs = []
    for i in range(jobs):
        shard = pending[i::jobs]
        if not shard:
            continue
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_segment_worker,
                           args=(child_conn, shard, seg_dir,
                                 (parent_conn, *conns)), daemon=True)
        proc.start()
        child_conn.close()
        conns[parent_conn] = proc
        procs.append(proc)
    telem.gauge("runtime.segment_workers").set(len(procs))
    try:
        while conns:
            for conn in _wait_connections(list(conns)):
                try:
                    plane, day, entry = conn.recv()
                except (EOFError, OSError):
                    proc = conns.pop(conn)
                    conn.close()
                    proc.join()
                    if proc.exitcode:
                        raise CheckpointError(
                            "segment worker died with exit code "
                            f"{proc.exitcode}; re-run with --resume")
                    continue
                journal.commit(_segment_key(plane, day), **entry)
                report.segments_written += 1
                telem.counter("runtime.segments", plane=plane,
                              outcome="written").inc()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join()
        telem.gauge("runtime.segment_workers").set(0)


def finalize(out: Path, journal: CheckpointJournal, days: int, *,
             sampling_rate: int, meta: Optional[dict] = None,
             run: Optional[dict] = None,
             span: Optional[Span] = None) -> dict:
    """Assemble the corpus files from the first ``days`` committed days.

    ``control.jsonl`` is the byte concatenation of the control segments,
    ``data.npz`` one packed array of the data segments (empty when
    ``days`` is 0).  ``meta``, when given, is written as
    ``platform.json`` next; ``None`` leaves the file as it is.  The
    manifest then checksums the directory and the ``finalize`` step is
    committed, so ``platform.json`` never runs ahead of the corpus files.
    Returns the record counts, taken from the bytes read.  ``span``, the
    caller's trace span, gets the segments read, the rows written and how
    many data segments were spliced or re-encoded.

    Each corpus file streams one segment at a time, and ``data.npz``
    reuses the segments' compressed rows (see :func:`_write_data_file`),
    so finalize never holds the whole packet plane nor deflates it again.
    """
    from repro.corpus.platform import write_platform_meta

    entries = committed_days(journal)
    if len(entries) < days:
        raise CheckpointError(
            f"{out}: only {len(entries)} day(s) committed; cannot "
            f"finalize {days}")
    seg_dir = out / SEGMENT_DIR
    control_messages = 0
    with atomic_writer(out / CONTROL_FILE, mode="wb") as fh:
        for day in range(days):
            data = (seg_dir / _segment_name("control", day)).read_bytes()
            control_messages += data.count(b"\n")
            fh.write(data)
    data_packets, spliced, reencoded = _write_data_file(
        out, [data for _control, data in entries[:days]], sampling_rate)
    if meta is not None:
        write_platform_meta(out, meta)
    counts = {"control_messages": control_messages,
              "data_packets": data_packets}
    files = write_manifest(out, counts=counts, run=run)["files"]
    journal.commit(
        FINALIZE_KEY,
        control_sha256=files[CONTROL_FILE]["sha256"],
        data_sha256=files[DATA_FILE]["sha256"],
        **counts,
    )
    if span is not None:
        # the day segments read (two per day), the packet rows written,
        # and how the data segments reached data.npz
        span.attrs.update(segments=2 * days, rows=data_packets,
                          spliced=spliced, reencoded=reencoded)
    return counts


def _write_data_file(out: Path, entries: List[dict],
                     sampling_rate: int) -> Tuple[int, int, int]:
    """Write ``data.npz`` from the data segments of ``entries``' days
    (see :func:`~repro.runtime.npz.write_packet_archive`).  Raises
    :class:`CheckpointError`, and publishes nothing, when a commit lacks
    its record count or a segment is refused.  Returns the row count and
    the numbers of spliced and re-encoded segments."""
    from repro.runtime.npz import write_packet_archive

    try:
        records = [int(entry["records"]) for entry in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{out}: a data segment commit carries no record count") from exc
    seg_dir = out / SEGMENT_DIR
    segments = [(seg_dir / _segment_name("data", day), rows)
                for day, rows in enumerate(records)]
    with atomic_writer(out / DATA_FILE, mode="wb") as fh:
        spliced = write_packet_archive(fh, segments, sampling_rate)
    return sum(records), spliced, len(records) - spliced


def _platform_meta(result: ScenarioResult) -> dict:
    """The ``platform.json`` sidecar the analysis pipeline needs."""
    return {
        "peer_asns": result.ixp.member_asns,
        "route_server_asn": result.ixp.route_server.asn,
        "sampling_rate": result.data.sampling_rate,
        "peeringdb": [
            {"asn": r.asn, "name": r.name,
             "org_type": r.org_type.value, "scope": r.scope}
            for r in result.ixp.peeringdb
        ],
    }


def verify_resumable(out_dir: str | Path, config: ScenarioConfig) -> None:
    """Raise :class:`CheckpointError` unless ``out_dir`` holds a journal
    this configuration can resume (used by the CLI for early feedback)."""
    journal = CheckpointJournal.load(Path(out_dir) / JOURNAL_FILE)
    if journal.header is None:
        raise CheckpointError(
            f"{out_dir}: no checkpoint journal; run without --resume first")
    journal.require_header(_header(config))
