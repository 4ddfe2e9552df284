"""Command-line interface.

Ten subcommands mirror the library's layering::

    python -m repro generate --scale 0.02 --days 30 --out corpus_dir
                             [--resume] [--progress] [--jobs N]
                             [--keep-segments]
    python -m repro validate corpus_dir [--json] [--cache-dir DIR]
    python -m repro doctor corpus_dir [--repair] [--quick] [--json]
                                      [--cache-dir DIR]
    python -m repro inject corpus_dir --out degraded_dir --fault drop:0.1
    python -m repro analyze corpus_dir [--strict | --lenient] [--json]
                                       [--supervised --timeout 300
                                        --retries 2] [--resume]
                                       [--jobs N] [--cache-dir DIR]
                                       [--cache-max-bytes N]
                                       [--trace t.jsonl --metrics m.json]
    python -m repro watch corpus_dir [--interval 2] [--once]
                                     [--until-days N] [--max-ticks N]
                                     [--analyses a,b] [--no-cache] [--json]
                                     [--tap [NAME=]FORMAT:PATH ...]
                                     [--reset-stream]
                                     [--slo-lag-days N ...]
                                     [--scrub-every N]
    python -m repro status corpus_dir [--json]
    python -m repro advance corpus_dir --days 2 [--json]
    python -m repro summary --scale 0.01 --days 14 [--json]
    python -m repro report t.jsonl

``generate`` writes the corpora (plus the membership/PeeringDB sidecar and
a checksummed ``manifest.json`` stamped with the run's provenance);
``validate`` integrity-checks a corpus directory without running any
analysis; ``inject`` produces a deterministically-degraded copy of a corpus
for robustness work; ``analyze`` re-loads a corpus and prints the study's
headline numbers — leniently by default, isolating each figure behind
typed-exception capture; ``summary`` generates and analyzes in memory;
``report`` renders the per-stage timing/throughput table from a
``--trace`` file.

Crash safety: ``generate`` writes the corpus in day-sized, atomically
committed segments behind a checkpoint journal, so ``generate --resume``
finishes an interrupted run byte-identically.  ``analyze --supervised``
(implied by ``--timeout`` or ``--resume``) runs each analysis in a child
process with a wall-clock timeout and bounded retries; ``analyze
--resume`` re-runs only analyses with no journaled terminal outcome.

Streaming: ``generate --keep-segments`` retains the committed per-day
segments; ``watch`` then tails the corpus's checkpoint journal,
ingesting only newly committed days and advancing checkpointed
per-analysis reducers, so its reports carry the *same* value
fingerprints a from-scratch batch ``analyze`` would produce for the
consumed prefix; ``advance --days N`` extends a kept-segments corpus by
N more days through the same commit log.

Live feeds: ``watch --tap [NAME=]FORMAT:PATH`` supervises external BGP
feeds (``mrt``, ``ris``, or ``exabgp`` format) into the watched corpus's
commit log — a progress clock (``--tap-stall`` seconds without new bytes
stall a tap, three such windows kill it), source rewind on truncation or
rotation, bounded ingest queue, malformed-record quarantine under
``.taps/`` — so foreign feeds are consumed exactly like kept day
segments; a dead tap degrades the session (reported per-tap) instead of
failing it.  A corrupt stream checkpoint exits with
its own code; ``watch --reset-stream`` discards it and re-consumes the
commit log from day 0.

Parallelism: ``--jobs N`` fans work across N forked workers (0 = all
CPUs) — day segments for ``generate``, supervised analyses for
``analyze`` — with byte-identical results; ``--jobs 1`` (the default) is
the reference path, run in process unless ``--supervised``.
``analyze --cache-dir DIR`` keeps a content-addressed result cache keyed
on (corpus digest, config hash, analysis), so re-analyzing an unchanged
corpus skips finished analyses; ``validate`` fails a corpus whose cache
holds results keyed to a different corpus digest.

Observability: ``--trace`` writes the telemetry spans as JSONL,
``--metrics`` the final metrics snapshot as JSON, ``--progress`` streams
stage lines to stderr, and ``-q`` silences informational output.  Without
any of these flags the no-op telemetry backend is active and the
instrumentation layer costs nothing.

Operations: every ``watch`` session runs the operations plane —
atomic state snapshots plus a severity-leveled JSONL event log under
``<corpus>/.obs/``, with SLO-evaluated health (lag, dead taps,
quarantine rate, checkpoint staleness; tune with the ``--slo-*``
flags).  ``status`` renders the session's verdict from the on-disk
snapshot, during the session or after it died, and exits 0/4/5 for
ok/degraded/unhealthy.

Self-healing: ``doctor`` scrubs every durable artifact a corpus
directory carries — journals, day segments, corpus files, manifest,
stream checkpoint, cache entries, obs state, tap offset sidecars —
against the redundancy the state plane records (checksums in journal
commits, finalize entries, and the manifest) and reports typed damage;
``doctor --repair`` heals what redundancy covers (truncate torn
journals, regenerate synthetic segments, re-slice tap segments from the
finalized files, rebuild manifests and stream checkpoints, evict
drifted cache entries) and quarantines the rest under
``.doctor.quarantine/``; ``watch`` runs the quick scrub every N ticks
(``--scrub-every``), degrading readiness on damage.
``--cache-max-bytes`` bounds the result cache by LRU eviction.

Exit codes: 0 success; 1 validation or analysis failures, or a damaged
(``doctor``) / unrepaired (``doctor --repair``) corpus; 2 missing
inputs or bad usage; 3 a corpus (or trace file, or obs snapshot) that
could not be ingested at all; 4 an analysis run where *every* analysis
completed but none on clean inputs (fully degraded — "success" CI
should not trust), or a degraded ``status`` verdict; 5 a corrupt/torn
stream checkpoint (recover with ``watch --reset-stream``), or an
unhealthy ``status`` verdict; 141 the reader of stdout went away
(``repro report t.jsonl | head``), the code a shell reports for a
process killed by SIGPIPE.  Exit code 6 is retired and not reused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro import _lazy_exports
from repro.errors import (
    CheckpointError,
    DoctorError,
    FaultInjectionError,
    IngestError,
    MissingCorpusFileError,
    ObsError,
    ObsSnapshotError,
    ReproError,
    ScenarioError,
    StreamCheckpointError,
    StreamError,
    TapError,
    TelemetryError,
)

if TYPE_CHECKING:
    from repro import telemetry
    from repro.core.pipeline import AnalysisPipeline
    from repro.core.study import StudyReport

# Start-up cost is paid by every command, so this module imports nothing
# of the package beyond the error types: each ``_cmd_*`` handler imports
# what it runs, and the corpus file names resolve on first use.
__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.corpus.manifest": ("CONTROL_FILE", "DATA_FILE", "MANIFEST_FILE",
                              "META_FILE"),
})

#: process exit codes (documented in the module docstring)
EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_ALL_DEGRADED = 4
EXIT_STREAM_CHECKPOINT = 5
EXIT_BROKEN_PIPE = 141

#: checkpoint journal for supervised/resumable ``analyze`` runs, kept in
#: the corpus directory (dot-prefixed: excluded from manifests)
ANALYZE_JOURNAL_FILE = ".analysis.checkpoint.jsonl"


def _study_exit_code(report) -> int:
    """Map a study or stream report onto the documented exit codes."""
    if not report.ok:
        return EXIT_FAILURES
    if report.all_degraded:
        return EXIT_ALL_DEGRADED
    return EXIT_OK


def _make_telemetry(args: argparse.Namespace) -> telemetry.Telemetry:
    """The telemetry context one CLI invocation runs under.

    A real collecting context is created only when some output wants it
    (``--trace``, ``--metrics``, or ``--progress``); otherwise the shared
    no-op backend keeps the instrumentation free.
    """
    from repro import telemetry

    wants_progress = getattr(args, "progress", False) and not getattr(
        args, "quiet", False)
    progress = (lambda line: print(line, file=sys.stderr)) \
        if wants_progress else None
    if progress is None and not getattr(args, "trace", None) \
            and not getattr(args, "metrics", None):
        return telemetry.NULL
    return telemetry.Telemetry(progress=progress)


def _write_telemetry(telem: telemetry.Telemetry, args: argparse.Namespace,
                     manifest: dict, started: float) -> None:
    """Flush ``--trace`` / ``--metrics`` outputs, stamping the wall time."""
    manifest["wall_seconds"] = time.perf_counter() - started
    if getattr(args, "trace", None):
        telem.write_trace(args.trace, manifest=manifest)
    if getattr(args, "metrics", None):
        telem.write_metrics(args.metrics, manifest=manifest)


def _paper_config(args: argparse.Namespace):
    """The paper scenario ``--scale``/``--days``/``--seed`` describe, or
    None (after printing why) when they are invalid."""
    from repro.scenario.config import ScenarioConfig

    try:
        return ScenarioConfig.paper(scale=args.scale,
                                    duration_days=args.days, seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.runtime.generate import checkpointed_generate

    config = _paper_config(args)
    if config is None:
        return EXIT_USAGE
    telem = _make_telemetry(args)
    manifest = telemetry.run_manifest("generate", seed=args.seed,
                                      config=config)
    started = time.perf_counter()
    try:
        with telemetry.activate(telem):
            report = checkpointed_generate(
                config, args.out, resume=args.resume, run=manifest,
                jobs=args.jobs, keep_segments=args.keep_segments,
                extra_meta={"scale": args.scale, "duration_days": args.days,
                            "seed": args.seed})
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_telemetry(telem, args, manifest, started)
    if not args.quiet:
        print(report.format())
    return EXIT_OK


def _analyze_supervision(args: argparse.Namespace, path: Path):
    """Build the (supervisor policy, checkpoint journal) pair for
    ``analyze``, or ``(None, None)`` for the classic in-process path.

    Supervision is active when any of ``--supervised``, ``--timeout``, or
    ``--resume`` is given.  The journal lives in the corpus directory;
    ``--resume`` reuses it (after checking it belongs to the same corpus
    and policy), anything else starts it fresh.
    """
    from repro.runtime.checkpoint import CheckpointJournal
    from repro.runtime.retry import RetryPolicy
    from repro.runtime.supervisor import SupervisorPolicy

    supervised = args.supervised or args.resume or args.timeout is not None
    if not supervised:
        return None, None
    policy = SupervisorPolicy(
        timeout=args.timeout,
        retry=RetryPolicy(max_retries=args.retries))
    header = {"command": "analyze", "corpus": str(path),
              "policy": "strict" if args.strict else "skip",
              "host_min_days": args.host_min_days}
    # a fresh run never parses the journal it is about to truncate
    journal = (CheckpointJournal.load(path / ANALYZE_JOURNAL_FILE)
               if args.resume
               else CheckpointJournal(path / ANALYZE_JOURNAL_FILE))
    if args.resume and journal.header is not None:
        journal.require_header(header)
    else:
        journal.start(header)
    return policy, journal


def _analyze_cache(args: argparse.Namespace, path: Path):
    """The (cache, corpus digest) pair for ``analyze``.

    An explicit ``--cache-dir`` always wins; a parallel run (``--jobs``
    != 1) defaults to the corpus-local cache. Plain serial runs stay
    cache-free.
    """
    if not args.cache_dir and args.jobs == 1:
        return None, None
    from repro.corpus.manifest import MANIFEST_FILE
    from repro.parallel.cache import ResultCache, corpus_digest

    digest = corpus_digest(path)
    if digest is None:
        print(f"warning: {path}/{MANIFEST_FILE} missing or unusable; "
              "result caching disabled for this run", file=sys.stderr)
        return None, None
    max_bytes = getattr(args, "cache_max_bytes", None)
    cache = (ResultCache(args.cache_dir, max_bytes=max_bytes)
             if args.cache_dir
             else ResultCache.for_corpus(path, max_bytes=max_bytes))
    return cache, digest


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.core.pipeline import AnalysisPipeline
    from repro.corpus.ingest import ErrorPolicy

    path = Path(args.corpus)
    policy = ErrorPolicy.STRICT if args.strict else ErrorPolicy.SKIP
    telem = _make_telemetry(args)
    manifest = telemetry.run_manifest(
        "analyze", corpus=str(path), policy=policy.value,
        config={"policy": policy.value, "host_min_days": args.host_min_days})
    started = time.perf_counter()
    with telemetry.activate(telem):
        try:
            pipeline = AnalysisPipeline.open(
                path, policy=policy, host_min_days=args.host_min_days)
            supervisor, journal = _analyze_supervision(args, path)
            cache, corpus_digest = _analyze_cache(args, path)
            report = pipeline.run_all(strict=args.strict,
                                      supervisor=supervisor,
                                      checkpoint=journal,
                                      jobs=args.jobs, cache=cache,
                                      corpus_digest=corpus_digest,
                                      config_hash=manifest["config_hash"])
        except (MissingCorpusFileError, CheckpointError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except IngestError as exc:
            print(f"error: cannot ingest corpus: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
        except ReproError as exc:
            print(f"error: analysis failed (strict mode): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_FAILURES
        finally:
            _write_telemetry(telem, args, manifest, started)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        _print_study(pipeline, report)
    return _study_exit_code(report)


def _tap_session(args: argparse.Namespace, path: Path):
    """Build the supervised tap session for ``watch --tap``, or None."""
    if not args.tap:
        return None
    from repro.corpus.ingest import ErrorPolicy
    from repro.taps import TapConfig, TapSession

    config = TapConfig(
        stall_timeout=args.tap_stall,
        queue_capacity=args.tap_queue,
        policy=ErrorPolicy.STRICT if args.strict else ErrorPolicy.COLLECT,
        epoch=args.tap_epoch,
    )
    return TapSession.open(path, args.tap, config=config)


def _slo_rules(args: argparse.Namespace):
    """The SLO thresholds one watch session is judged against."""
    from repro.obs import SLORules

    checkpoint_age = args.slo_checkpoint_age
    return SLORules(
        max_lag_days=args.slo_lag_days,
        max_dead_taps=args.slo_dead_taps,
        max_quarantine_rate=args.slo_quarantine_rate,
        max_checkpoint_age=(None if checkpoint_age is not None
                            and checkpoint_age <= 0 else checkpoint_age))


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.corpus.ingest import ErrorPolicy
    from repro.obs import ObsPlane
    from repro.parallel.cache import ResultCache
    from repro.streaming import StreamEngine, reset_stream

    path = Path(args.corpus)
    if not path.is_dir() and not args.tap:
        print(f"error: {path} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    if args.reset_stream and reset_stream(path) and not args.quiet:
        print(f"stream checkpoint discarded; re-consuming {path} "
              "from day 0", file=sys.stderr)
    policy = ErrorPolicy.STRICT if args.strict else ErrorPolicy.SKIP
    analyses = None
    if args.analyses:
        analyses = [name.strip() for name in args.analyses.split(",")
                    if name.strip()]
        from repro.core.registry import get_analysis
        try:
            for name in analyses:
                get_analysis(name)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    telem = _make_telemetry(args)
    if not telem.enabled:
        # the operations plane needs a collecting registry and event
        # channel, so a watch session always runs under a real context —
        # which also puts the metrics snapshot in every --json report
        telem = telemetry.Telemetry()
    manifest = telemetry.run_manifest(
        "watch", corpus=str(path), policy=policy.value,
        config={"policy": policy.value,
                "host_min_days": args.host_min_days})
    started = time.perf_counter()
    cache = None if args.no_cache else ResultCache.for_corpus(
        path, max_bytes=args.cache_max_bytes)
    engine = None
    plane = None
    with telemetry.activate(telem):
        try:
            session = _tap_session(args, path)
            engine = StreamEngine.open(path, policy=policy,
                                       host_min_days=args.host_min_days,
                                       cache=cache, fresh=args.fresh,
                                       scrub_every=args.scrub_every or None)
            if session is not None:
                engine.attach_taps(session)
            plane = ObsPlane(path, rules=_slo_rules(args), command="watch")
            engine.attach_obs(plane)
            if args.once:
                engine.tick(final=True)
            else:
                engine.watch(interval=args.interval,
                             max_ticks=args.max_ticks,
                             until_days=args.until_days)
            report = engine.report(analyses)
        except StreamCheckpointError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: {exc}\nthe stream checkpoint is derived state; "
                  "re-run with --reset-stream to discard it and re-consume "
                  "the commit log from day 0", file=sys.stderr)
            return EXIT_STREAM_CHECKPOINT
        except TapError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except StreamError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
        except ReproError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: cannot ingest corpus: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
        except KeyboardInterrupt:
            _write_telemetry(telem, args, manifest, started)
            if not args.quiet:
                watermark = engine.watermark_days if engine else 0
                print(f"watch interrupted at watermark day {watermark}",
                      file=sys.stderr)
            return EXIT_OK
        finally:
            if plane is not None:
                plane.close()
    _write_telemetry(telem, args, manifest, started)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif not args.quiet:
        print(report.format())
    return _study_exit_code(report)


def _cmd_advance(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.streaming import advance_corpus

    path = Path(args.corpus)
    if not path.is_dir():
        print(f"error: {path} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    telem = _make_telemetry(args)
    if args.json and not telem.enabled:
        # --json surfaces the metrics snapshot, so it needs a real context
        telem = telemetry.Telemetry()
    manifest = telemetry.run_manifest("advance", corpus=str(path),
                                      config={"days": args.days})
    started = time.perf_counter()
    with telemetry.activate(telem):
        try:
            report = advance_corpus(path, args.days)
        except StreamError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ReproError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: cannot advance corpus: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
    _write_telemetry(telem, args, manifest, started)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif not args.quiet:
        print(report.format())
    return EXIT_OK


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs import load_snapshot, render_status, status_exit_code

    try:
        document = load_snapshot(Path(args.corpus))
    except ObsSnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_status(document))
    return status_exit_code(document)


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.core.pipeline import AnalysisPipeline
    from repro.scenario.runner import run_scenario

    config = _paper_config(args)
    if config is None:
        return EXIT_USAGE
    telem = _make_telemetry(args)
    manifest = telemetry.run_manifest("summary", seed=args.seed,
                                      config=config)
    started = time.perf_counter()
    with telemetry.activate(telem):
        result = run_scenario(config)
        pipeline = AnalysisPipeline(result.control, result.data,
                                    peer_asns=result.ixp.member_asns,
                                    peeringdb=result.ixp.peeringdb,
                                    host_min_days=args.host_min_days)
        report = pipeline.run_all(strict=False)
    _write_telemetry(telem, args, manifest, started)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        _print_study(pipeline, report)
    return _study_exit_code(report)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.corpus.manifest import validate_corpus

    path = Path(args.corpus)
    if not path.is_dir():
        print(f"error: {path} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    report = validate_corpus(path, cache_dir=args.cache_dir or None)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return EXIT_OK if report.ok else EXIT_FAILURES


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.doctor.scrub import scrub_corpus

    path = Path(args.corpus)
    telem = _make_telemetry(args)
    manifest = telemetry.run_manifest("doctor", corpus=str(path),
                                      config={"repair": args.repair,
                                              "deep": not args.quick})
    started = time.perf_counter()
    deep = not args.quick
    with telemetry.activate(telem):
        try:
            report = scrub_corpus(path, deep=deep,
                                  cache_dir=args.cache_dir or None)
            repair = None
            if args.repair and not report.clean:
                from repro.doctor.repair import repair_corpus

                repair = repair_corpus(path, report, deep=deep,
                                       cache_dir=args.cache_dir or None)
                repair.verified = scrub_corpus(
                    path, deep=deep, cache_dir=args.cache_dir or None)
        except DoctorError as exc:
            _write_telemetry(telem, args, manifest, started)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
    _write_telemetry(telem, args, manifest, started)
    if args.json:
        document = report.to_json()
        if repair is not None:
            document["repair"] = repair.to_json()
        print(json.dumps(document, indent=2))
    else:
        print(report.format())
        if repair is not None:
            print(repair.format())
    if repair is not None:
        healed = repair.ok and repair.verified is not None \
            and repair.verified.clean
        return EXIT_OK if healed else EXIT_FAILURES
    return EXIT_OK if report.clean else EXIT_FAILURES


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import load_trace, render_report

    path = Path(args.trace)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace = load_trace(path)
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    print(render_report(trace))
    return EXIT_OK


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.corpus.manifest import MANIFEST_FILE, require_corpus_files
    from repro.faults.inject import degrade_corpus_dir
    from repro.faults.spec import FaultSpec

    src, dst = Path(args.corpus), Path(args.out)
    try:
        require_corpus_files(src)
    except MissingCorpusFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        specs = [FaultSpec.parse(text) for text in args.fault]
    except FaultInjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not specs:
        print("error: at least one --fault kind[:intensity] required",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        report = degrade_corpus_dir(src, dst, specs, seed=args.seed)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    print(report.format())
    print(f"degraded corpus written to {dst}/ "
          f"(stale {MANIFEST_FILE} copied for validate to catch)")
    return EXIT_OK


def _print_study(pipeline: AnalysisPipeline, report: StudyReport) -> None:
    from repro.core.hosts import HostClass
    from repro.core.report import format_table, pct, seconds_human

    if not report.ok or any(report.warnings):
        print(report.format())
        print()

    load = report.value("fig3_load")
    if load is not None:
        try:
            n_events = len(pipeline.events)
            n_messages = pipeline.control.rtbh_message_count()
        except ReproError:
            n_events = n_messages = 0
        print(f"RTBH events: {n_events} "
              f"(from {n_messages} messages); "
              f"parallel blackholes mean {load.mean_active:.0f} / "
              f"peak {load.peak_active}")

    rates = report.value("fig5_drop_by_length")
    if rates is not None:
        rows = [[f"/{int(l)}", pct(float(p)), pct(float(b)), pct(float(s), 2)]
                for l, p, b, s in zip(rates.lengths, rates.drop_share_packets,
                                      rates.drop_share_bytes,
                                      rates.traffic_share)]
        print()
        print(format_table(["len", "drop(pkts)", "drop(bytes)", "traffic"],
                           rows, title="acceptance by prefix length (Fig. 5):"))

    pre_classes = report.value("table2_pre_classes")
    if pre_classes is not None:
        print("\npre-RTBH classes (Table 2):")
        for cls, share in pre_classes.items():
            print(f"  {cls.value:18s} {pct(share)}")

    classification = report.value("fig19_use_cases")
    if classification is not None:
        print("\nuse cases (Fig. 19):")
        for case, share in classification.shares().items():
            count = classification.counts()[case]
            if count:
                _, med, _ = classification.duration_quartiles(case)
                print(f"  {case.value:26s} {pct(share):>6s} "
                      f"(median duration {seconds_human(med)})")

    collateral = report.value("fig18_collateral")
    if collateral is not None:
        try:
            counts = pipeline.host_study.counts()
        except ReproError:
            counts = None
        if counts is not None:
            print(f"\nhosts: {counts[HostClass.CLIENT]} clients / "
                  f"{counts[HostClass.SERVER]} servers detected; "
                  f"{collateral.events_with_collateral} events "
                  "with collateral damage")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Down the Black Hole' (IMC'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", metavar="PATH",
                       help="write telemetry spans as JSONL (see "
                            "'repro report')")
        p.add_argument("--metrics", metavar="PATH",
                       help="write the final metrics snapshot as JSON")

    gen = sub.add_parser("generate", help="generate and save a corpus")
    gen.add_argument("--scale", type=float, default=0.02)
    gen.add_argument("--days", type=float, default=30.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--resume", action="store_true",
                     help="finish an interrupted run: skip segments already "
                          "committed to the checkpoint journal")
    gen.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="fan day-segment writes across N forked workers "
                          "(0 = all CPUs, default 1); output is "
                          "byte-identical for every value")
    gen.add_argument("--keep-segments", action="store_true",
                     help="retain the committed per-day segment files "
                          "after finalize (required for 'watch' and "
                          "'advance')")
    gen.add_argument("--progress", action="store_true",
                     help="print per-stage progress lines to stderr")
    gen.add_argument("-q", "--quiet", action="store_true",
                     help="suppress informational output")
    add_telemetry_flags(gen)
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="analyze a saved corpus")
    ana.add_argument("corpus", help="directory written by 'generate'")
    ana.add_argument("--host-min-days", type=int, default=20)
    mode = ana.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="fail on the first bad record or analysis")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="skip bad records, isolate failing analyses "
                           "(default)")
    ana.add_argument("--supervised", action="store_true",
                     help="run each analysis in a supervised child process")
    ana.add_argument("--timeout", type=float, metavar="SECONDS",
                     help="per-analysis wall-clock limit (implies "
                          "--supervised)")
    ana.add_argument("--retries", type=int, default=2, metavar="N",
                     help="max retries of a transiently-failing analysis "
                          "(default 2)")
    ana.add_argument("--resume", action="store_true",
                     help="skip analyses with a journaled terminal outcome "
                          "(implies --supervised)")
    ana.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run up to N analyses concurrently in forked "
                          "workers (0 = all CPUs, default 1 = the serial "
                          "reference path)")
    ana.add_argument("--cache-dir", metavar="DIR",
                     help="content-addressed result cache: skip analyses "
                          "already finished for this exact corpus + config")
    ana.add_argument("--cache-max-bytes", type=int, metavar="N",
                     help="bound the result cache: evict least-recently-"
                          "used entries once it exceeds N bytes "
                          "(default: unbounded)")
    ana.add_argument("--json", action="store_true",
                     help="machine-readable study report on stdout")
    add_telemetry_flags(ana)
    ana.set_defaults(func=_cmd_analyze, strict=False)

    wat = sub.add_parser("watch",
                         help="incrementally analyze a kept-segments "
                              "corpus as days are committed")
    wat.add_argument("corpus", help="directory written by "
                                    "'generate --keep-segments'")
    wat.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="poll interval between ticks (default 1)")
    stop = wat.add_mutually_exclusive_group()
    stop.add_argument("--once", action="store_true",
                      help="consume everything committed so far, report, "
                           "and exit")
    stop.add_argument("--until-days", type=int, metavar="N",
                      help="watch until N days are consumed, then report "
                           "and exit")
    stop.add_argument("--max-ticks", type=int, metavar="N",
                      help="stop after N poll ticks regardless of progress")
    wat.add_argument("--host-min-days", type=int, default=20)
    mode = wat.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="fail on the first bad record or analysis")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="skip bad records, isolate failing analyses "
                           "(default)")
    wat.add_argument("--analyses", metavar="NAME[,NAME...]",
                     help="restrict the report to these registry analyses")
    wat.add_argument("--fresh", action="store_true",
                     help="ignore any existing stream checkpoint and "
                          "consume from day 0")
    wat.add_argument("--reset-stream", action="store_true",
                     help="discard a (possibly corrupt) stream checkpoint "
                          "before opening, then re-consume from day 0")
    wat.add_argument("--tap", action="append", default=[],
                     metavar="[NAME=]FORMAT:PATH",
                     help="supervise an external feed into the corpus's "
                          "commit log (formats: mrt, ris, exabgp; "
                          "repeatable)")
    wat.add_argument("--tap-stall", type=float, default=30.0,
                     metavar="SECONDS",
                     help="seconds without new bytes before a tap is "
                          "stalled; three such windows declare it dead "
                          "(default 30)")
    wat.add_argument("--tap-queue", type=int, default=100_000, metavar="N",
                     help="per-tap bounded ingest queue capacity; a full "
                          "queue stops reading its source (default "
                          "100000)")
    wat.add_argument("--tap-epoch", type=float, default=0.0,
                     metavar="SECONDS",
                     help="feed timestamps are shifted by -EPOCH into "
                          "corpus time (default 0)")
    wat.add_argument("--no-cache", action="store_true",
                     help="disable the corpus-local result cache for "
                          "non-incremental analyses")
    wat.add_argument("--cache-max-bytes", type=int, metavar="N",
                     help="bound the result cache: evict least-recently-"
                          "used entries once it exceeds N bytes "
                          "(default: unbounded)")
    wat.add_argument("--scrub-every", type=int, default=60, metavar="N",
                     help="run a quick integrity scrub every N ticks, "
                          "surfacing damage through the obs plane "
                          "(default 60; 0 disables)")
    wat.add_argument("--slo-lag-days", type=float, default=2.0,
                     metavar="N",
                     help="committed-but-unconsumed days before readiness "
                          "degrades (default 2)")
    wat.add_argument("--slo-dead-taps", type=int, default=0, metavar="N",
                     help="permanently dead taps tolerated before "
                          "readiness degrades (default 0; every tap dead "
                          "is always unhealthy)")
    wat.add_argument("--slo-quarantine-rate", type=float, default=0.10,
                     metavar="RATE",
                     help="malformed/total feed-record ratio tolerated "
                          "(default 0.10)")
    wat.add_argument("--slo-checkpoint-age", type=float, default=900.0,
                     metavar="SECONDS",
                     help="stream-checkpoint staleness tolerated "
                          "(default 900; <= 0 disables the check)")
    wat.add_argument("--json", action="store_true",
                     help="machine-readable stream report on stdout")
    wat.add_argument("-q", "--quiet", action="store_true",
                     help="suppress informational output")
    add_telemetry_flags(wat)
    wat.set_defaults(func=_cmd_watch, strict=False)

    adv = sub.add_parser("advance",
                         help="extend a kept-segments corpus by N days")
    adv.add_argument("corpus", help="directory written by "
                                    "'generate --keep-segments'")
    adv.add_argument("--days", type=int, required=True, metavar="N",
                     help="how many days to append")
    adv.add_argument("--json", action="store_true",
                     help="machine-readable advance report (with the "
                          "metrics snapshot) on stdout")
    adv.add_argument("-q", "--quiet", action="store_true",
                     help="suppress informational output")
    add_telemetry_flags(adv)
    adv.set_defaults(func=_cmd_advance)

    sta = sub.add_parser("status",
                         help="render a watch session's operational state "
                              "from its .obs snapshot")
    sta.add_argument("corpus", nargs="?", default=".",
                     help="watched corpus directory (default: .)")
    sta.add_argument("--json", action="store_true",
                     help="print the raw status document as JSON")
    sta.set_defaults(func=_cmd_status)

    val = sub.add_parser("validate",
                         help="integrity-check a corpus directory")
    val.add_argument("corpus", help="directory written by 'generate'")
    val.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    val.add_argument("--cache-dir", metavar="DIR",
                     help="also check this analysis-result cache for "
                          "entries keyed to a different corpus")
    val.set_defaults(func=_cmd_validate, cache_dir=None)

    doc = sub.add_parser("doctor",
                         help="scrub a corpus directory's durable state "
                              "for damage and optionally repair it from "
                              "redundancy")
    doc.add_argument("corpus", help="corpus directory (synthetic or tap)")
    doc.add_argument("--repair", action="store_true",
                     help="execute the repair plan for every damage "
                          "found, then re-scrub to verify convergence")
    doc.add_argument("--quick", action="store_true",
                     help="structural checks only, no content re-hashing "
                          "(what the watch background scrub runs)")
    doc.add_argument("--cache-dir", metavar="DIR",
                     help="also scrub this analysis-result cache "
                          "(the corpus-local .cache/ is always scrubbed)")
    doc.add_argument("--json", action="store_true",
                     help="machine-readable damage/repair report on "
                          "stdout")
    doc.add_argument("-q", "--quiet", action="store_true",
                     help="suppress informational output")
    add_telemetry_flags(doc)
    doc.set_defaults(func=_cmd_doctor)

    inj = sub.add_parser("inject",
                         help="write a deterministically-degraded copy of "
                              "a corpus")
    inj.add_argument("corpus", help="clean corpus directory")
    inj.add_argument("--out", required=True, help="output directory")
    inj.add_argument("--fault", action="append", default=[],
                     metavar="KIND[:INTENSITY]",
                     help="fault to inject, e.g. drop:0.1 (repeatable)")
    inj.add_argument("--seed", type=int, default=0)
    inj.set_defaults(func=_cmd_inject)

    summ = sub.add_parser("summary", help="generate + analyze in memory")
    summ.add_argument("--scale", type=float, default=0.01)
    summ.add_argument("--days", type=float, default=14.0)
    summ.add_argument("--seed", type=int, default=7)
    summ.add_argument("--host-min-days", type=int, default=8)
    summ.add_argument("--json", action="store_true",
                      help="machine-readable study report on stdout")
    add_telemetry_flags(summ)
    summ.set_defaults(func=_cmd_summary)

    rep = sub.add_parser("report",
                         help="render the timing table from a --trace file")
    rep.add_argument("trace", help="JSONL trace written by --trace")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at /dev/null so the
        # interpreter's exit-time flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
