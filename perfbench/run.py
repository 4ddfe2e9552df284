"""End-to-end benchmark of the ``repro`` CLI with a per-layer trace.

    python3 perfbench/run.py --workload study-small --seconds 50 --trace 0

Run from the root of a checkout.  One client process drives the real CLI
as a closed loop: each command starts only after the previous one has
exited, and no command uses more than ``min(2, nproc)`` jobs.  The run
repeats the workload ``max(1, round(seconds / rep_seconds))`` times (a
fixed amount of work for a given ``--seconds``, whatever the machine's
speed) and reports the median of every end-to-end metric, with tracing
off.  ``--trace 1`` instead runs one untraced CLI repetition plus one
traced in-process repetition (see ``traced_run.py``) and reports the
per-layer metrics; their difference is ``telemetry.overhead_s``.

Every command's exit code, every analysis status, the value digests
across the serial, pool and cached runs, the watch fingerprints against
a batch run, ``validate``/``doctor`` verdicts and, for the default seed,
the recorded reference digests count as operations; a miss is a failure.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(host, samples, absent metrics, spans) is written under ``--workdir``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics_catalog as catalog  # noqa: E402
from cli_client import (  # noqa: E402
    IMPORT_PROBE,
    Client,
    CommandResult,
    calibration_spin,
    host_record,
    tree_bytes,
)

DEFAULT_SEED = 7
#: repetition ``r`` of a run generates its corpus from ``seed + r * STRIDE``
#: so a run's medians average over inputs as well as over machine noise
SEED_STRIDE = 1009
REFERENCE_FILE = HERE / "reference.json"
#: a run must end within this many seconds of starting
RUN_BUDGET_S = 170.0
#: fresh-interpreter ``import repro.cli`` probes per setup
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    days: int
    host_min_days: int
    #: True for the kept-segments advance/watch workload
    streaming: bool = False
    #: True when the workload times the pool and the result cache
    pool: bool = False
    #: wall seconds of one repetition on a 2-CPU x86 box; sets how many
    #: repetitions a --seconds budget buys
    rep_seconds: float = 30.0


WORKLOADS = {w.name: w for w in (
    Workload("study-small",
             "dense short horizon; route replay and the EWMA pre-RTBH "
             "detector dominate; the only workload timing the pool and "
             "the result cache",
             scale=0.02, days=10, host_min_days=4, pool=True,
             rep_seconds=16.0),
    Workload("stream-advance",
             "kept-segments advance and incremental watch; whole-horizon "
             "re-simulation and sidecar re-derivation, batch kernels "
             "almost off the path",
             scale=0.015, days=5, host_min_days=2, streaming=True,
             rep_seconds=16.0),
)}

#: the smallest valid corpora, for the benchmark's own smoke tests
TINY = {"scale": 0.005, "days": 3, "host_min_days": 1}


def incremental_names() -> tuple:
    from repro.core.registry import incremental_names as names

    return names()


@dataclass
class Ledger:
    """Correctness operations: every check attempted, every miss kept."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Bench:
    """One benchmark run: workload, inputs, client and ledger."""

    workload: Workload
    seed: int
    tiny: bool
    workdir: Path
    client: Client
    ledger: Ledger = field(default_factory=Ledger)
    reference: Optional[dict] = None
    #: value digests of the first CLI ``analyze`` (the traced run's check)
    cli_digests: Optional[dict] = None
    #: index of the repetition in progress
    rep: int = 0

    @property
    def scale(self) -> float:
        return TINY["scale"] if self.tiny else self.workload.scale

    @property
    def days(self) -> int:
        return TINY["days"] if self.tiny else self.workload.days

    @property
    def host_min_days(self) -> int:
        return TINY["host_min_days"] if self.tiny \
            else self.workload.host_min_days

    @property
    def corpus_seed(self) -> int:
        return self.seed + self.rep * SEED_STRIDE

    @property
    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1)

    @property
    def corpus(self) -> Path:
        return self.workdir / "corpus"

    # -- CLI steps -----------------------------------------------------

    def run(self, step: str, *args: str, expect: int = 0) -> CommandResult:
        result = self.client.repro(step, *args)
        detail = " (timed out)" if result.timed_out else ""
        self.ledger.check(result.returncode == expect,
                          f"{step}: exit {result.returncode}, expected "
                          f"{expect}{detail}: {result.stderr[-300:]}")
        return result

    def generate(self, keep_segments: bool) -> CommandResult:
        shutil.rmtree(self.corpus, ignore_errors=True)
        args = ["generate", "--scale", str(self.scale), "--days",
                str(self.days), "--seed", str(self.corpus_seed), "--out",
                str(self.corpus), "-q"]
        if keep_segments:
            args.append("--keep-segments")
        return self.run("generate", *args)

    def analyze(self, step: str, *extra: str) -> CommandResult:
        return self.run(step, "analyze", str(self.corpus), "--host-min-days",
                        str(self.host_min_days), "--json", *extra)

    def pool_flags(self) -> List[str]:
        flags = ["--jobs", str(self.jobs)]
        if self.jobs == 1:
            # a one-job run skips the result cache unless it is named
            flags += ["--cache-dir", str(self.corpus / ".cache")]
        return flags

    def watch(self, step: str) -> CommandResult:
        return self.run(step, "watch", str(self.corpus), "--once",
                        "--host-min-days", str(self.host_min_days),
                        "--analyses", ",".join(incremental_names()),
                        "--json")

    def integrity(self) -> List[CommandResult]:
        """``validate`` then a read-only ``doctor``."""
        val = self.run("validate", "validate", str(self.corpus))
        doc = self.run("doctor", "doctor", str(self.corpus), "--json")
        report = doc.json() or {}
        self.ledger.check(report.get("clean") is True,
                          f"doctor: corpus not CLEAN: "
                          f"{report.get('damages')}")
        return [val, doc]

    # -- checks --------------------------------------------------------

    def study_outcomes(self, step: str, doc: Optional[dict],
                       expect_all: bool = True) -> Dict[str, str]:
        """Check every analysis is ok; return name -> value digest."""
        analyses = (doc or {}).get("analyses", [])
        statuses = {a["name"]: a["status"] for a in analyses}
        wanted = catalog.ANALYSES if expect_all else tuple(statuses)
        bad = {n: statuses.get(n) for n in wanted if statuses.get(n) != "ok"}
        self.ledger.check(bool(statuses) and not bad,
                          f"{step}: analyses not ok: {bad or 'no report'}")
        return {a["name"]: a["value_digest"] for a in analyses}

    def same_digests(self, what: str, left: dict, right: dict) -> None:
        diff = sorted(n for n in set(left) | set(right)
                      if left.get(n) != right.get(n))
        self.ledger.check(bool(left) and not diff,
                          f"{what}: value digests differ for {diff}")

    @property
    def reference_run(self) -> bool:
        return self.seed == DEFAULT_SEED and not self.tiny

    def record_digests(self, digests: dict) -> None:
        """Keep the first repetition's CLI analyze digests; compare them
        with the recorded reference when the run uses the default seed at
        full size."""
        if self.rep != 0:
            return
        self.cli_digests = digests
        if not self.reference_run:
            return
        expected = (self.reference or {}).get(self.workload.name)
        if expected is not None:
            self.same_digests(f"reference digests (seed {DEFAULT_SEED})",
                              expected, digests)


# -- repetitions ---------------------------------------------------------


def import_probes(bench: Bench) -> List[tuple]:
    """``(wall seconds, in-process import seconds)`` per fresh import."""
    samples = []
    for _ in range(IMPORT_PROBES):
        result = bench.client.python("import", ["-c", IMPORT_PROBE])
        ok = bench.ledger.check(result.returncode == 0,
                                f"import repro.cli: exit {result.returncode}"
                                f": {result.stderr[-300:]}")
        seconds = None
        if ok:
            try:
                seconds = float(result.stdout)
            except ValueError:
                bench.ledger.check(False, f"import probe printed "
                                          f"{result.stdout[-100:]!r}")
        samples.append((result.seconds, seconds))
    return samples


def study_rep(bench: Bench) -> dict:
    cmds = [bench.generate(keep_segments=False)]
    serial = bench.analyze("analyze")
    cmds.append(serial)
    digests = bench.study_outcomes("analyze", serial.json())
    bench.record_digests(digests)
    sample = {"generate_s": cmds[0].seconds, "analyze_s": serial.seconds}
    if bench.workload.pool:
        cold = bench.analyze("analyze_parallel", *bench.pool_flags())
        warm = bench.analyze("analyze_cached", *bench.pool_flags())
        cmds += [cold, warm]
        bench.same_digests("analyze --jobs (cold) vs analyze", digests,
                           bench.study_outcomes("analyze_parallel",
                                                cold.json()))
        bench.same_digests("analyze --jobs (cached) vs analyze", digests,
                           bench.study_outcomes("analyze_cached",
                                                warm.json()))
        if catalog.layer_present("parallel"):
            hits = sum(1 for a in (warm.json() or {}).get("analyses", [])
                       if a.get("cached"))
            bench.ledger.check(hits == len(catalog.ANALYSES),
                               f"analyze_cached: {hits} of "
                               f"{len(catalog.ANALYSES)} results cached")
        sample["analyze_parallel_s"] = cold.seconds
        sample["analyze_cached_s"] = warm.seconds
    integrity = bench.integrity()
    cmds += integrity
    sample["integrity_s"] = sum(c.seconds for c in integrity)
    sample["total_s"] = sum(c.seconds for c in cmds)
    return finish_rep(bench, sample, cmds)


def stream_rep(bench: Bench) -> dict:
    gen = bench.generate(keep_segments=True)
    first = bench.watch("setup_watch")
    adv = bench.run("advance", "advance", str(bench.corpus), "--days", "1",
                    "-q")
    watch = bench.watch("watch")
    integrity = bench.integrity()
    timed = [adv, watch, *integrity]
    sample = {"setup_s": gen.seconds + first.seconds,
              "generate_s": gen.seconds, "advance_s": adv.seconds,
              "watch_s": watch.seconds,
              "integrity_s": sum(c.seconds for c in integrity),
              "total_s": sum(c.seconds for c in timed)}
    cmds = [gen, first, *timed]
    if bench.rep == 0:
        # the untimed batch check runs once per run to keep the run
        # inside its time budget
        batch = bench.analyze("analyze")
        cmds.append(batch)
        digests = bench.study_outcomes("analyze", batch.json())
        bench.record_digests(digests)
        streamed = bench.study_outcomes("watch", watch.json(),
                                        expect_all=False)
        bench.same_digests("watch fingerprints vs batch analyze",
                           {n: digests.get(n) for n in incremental_names()},
                           streamed)
        sample["analyze_s"] = batch.seconds
    return finish_rep(bench, sample, cmds)


#: per-artifact corpus sizes: metric -> path inside the corpus directory
ARTIFACTS = {"corpus.control_mb": "control.jsonl",
             "corpus.data_mb": "data.npz",
             "corpus.segments_mb": ".segments",
             "corpus.columnar_mb": ".columnar",
             "corpus.cache_mb": ".cache"}


def artifact_sizes(corpus: Path) -> Dict[str, float]:
    return {metric: tree_bytes(corpus / name) / 1e6
            for metric, name in ARTIFACTS.items()
            if (corpus / name).exists()}


def finish_rep(bench: Bench, sample: dict, cmds: List[CommandResult]) -> dict:
    sample["peak_rss_mb"] = max(c.peak_rss_mb for c in cmds)
    sample["corpus_mb"] = tree_bytes(bench.corpus) / 1e6
    sample.update(artifact_sizes(bench.corpus))
    for cmd in cmds:
        sample[f"rss.{cmd.step}_mb"] = cmd.peak_rss_mb
    return sample


def run_reps(bench: Bench, reps: int) -> List[dict]:
    rep = stream_rep if bench.workload.streaming else study_rep
    samples = []
    for index in range(reps):
        bench.rep = index
        samples.append(rep(bench))
        if time.monotonic() > bench.client.deadline:
            bench.ledger.check(False, "run budget exhausted")
            break
    return samples


def medians(samples: List[dict]) -> Dict[str, float]:
    keys = {key for sample in samples for key in sample}
    return {key: statistics.median(s[key] for s in samples if key in s)
            for key in sorted(keys)}


# -- traced run ----------------------------------------------------------


def traced_rep(bench: Bench):
    """One in-process repetition under an active telemetry context."""
    from repro import telemetry
    import traced_run as tr

    bench.rep = 0
    run = tr.TracedSteps(telem=telemetry.Telemetry())
    try:
        with telemetry.activate(run.telem):
            traced_steps(bench, run)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        bench.ledger.check(False, f"traced run raised {type(exc).__name__}: "
                                  f"{exc}")
        return run
    check_traced(bench, run)
    return run


def traced_steps(bench: Bench, run) -> None:
    import traced_run as tr

    corpus = bench.corpus
    common = {"host_min_days": bench.host_min_days}
    if bench.workload.streaming:
        tr.traced_generate(run, "setup_generate", corpus,
                           scale=bench.scale, days=bench.days,
                           seed=bench.corpus_seed, keep_segments=True)
        tr.traced_watch(run, "setup_watch", corpus,
                        analyses=incremental_names(), **common)
        tr.traced_advance(run, corpus)
        tr.traced_watch(run, "watch", corpus,
                        analyses=incremental_names(), **common)
        tr.traced_validate(run, corpus)
        tr.traced_doctor(run, corpus)
        tr.traced_analyze(run, "analyze", corpus, **common)
    else:
        tr.traced_generate(run, "generate", corpus, scale=bench.scale,
                           days=bench.days, seed=bench.corpus_seed,
                           keep_segments=False)
        tr.traced_analyze(run, "analyze", corpus, **common)
        if bench.workload.pool:
            for step in ("analyze_parallel", "analyze_cached"):
                tr.traced_analyze(run, step, corpus, jobs=bench.jobs,
                                  **common)
        tr.traced_validate(run, corpus)
        tr.traced_doctor(run, corpus)


def check_traced(bench: Bench, run) -> None:
    ledger = bench.ledger
    serial = run.results["analyze"]
    bad = {n: s for n, s in serial["status"].items() if s != "ok"}
    ledger.check(len(serial["status"]) == len(catalog.ANALYSES) and not bad,
                 f"traced analyze: analyses not ok: {bad}")
    if bench.cli_digests is not None:
        bench.same_digests("traced analyze vs CLI analyze",
                           bench.cli_digests, serial["digest"])
    for step in ("analyze_parallel", "analyze_cached"):
        if step in run.results:
            bench.same_digests(f"traced {step} vs traced analyze",
                               serial["digest"], run.results[step]["digest"])
    if "watch" in run.results:
        bench.same_digests(
            "traced watch fingerprints vs traced batch analyze",
            {n: serial["digest"].get(n) for n in incremental_names()},
            run.results["watch"]["digest"])
    ledger.check(run.results["validate"]["ok"], "traced validate: not ok")
    ledger.check(run.results["doctor"]["clean"], "traced doctor: not CLEAN")


# -- entry point ---------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement budget; sets the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest valid corpora, one repetition "
                             "(the benchmark's smoke tests)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench",
                        help="scratch corpora and run records")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"record this run's digests as the seed-"
                             f"{DEFAULT_SEED} reference")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM so the running command and the scratch corpora
    # are cleaned up
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    workload = WORKLOADS[args.workload]
    workdir = args.workdir.resolve()
    work = workdir / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    started = time.monotonic()
    client = Client(root=ROOT, workdir=work,
                    deadline=started + RUN_BUDGET_S)
    reference = json.loads(REFERENCE_FILE.read_text()) \
        if REFERENCE_FILE.exists() else {}
    bench = Bench(workload=workload, seed=args.seed, tiny=args.tiny,
                  workdir=work, client=client, reference=reference)
    try:
        record = measure(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.update_reference:
        update_reference(bench)
    write_record(workdir, record)
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


def measure(bench: Bench, args: argparse.Namespace) -> dict:
    workload = bench.workload
    host = host_record(ROOT)
    host["calibration_before_s"] = calibration_spin()
    probes = import_probes(bench)
    reps = 1 if (args.trace or args.tiny) \
        else max(1, round(args.seconds / workload.rep_seconds))
    samples = run_reps(bench, reps)
    values = medians(samples)
    spans = None
    if args.trace:
        imports = [p[1] for p in probes if p[1] is not None]
        if imports:
            values["cli.import_s"] = statistics.median(imports)
        spans = add_traced_values(bench, values)
        units, gated = catalog.per_layer_units(), catalog.GATED_PER_LAYER
    else:
        if not workload.streaming:
            values["setup_s"] = statistics.median(p[0] for p in probes)
        units, gated = catalog.end_to_end_units(), catalog.GATED_END_TO_END
    host["calibration_after_s"] = calibration_spin()
    host["loadavg_after"] = list(os.getloadavg())

    produced = [name for name in units if name in values]
    absent = [name for name in produced if not catalog.metric_present(name)]
    missing = [n for n in gated if n not in produced]
    bench.ledger.check(not missing, f"gated metrics not produced: {missing}")
    if not args.trace:
        values["error_rate"] = \
            bench.ledger.failed / max(bench.ledger.attempted, 1)
        produced.append("error_rate")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in produced if name not in absent}
    notes = []
    if bench.jobs < 2:
        notes.append(f"nproc={os.cpu_count()}: analyze_parallel_s ran with "
                     "one job and shows no parallel scaling")
    result = {
        "correct": bench.ledger.failed == 0,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {n: metrics[n] for n in gated if n in metrics},
    }
    return {
        "workload": workload.name, "seed": bench.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, "repetitions": reps,
        "jobs": bench.jobs, "host": host, "notes": notes,
        "samples": samples, "import_probes": probes,
        "metrics": metrics, "absent": absent,
        "failures": bench.ledger.failures,
        "commands": [{"step": c.step, "returncode": c.returncode,
                      "seconds": c.seconds, "peak_rss_mb": c.peak_rss_mb}
                     for c in bench.client.log],
        "spans": spans, "result": result,
    }


def add_traced_values(bench: Bench, values: Dict[str, float]) -> dict:
    """Run the traced repetition; add its per-layer metrics to ``values``
    (which already hold the untraced repetition's); return the span table."""
    import traced_run as tr

    run = traced_rep(bench)
    values.update(tr.layer_metrics(run))
    timed = ("advance", "watch", "validate", "doctor") \
        if bench.workload.streaming else \
        ("generate", "analyze", "analyze_parallel", "analyze_cached",
         "validate", "doctor")
    traced_total = sum(run.steps[s] for s in timed if s in run.steps)
    if "total_s" in values:
        values["telemetry.overhead_s"] = traced_total - values["total_s"]
    values["trace.wall_s"] = sum(run.steps.values())
    values["trace.unattributed_s"] = \
        values["trace.wall_s"] - tr.attributed_seconds(run.records)
    tolerance = max(abs(values.get("telemetry.overhead_s", 0.0)),
                    0.02 * values["trace.wall_s"])
    bench.ledger.check(
        abs(values["trace.unattributed_s"]) <= tolerance,
        f"per-layer self times leave {values['trace.unattributed_s']:.3f}s "
        f"of the traced wall time unattributed (tolerance {tolerance:.3f}s)")
    values.update(artifact_sizes(bench.corpus))
    return tr.span_table(run.records)


def update_reference(bench: Bench) -> None:
    if not bench.reference_run or bench.cli_digests is None:
        print(f"error: --update-reference needs a full-size run with seed "
              f"{DEFAULT_SEED}", file=sys.stderr)
        return
    reference = json.loads(REFERENCE_FILE.read_text()) \
        if REFERENCE_FILE.exists() else {}
    reference[bench.workload.name] = dict(sorted(
        bench.cli_digests.items()))
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2,
                                         sort_keys=True) + "\n")


def write_record(workdir: Path, record: dict) -> None:
    runs = workdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}-{time.time_ns()}.json")
    (runs / name).write_text(json.dumps(record, indent=1, default=str))
    record["path"] = str(runs / name)


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['repetitions']} repetition(s), "
          f"jobs {record['jobs']}, nproc {record['host']['nproc']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    if record["absent"]:
        print(f"  absent (layer not importable): "
              f"{', '.join(record['absent'])}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  record: {record.get('path')}")


if __name__ == "__main__":
    raise SystemExit(main())
