"""Parallel execution engine — serial vs ``--jobs N`` wall-clock.

The headline numbers for the analysis runner's pool: one corpus is
generated and analysed on the reference path (``--jobs 1``), then on the
process pool at ``--jobs N`` (N = CPU count), then once more
against a warm content-addressed result cache. Golden equivalence is
asserted inline — the parallel report must be canonically byte-identical
to the serial one, otherwise the timing is meaningless.

The measurements are written both as a paper-vs-measured style block in
``.benchmarks/latest_results.txt`` and as machine-readable JSON in
``.benchmarks/BENCH_parallel.json`` (git-ignored, with each re-run
pushed onto a dated ``history``; run on a multi-core box for meaningful
ratios — on a single-CPU host the pool cannot beat the serial path and
the file records exactly that).  The committed
``benchmarks/BENCH_parallel.json`` is the record of earlier runs and is
never rewritten.

Scale knobs (kept separate from the main benchmark corpus so the two
full ``run_all`` passes stay affordable)::

    REPRO_BENCH_PAR_SCALE  default 0.02
    REPRO_BENCH_PAR_DAYS   default 10
    REPRO_BENCH_PAR_SEED   default 7
"""

import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import OUTPUT_DIR, record_bench_json, report
from repro import AnalysisPipeline, ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE
from repro.corpus.platform import load_platform
from repro.parallel import ResultCache, corpus_digest
from repro.runtime.generate import checkpointed_generate
from repro.runtime.supervisor import resolve_jobs
from repro.scenario.config import ScenarioConfig

PAR_SCALE = float(os.environ.get("REPRO_BENCH_PAR_SCALE", "0.02"))
PAR_DAYS = float(os.environ.get("REPRO_BENCH_PAR_DAYS", "10"))
PAR_SEED = int(os.environ.get("REPRO_BENCH_PAR_SEED", "7"))

RESULTS_JSON = OUTPUT_DIR / "BENCH_parallel.json"


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _pipeline_for(corpus_dir: Path) -> AnalysisPipeline:
    control = ControlPlaneCorpus.load_jsonl(corpus_dir / CONTROL_FILE)
    data = DataPlaneCorpus.load_npz(corpus_dir / DATA_FILE)
    peers, rs_asn, peeringdb = load_platform(corpus_dir)
    return AnalysisPipeline(control, data, peer_asns=peers,
                            peeringdb=peeringdb, route_server_asn=rs_asn)


@pytest.fixture(scope="module")
def par_config() -> ScenarioConfig:
    return ScenarioConfig.paper(scale=PAR_SCALE, duration_days=PAR_DAYS,
                                seed=PAR_SEED)


def test_bench_parallel_engine(par_config, tmp_path_factory):
    jobs = resolve_jobs(None)  # = CPU count
    base = tmp_path_factory.mktemp("bench-parallel")

    # --- generate: serial reference vs day-sharded parallel writes ----
    _, gen_serial = _timed(
        lambda: checkpointed_generate(par_config, base / "serial"))
    _, gen_parallel = _timed(
        lambda: checkpointed_generate(par_config, base / "parallel",
                                      jobs=jobs))
    serial_dir = base / "serial"
    assert (serial_dir / CONTROL_FILE).read_bytes() \
        == (base / "parallel" / CONTROL_FILE).read_bytes()

    # --- analyze: serial vs process pool vs warm cache ----------------
    digest = corpus_digest(serial_dir)
    cache = ResultCache.for_corpus(serial_dir)

    serial_report, ana_serial = _timed(
        lambda: _pipeline_for(serial_dir).run_all(strict=False))
    parallel_report, ana_parallel = _timed(
        lambda: _pipeline_for(serial_dir).run_all(
            strict=False, jobs=jobs, cache=cache, corpus_digest=digest,
            config_hash="bench"))
    # golden equivalence, or the comparison is meaningless
    assert serial_report.canonical_json() == parallel_report.canonical_json()

    cached_report, ana_cached = _timed(
        lambda: _pipeline_for(serial_dir).run_all(
            strict=False, jobs=jobs, cache=cache, corpus_digest=digest,
            config_hash="bench"))
    cache_hits = sum(1 for o in cached_report if o.cached)

    results = {
        "config": {"scale": PAR_SCALE, "duration_days": PAR_DAYS,
                   "seed": PAR_SEED},
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "generate": {"serial_seconds": round(gen_serial, 3),
                     "parallel_seconds": round(gen_parallel, 3),
                     "speedup": round(gen_serial / gen_parallel, 2)},
        "analyze": {"serial_seconds": round(ana_serial, 3),
                    "parallel_seconds": round(ana_parallel, 3),
                    "cached_seconds": round(ana_cached, 3),
                    "speedup": round(ana_serial / ana_parallel, 2),
                    "cache_hits": cache_hits},
        "golden_equivalent": True,
    }
    record_bench_json(RESULTS_JSON, results)

    note = ("" if (os.cpu_count() or 1) > 1 else
            "  [single-CPU host: pool pays fork overhead, no speedup "
            "possible]")
    report(
        f"Parallel engine (scale={PAR_SCALE}, {PAR_DAYS:g} days, "
        f"jobs={jobs}, cpus={os.cpu_count()})",
        f"generate: serial {gen_serial:.2f}s  --jobs {jobs} "
        f"{gen_parallel:.2f}s  ({gen_serial / gen_parallel:.2f}x)",
        f"analyze:  serial {ana_serial:.2f}s  --jobs {jobs} "
        f"{ana_parallel:.2f}s  ({ana_serial / ana_parallel:.2f}x)" + note,
        f"cached:   {ana_cached:.2f}s with {cache_hits}/16 cache hits "
        f"({ana_serial / ana_cached:.1f}x vs cold serial)",
        "golden equivalence: canonical reports byte-identical",
    )

    assert parallel_report.ok
    assert cache_hits == len(list(cached_report))
    # the cached pass must beat the cold serial pass outright
    assert ana_cached < ana_serial
