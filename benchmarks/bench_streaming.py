"""Streaming engine — incremental advance vs from-scratch batch.

The headline claim of the streaming engine: after a corpus grows by one
day, a resumed watcher reaches fresh, fingerprint-identical numbers in
a fraction of the batch wall-clock, because only the delta is ingested
and the incremental analyses are answered from checkpointed reducer
state (with the result cache absorbing what was already computed for
the unchanged prefix where possible).

One kept-segments corpus is generated and consumed; the corpus is then
advanced by one day and three numbers are measured over the extended
corpus: the full batch analyze (cold ingest + all 16 analyses), the
watcher's one-day tick (delta ingest + reducer advance), and the
incremental report (the five reducer-backed analyses).  Equivalence is
asserted inline — the post-advance stream report must carry the same
value fingerprints as the batch run, otherwise the timing is
meaningless.

The measurements land in ``.benchmarks/latest_results.txt`` and as
machine-readable JSON in ``.benchmarks/BENCH_streaming.json``
(git-ignored; the committed ``benchmarks/BENCH_streaming.json`` is the
record of earlier runs and is never rewritten).  Scale knobs::

    REPRO_BENCH_STREAM_SCALE  default 0.02
    REPRO_BENCH_STREAM_DAYS   default 5
    REPRO_BENCH_STREAM_SEED   default 7
"""

import json
import os
import time

from benchmarks.conftest import OUTPUT_DIR, report
from repro import AnalyzeOptions, GenerateOptions, Study
from repro.core.registry import incremental_names
from repro.streaming import StreamEngine, advance_corpus

STREAM_SCALE = float(os.environ.get("REPRO_BENCH_STREAM_SCALE", "0.02"))
STREAM_DAYS = float(os.environ.get("REPRO_BENCH_STREAM_DAYS", "5"))
STREAM_SEED = int(os.environ.get("REPRO_BENCH_STREAM_SEED", "7"))

RESULTS_JSON = OUTPUT_DIR / "BENCH_streaming.json"


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_bench_streaming_advance(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("bench-streaming") / "corpus"
    study = Study.generate(corpus, options=GenerateOptions(
        scale=STREAM_SCALE, duration_days=STREAM_DAYS, seed=STREAM_SEED,
        keep_segments=True))

    # consume the initial prefix so the advance tick measures the delta
    engine = StreamEngine.open(corpus, host_min_days=2)
    engine.tick()
    engine.report()

    _, advance_s = _timed(lambda: advance_corpus(corpus, 1))

    batch, batch_s = _timed(lambda: study.analyze(
        options=AnalyzeOptions(host_min_days=2)))

    consumed, tick_s = _timed(engine.tick)
    assert consumed == 1
    incremental = tuple(incremental_names())
    stream_inc, inc_report_s = _timed(lambda: engine.report(incremental))
    stream_full, full_report_s = _timed(engine.report)

    # equivalence first: identical fingerprints or the timing is void
    batch_fp = {o.name: o.value_digest for o in batch.outcomes}
    assert stream_full.fingerprints() == batch_fp
    assert stream_inc.fingerprints() == {
        name: batch_fp[name] for name in incremental}

    incremental_s = tick_s + inc_report_s
    ratio = incremental_s / batch_s
    results = {
        "config": {"scale": STREAM_SCALE, "duration_days": STREAM_DAYS,
                   "seed": STREAM_SEED, "advanced_days": 1},
        "batch_analyze_seconds": round(batch_s, 3),
        "advance_seconds": round(advance_s, 3),
        "tick_seconds": round(tick_s, 3),
        "incremental_report_seconds": round(inc_report_s, 3),
        "full_report_seconds": round(full_report_s, 3),
        "incremental_vs_batch_ratio": round(ratio, 3),
        "incremental_analyses": list(incremental),
        "fingerprints_equal_batch": True,
    }
    RESULTS_JSON.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")

    report(
        f"Streaming advance (scale={STREAM_SCALE}, {STREAM_DAYS:g}+1 "
        f"days)",
        f"batch analyze (cold, 16 analyses): {batch_s:.2f}s",
        f"incremental advance of one day:    {incremental_s:.2f}s "
        f"(tick {tick_s:.2f}s + incremental report {inc_report_s:.2f}s, "
        f"{ratio:.2f}x of batch)",
        f"full stream report (all 16 analyses): "
        f"{full_report_s:.2f}s",
        "fingerprints: stream == batch over the extended corpus",
    )

    # acceptance: consuming one appended day and refreshing the
    # incremental analyses costs at most a third of a batch rerun
    assert incremental_s <= batch_s / 3, (
        f"incremental advance took {incremental_s:.2f}s vs batch "
        f"{batch_s:.2f}s")
