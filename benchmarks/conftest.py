"""Shared benchmark infrastructure.

One scenario corpus is generated per session at a configurable scale
(``REPRO_BENCH_SCALE``, default 0.05 of the paper's population;
``REPRO_BENCH_DAYS``, default the paper's 104 days) and every per-figure
benchmark analyses it. Expensive shared intermediates (event extraction,
pre-RTBH classification, host profiling) are session fixtures so each
benchmark times only its own analysis.

Every benchmark prints a *paper vs measured* comparison through
:func:`report`, which bypasses pytest's capture so the rows land in the
tee'd output file.

Setting ``REPRO_BENCH_TRACE`` (and/or ``REPRO_BENCH_METRICS``) to a file
path activates a session-wide :class:`repro.telemetry.Telemetry`, so the
corpus generation and every analysis run under the benchmarks emit spans
and counters; the trace/metrics files are written when the session ends.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import AnalysisPipeline, telemetry
from repro.scenario import ScenarioConfig, run_scenario

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_DAYS = float(os.environ.get("REPRO_BENCH_DAYS", "104"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
BENCH_TRACE = os.environ.get("REPRO_BENCH_TRACE")
BENCH_METRICS = os.environ.get("REPRO_BENCH_METRICS")

#: where a run writes what it measured: the git-ignored ``.benchmarks/``
#: at the repository root, so a run never rewrites a committed file
OUTPUT_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"

#: paper-vs-measured blocks are appended here as well, so the comparison
#: survives even when output is piped
RESULTS_PATH = OUTPUT_DIR / "latest_results.txt"

_TELEM = None
_ACTIVATION = None
_STARTED = None
#: where this session's blocks begin inside ``latest_results.txt`` —
#: earlier sessions' blocks are history and stay put
_SESSION_OFFSET = 0


def pytest_configure(config):
    global _TELEM, _ACTIVATION, _STARTED, _SESSION_OFFSET
    # append a dated session header instead of truncating: earlier local
    # sessions' measurements stay readable
    stamp = time.strftime("%Y-%m-%d %H:%M:%S %z")
    header = (f"##### bench session {stamp} (scale={BENCH_SCALE}, "
              f"days={BENCH_DAYS:g}, seed={BENCH_SEED}) #####\n\n")
    OUTPUT_DIR.mkdir(exist_ok=True)
    with RESULTS_PATH.open("a", encoding="utf-8") as fh:
        _SESSION_OFFSET = fh.tell()
        fh.write(header)
    if BENCH_TRACE or BENCH_METRICS:
        _TELEM = telemetry.Telemetry()
        _ACTIVATION = telemetry.activate(_TELEM)
        _ACTIVATION.__enter__()
        _STARTED = time.perf_counter()


def pytest_unconfigure(config):
    global _TELEM, _ACTIVATION
    if _TELEM is None:
        return
    manifest = telemetry.run_manifest(
        "benchmark", seed=BENCH_SEED,
        scale=BENCH_SCALE, duration_days=BENCH_DAYS)
    manifest["wall_seconds"] = round(time.perf_counter() - _STARTED, 6)
    if BENCH_TRACE:
        _TELEM.write_trace(BENCH_TRACE, manifest=manifest)
    if BENCH_METRICS:
        _TELEM.write_metrics(BENCH_METRICS, manifest=manifest)
    _ACTIVATION.__exit__(None, None, None)
    _TELEM = None
    _ACTIVATION = None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay this session's paper-vs-measured blocks into the terminal
    summary — this is the same channel the benchmark table uses, so the
    comparison survives redirects and tee."""
    text = ""
    if RESULTS_PATH.exists():
        with RESULTS_PATH.open(encoding="utf-8") as fh:
            fh.seek(_SESSION_OFFSET)
            text = fh.read()
    if text.strip():
        terminalreporter.section("paper vs measured")
        for line in text.splitlines():
            terminalreporter.write_line(line)


def report(title: str, *lines: str) -> None:
    """Record a paper-vs-measured comparison block.

    Blocks are collected in ``.benchmarks/latest_results.txt`` and
    replayed at the end of the pytest session.
    """
    block = [f"=== {title} ==="] + list(lines)
    with RESULTS_PATH.open("a", encoding="utf-8") as fh:
        fh.write("\n".join(block) + "\n\n")


def record_bench_json(path: Path, results: dict) -> dict:
    """Write ``results`` as the dated ``latest`` entry of a BENCH_*.json
    file under :data:`OUTPUT_DIR`, pushing any previous latest onto
    ``history``.

    Measurements are append-only: re-running a bench never erases the
    numbers an earlier run recorded.  Pre-history files (a bare results
    object) are adopted as the first history entry.
    """
    import json

    document = {"history": []}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = None
        if isinstance(previous, dict) and "latest" in previous:
            document["history"] = list(previous.get("history", []))
            if previous["latest"]:
                document["history"].append(previous["latest"])
        elif isinstance(previous, dict) and previous:
            previous.setdefault("recorded", "pre-history")
            document["history"].append(previous)
    document["latest"] = dict(results,
                              recorded=time.strftime("%Y-%m-%d %H:%M:%S"))
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


@pytest.fixture(scope="session")
def bench_config() -> ScenarioConfig:
    return ScenarioConfig.paper(scale=BENCH_SCALE, duration_days=BENCH_DAYS,
                                seed=BENCH_SEED)


@pytest.fixture(scope="session")
def scenario_result(bench_config):
    result = run_scenario(bench_config)
    report(
        f"scenario (scale={BENCH_SCALE}, {BENCH_DAYS:g} days, seed={BENCH_SEED})",
        f"members={len(result.ixp)}  planned events={len(result.plan.events)}",
        f"control messages={len(result.control)}  sampled packets={len(result.data)}",
    )
    return result


@pytest.fixture(scope="session")
def pipeline(scenario_result) -> AnalysisPipeline:
    return AnalysisPipeline(
        scenario_result.control,
        scenario_result.data,
        peer_asns=scenario_result.ixp.member_asns,
        peeringdb=scenario_result.ixp.peeringdb,
    )


@pytest.fixture(scope="session")
def events(pipeline):
    return pipeline.events


@pytest.fixture(scope="session")
def pre_classification(pipeline):
    return pipeline.pre_classification


@pytest.fixture(scope="session")
def event_traffic(pipeline):
    return pipeline.event_traffic


@pytest.fixture(scope="session")
def host_study(pipeline):
    return pipeline.host_study


def once(benchmark, fn):
    """Benchmark an expensive analysis with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
