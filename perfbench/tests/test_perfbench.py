"""Self-tests of the end-to-end benchmark.

    python3 -m pytest perfbench/tests -q

Smoke runs use ``--tiny`` corpora, so the whole file takes about a
minute on a 2-CPU box.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import legacy  # noqa: E402
import metrics_catalog as catalog  # noqa: E402
import spandiff  # noqa: E402
from run import WORKLOADS  # noqa: E402
from traced_run import self_times, span_table  # noqa: E402

RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def bench_run(args, tmp_path, prelude=None):
    """Run the benchmark; return (returncode, stdout lines, final JSON)."""
    argv = [*args, "--workdir", str(tmp_path / "pb")]
    if prelude is None:
        cmd = [sys.executable, str(RUN), *argv]
    else:
        script = (f"import runpy, sys\n{prelude}\n"
                  f"sys.argv = [{str(RUN)!r}] + {argv!r}\n"
                  f"runpy.run_path({str(RUN)!r}, run_name='__main__')\n")
        cmd = [sys.executable, "-c", script]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result, proc.stderr


def record_of(lines):
    path = next(l.split("record: ", 1)[1] for l in lines
                if l.strip().startswith("record: "))
    return json.loads(Path(path).read_text())


# -- catalog and BENCHMARK.json ------------------------------------------


def test_every_metric_name_is_valid_and_has_a_unit():
    units = {**catalog.end_to_end_units(), **catalog.per_layer_units()}
    # no name is both an end-to-end and a per-layer metric
    assert len(units) == \
        len(catalog.END_TO_END) + len(catalog.per_layer_units())
    for name, unit in units.items():
        assert catalog.NAME_RE.match(name), name
        assert catalog.UNIT_RE.match(unit), (name, unit)
    for name in catalog.GATED_END_TO_END:
        assert name in catalog.END_TO_END
    for name in catalog.GATED_PER_LAYER:
        assert name in catalog.per_layer_units()


def test_benchmark_json_lists_the_gated_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    e2e = catalog.end_to_end_units()
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        list(catalog.GATED_END_TO_END)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"] == e2e[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    per_layer = catalog.per_layer_units()
    assert [m["name"] for m in SPEC["per_layer"]] == \
        list(catalog.GATED_PER_LAYER)
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["unit"] == per_layer[metric["name"]]


def test_every_analysis_has_a_self_time_metric():
    from repro.core.registry import ANALYSES

    assert tuple(s.name for s in ANALYSES) == catalog.ANALYSES


# -- smoke runs ----------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_emits_exactly_the_listed_metrics(
        workload, trace, tmp_path):
    rc, lines, result, err = bench_run(
        ["--workload", workload, "--seed", "3", "--trace", str(trace),
         "--tiny"], tmp_path)
    assert rc == 0, err
    assert result is not None, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record_of(lines)
    assert result["attempted"] >= 10
    section = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == listed
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        record = record_of(lines)
        assert record["absent"] == []
        # self times cover the traced wall time
        assert abs(record["metrics"]["trace.unattributed_s"]["value"]) < \
            0.05 * record["metrics"]["trace.wall_s"]["value"] + 0.05


def test_traced_run_without_columnar_reports_the_layer_absent(tmp_path):
    # generate/validate/doctor still bind the sidecar store until that
    # layer is deleted, so those modules stay loaded; the package and the
    # engine the pipeline factory imports become unimportable
    prelude = (
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import repro.columnar.store, repro.columnar.format\n"
        "kept = {'repro.columnar.store', 'repro.columnar.format',\n"
        "        'repro.columnar.encode'}\n"
        "for name in list(sys.modules):\n"
        "    if name.startswith('repro.columnar') and name not in kept:\n"
        "        sys.modules[name] = None\n")
    rc, lines, result, err = bench_run(
        ["--workload", "study-small", "--trace", "1", "--tiny"], tmp_path,
        prelude=prelude)
    assert rc == 0, err
    assert result["correct"] and result["failed"] == 0, record_of(lines)
    record = record_of(lines)
    assert "columnar.write_s" in record["absent"]
    assert not any(n.startswith("columnar.") for n in record["metrics"])
    # the pipeline came from the AnalysisPipeline fallback
    assert "core.pipeline_s" in record["metrics"]
    assert set(result["metrics"]) == \
        {m["name"] for m in SPEC["per_layer"]}


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-small",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert '"correct"' not in proc.stdout


# -- span accounting and diff --------------------------------------------


def _span(span_id, name, seconds, parent=None):
    return {"type": "span", "span_id": span_id, "parent_id": parent,
            "name": name, "seconds": seconds, "attrs": {}}


def test_self_time_subtracts_children():
    records = [_span(1, "bench.generate", 10.0),
               _span(2, "generate.routes", 6.0, parent=1),
               _span(3, "generate.write", 3.0, parent=1),
               _span(4, "checkpoint.commit", 1.0, parent=3)]
    own = self_times(records)
    assert own == {1: 1.0, 2: 6.0, 3: 2.0, 4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)
    assert span_table(records)["generate.write"]["self_s"] == 2.0


def test_span_diff_names_the_layer_that_moved(tmp_path, capsys):
    before = {"generate.routes": {"self_s": 5.0},
              "analyze.table2_pre_classes": {"self_s": 1.0}}
    after = {"generate.routes": {"self_s": 5.1},
             "analyze.table2_pre_classes": {"self_s": 2.5},
             "doctor.scrub": {"self_s": 0.2}}
    rows = spandiff.diff(before, after)
    assert [r[0] for r in rows] == ["analyze.table2_pre_classes",
                                    "doctor.scrub", "generate.routes"]
    for side, spans in (("a", before), ("b", after)):
        (tmp_path / f"{side}.json").write_text(json.dumps({"spans": spans}))
    assert spandiff.main([str(tmp_path / "a.json"),
                          str(tmp_path / "b.json")]) == 0
    first = capsys.readouterr().out.splitlines()[1]
    assert "core.table2_pre_classes_s" in first and "+1.500" in first


# -- legacy entries ------------------------------------------------------


def test_legacy_entries_match_the_committed_record():
    bench_dir = ROOT / "benchmarks"
    if not any((bench_dir / name).exists() for name in legacy.SOURCES):
        pytest.skip("the earlier bench files are gone; legacy.json keeps "
                    "their entries")
    committed = json.loads(legacy.LEGACY_FILE.read_text())["entries"]
    assert committed == legacy.legacy_entries(bench_dir)
    assert all(e["label"] == "legacy" and e["comparable"] is False
               and e["cpu_count"] == 1 for e in committed)
