"""Import the earlier ad-hoc bench results as labelled legacy entries.

    python3 perfbench/legacy.py     # rewrites perfbench/legacy.json

``benchmarks/BENCH_{parallel,columnar,streaming}.json`` were each written
by a script timing one engine on an in-memory pipeline on a 1-CPU
container.  Their ``latest`` and ``history`` entries are copied here
verbatim, labelled as not comparable with this benchmark, so they
survive whatever later happens to those files.  The source files are
only read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
LEGACY_FILE = HERE / "legacy.json"
SOURCES = {
    "BENCH_parallel.json": "benchmarks/bench_parallel.py: serial vs pool "
                           "vs cached analyze, in-memory pipeline",
    "BENCH_columnar.json": "benchmarks/bench_columnar.py: columnar vs "
                           "record engine, in-memory pipeline",
    "BENCH_streaming.json": "benchmarks/bench_streaming.py: one-day "
                            "advance and incremental report vs batch",
}


def legacy_entries(bench_dir: Path) -> List[dict]:
    entries = []
    for name, harness in SOURCES.items():
        path = bench_dir / name
        if not path.exists():
            continue
        document = json.loads(path.read_text())
        if "latest" in document or "history" in document:
            slots = [("latest", document.get("latest"))]
            slots += [(f"history[{i}]", entry) for i, entry
                      in enumerate(document.get("history", []))]
        else:
            # written before the file kept a history: the whole document
            # is its one and latest entry
            slots = [("latest", document)]
        for slot, data in slots:
            if data is None:
                continue
            entries.append({
                "label": "legacy",
                "source": f"benchmarks/{name}",
                "slot": slot,
                "harness": harness,
                "cpu_count": data.get("cpu_count", 1),
                "comparable": False,
                "data": data,
            })
    return entries


def main() -> int:
    entries = legacy_entries(HERE.parent / "benchmarks")
    LEGACY_FILE.write_text(json.dumps(
        {"note": "earlier measurements from different harnesses on 1 CPU; "
                 "not comparable with perfbench/run.py",
         "entries": entries}, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} legacy entries -> {LEGACY_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
