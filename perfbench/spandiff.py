"""Diff two traced benchmark runs span by span.

    python3 perfbench/spandiff.py BEFORE.json AFTER.json [--top N]

Both arguments are run records written by ``run.py --trace 1`` (under
``.perfbench/runs/``).  For every span name, the change in self time is
printed with the per-layer metric it feeds, largest change first, so a
regression names its layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics_catalog import SPAN_METRICS  # noqa: E402

METRIC_OF = {span: metric for metric, spans in SPAN_METRICS.items()
             for span in spans}


def load_spans(path: Path) -> Dict[str, dict]:
    record = json.loads(Path(path).read_text())
    spans = record.get("spans")
    if not spans:
        raise ValueError(f"{path}: no span table (not a --trace 1 record)")
    return spans


def diff(before: Dict[str, dict], after: Dict[str, dict]
         ) -> List[Tuple[str, float, float, float]]:
    """``(span, before self s, after self s, change)``, largest first."""
    rows = []
    for name in sorted(set(before) | set(after)):
        old = before.get(name, {}).get("self_s", 0.0)
        new = after.get(name, {}).get("self_s", 0.0)
        rows.append((name, old, new, new - old))
    rows.sort(key=lambda row: (-abs(row[3]), row[0]))
    return rows


def render(rows, top: int) -> str:
    total_old = sum(r[1] for r in rows)
    total_new = sum(r[2] for r in rows)
    lines = [f"{'span':34s} {'metric':32s} {'before s':>9s} "
             f"{'after s':>9s} {'change s':>9s}"]
    for name, old, new, change in rows[:top]:
        lines.append(f"{name:34s} {METRIC_OF.get(name, '-'):32s} "
                     f"{old:9.3f} {new:9.3f} {change:+9.3f}")
    lines.append(f"{'all spans':34s} {'':32s} {total_old:9.3f} "
                 f"{total_new:9.3f} {total_new - total_old:+9.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    try:
        rows = diff(load_spans(args.before), load_spans(args.after))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(rows, args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
