"""``repro status``: one look at a watch session, live or post-mortem.

The status document is the obs snapshot read from
``<corpus>/.obs/snapshot.json``; it is written every tick, so it also
works after the session was SIGKILLed.  The SLO verdict shown is the
one the session itself computed, so ``status`` never re-judges stale
data against different rules; it *reports*, and its exit code (0 ok /
4 degraded / 5 unhealthy) makes the verdict scriptable.
"""

from __future__ import annotations

from typing import List

from repro.core.report import format_table
from repro.obs.slo import EXIT_CODES, STATE_OK, Health
from repro.obs.snapshot import snapshot_age_seconds


def status_exit_code(document: dict) -> int:
    """0 ok / 4 degraded / 5 unhealthy, from the document's own verdict."""
    state = (document.get("health") or {}).get("state", STATE_OK)
    return EXIT_CODES.get(state, EXIT_CODES[STATE_OK])


def render_status(document: dict) -> str:
    """The human-readable status view; ``--json`` bypasses this."""
    health = Health.from_json(document.get("health") or {})
    lines: List[str] = []
    age = snapshot_age_seconds(document)
    head = (f"{document.get('command', 'watch')} session on "
            f"{document.get('corpus', '?')}: {health.state.upper()}")
    if age is not None:
        head += f"  (snapshot {age:.0f}s old)"
    lines.append(head)
    for reason in health.reasons:
        lines.append(f"  ! {reason}")

    lines.append(
        f"watermark day {document.get('watermark_days', '?')} of "
        f"{document.get('committed_days', '?')} committed "
        f"(lag {document.get('lag_days', '?')} day(s)); "
        f"{document.get('ticks_observed', '?')} tick(s) observed")

    if health.checks:
        rows = [[c.name, c.state,
                 "-" if c.value is None else f"{c.value:g}",
                 "-" if c.threshold is None else f"{c.threshold:g}",
                 c.detail]
                for c in health.checks]
        lines.append("")
        lines.append(format_table(
            ["check", "state", "value", "threshold", "detail"], rows,
            title="SLO checks:"))

    taps = document.get("taps")
    if taps:
        rows = []
        for name, entry in sorted(taps.items()):
            rows.append([
                name, entry.get("state", "?"),
                entry.get("records_ok", 0),
                entry.get("records_malformed", 0),
                entry.get("last_error") or ""])
        lines.append("")
        lines.append(format_table(
            ["tap", "state", "ok", "malformed", "last_error"], rows,
            title="taps:"))

    events_logged = document.get("events_logged")
    if events_logged is not None:
        lines.append("")
        lines.append(f"{events_logged} event(s) logged this session "
                     "(.obs/events.jsonl)")
    return "\n".join(lines)
