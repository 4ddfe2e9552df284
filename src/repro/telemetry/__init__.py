"""repro.telemetry — zero-dependency instrumentation for the whole stack.

Three pieces (mirroring what the paper's own measurement apparatus keeps,
§3.1):

* a **metrics registry** — labeled counters / gauges / histograms, e.g.
  ``sampler.packets_sampled``, ``route_server.updates{action=announce}``,
  ``ingest.records{outcome=skipped,plane=control}``,
  ``pipeline.analysis_seconds{name=fig3_load}``;
* **hierarchical tracing spans** — ``with telemetry.span("generate.traffic")``
  captures wall time, peak-RSS delta, and escaping exception type, emitted
  as JSONL; and
* a **run manifest** stamping every invocation with seed, config hash, and
  git revision (:mod:`repro.telemetry.manifest`).

Instrumented call sites never take a telemetry parameter; they ask
:func:`current` for the active context.  By default that is :data:`NULL` —
a backend whose spans and instruments are shared no-ops, making the layer
free when nobody is listening.  The CLI (or a test) enables collection by
activating a real context::

    telem = Telemetry()
    with activate(telem):
        run_scenario(config)           # spans/counters land in ``telem``
    telem.write_trace("trace.jsonl", manifest=manifest)

Single-threaded by design, matching the rest of the package; an activation
is process-global, not thread-local.
"""

from __future__ import annotations

import json
import time as _time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.manifest import config_hash, git_revision, run_manifest
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    series_key,
)
from repro.telemetry.trace import NullTracer, Span, Tracer, peak_rss_kb

__all__ = [
    "Counter",
    "EventChannel",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullTelemetry",
    "SEVERITIES",
    "Span",
    "Telemetry",
    "Tracer",
    "activate",
    "config_hash",
    "current",
    "ensure_active",
    "events",
    "git_revision",
    "peak_rss_kb",
    "run_manifest",
    "series_key",
]

#: event severities, in escalation order (used by sinks to filter)
SEVERITIES = ("debug", "info", "warning", "error")


class EventChannel:
    """The structured operational event stream of one telemetry context.

    Where metrics answer "how much" and spans answer "how long", events
    answer "what happened": tap deaths, quarantined records, day
    commits, checkpoint writes, SLO state changes.  Each
    :meth:`emit` produces one flat JSON-serializable record —
    ``{"kind", "severity", "time", ...fields}`` — buffered in order and
    fanned out to every subscribed sink (the obs plane subscribes its
    JSONL event log; tests subscribe lists).  A sink that raises does
    not disturb the emitting call site: operational logging must never
    take down the operation it logs.
    """

    #: cap on the in-memory buffer; long-running watch sessions rely on
    #: the subscribed sinks (which rotate), not on this buffer
    MAX_BUFFER = 10_000

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._sinks: List[Callable[[dict], None]] = []

    def subscribe(self, sink: Callable[[dict], None]) -> None:
        self._sinks.append(sink)

    def unsubscribe(self, sink: Callable[[dict], None]) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, kind: str, *, severity: str = "info",
             **fields: Any) -> dict:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown event severity {severity!r} "
                             f"(expected one of {SEVERITIES})")
        record: Dict[str, Any] = {"kind": kind, "severity": severity,
                                  "time": _time.time(), **fields}
        self.records.append(record)
        if len(self.records) > self.MAX_BUFFER:
            del self.records[:len(self.records) - self.MAX_BUFFER]
        for sink in self._sinks:
            try:
                sink(record)
            except Exception:  # noqa: BLE001 — see docstring
                pass
        return record


class _NullEventChannel(EventChannel):
    """Disabled events: nothing buffered, nothing fanned out."""

    def emit(self, kind: str, *, severity: str = "info",
             **fields: Any) -> dict:
        return {"kind": kind, "severity": severity}


class Telemetry:
    """One collection context: a registry plus a tracer.

    ``progress`` (optional) is called with one formatted line every time a
    span closes — the CLI wires it to stderr for ``generate --progress``.
    """

    enabled = True

    def __init__(self, progress: Optional[Callable[[str], None]] = None):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(on_close=self._on_span_close if progress else None)
        self.events = EventChannel()
        self._progress = progress

    # -- instrumentation surface (what call sites use) ----------------------

    def counter(self, name: str, /, **labels: str) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, /, **labels: str) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, /, **labels: str) -> Histogram:
        return self.registry.histogram(name, **labels)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, kind: str, *, severity: str = "info",
              **fields: Any) -> dict:
        """Emit one structured operational event (see :class:`EventChannel`)."""
        return self.events.emit(kind, severity=severity, **fields)

    # -- progress rendering -------------------------------------------------

    def _on_span_close(self, span: Span) -> None:
        detail = " ".join(f"{k}={v}" for k, v in span.attrs.items()
                          if isinstance(v, (int, float, str)))
        line = f"{'  ' * span.depth}{span.name}: {span.seconds:.2f}s"
        if detail:
            line += f" ({detail})"
        if span.error_type:
            line += f" [{span.error_type}]"
        self._progress(line)

    # -- output --------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()

    def write_trace(self, path: str | Path,
                    manifest: Optional[dict] = None) -> Path:
        """Write the buffered trace as JSONL: manifest first, one span per
        line, final metrics snapshot last."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            if manifest is not None:
                fh.write(json.dumps(manifest) + "\n")
            for record in self.tracer.records:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"type": "metrics",
                                 "metrics": self.metrics_snapshot()}) + "\n")
        return path

    def write_metrics(self, path: str | Path,
                      manifest: Optional[dict] = None) -> Path:
        """Write the metrics snapshot (plus manifest) as one JSON file."""
        path = Path(path)
        payload = {"manifest": manifest, "metrics": self.metrics_snapshot()}
        path.write_text(json.dumps(payload, indent=2))
        return path


class NullTelemetry(Telemetry):
    """The disabled backend: every operation is a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        self.registry = NullRegistry()
        self.tracer = NullTracer()
        self.events = _NullEventChannel()
        self._progress = None


#: the process-wide disabled default
NULL = NullTelemetry()

_current: Telemetry = NULL


def current() -> Telemetry:
    """The active telemetry context (the no-op :data:`NULL` by default)."""
    return _current


def events() -> EventChannel:
    """The active context's event channel (no-op under :data:`NULL`)."""
    return _current.events


def ensure_active() -> Telemetry:
    """A *collecting* context for the rest of the process.

    Long-running sessions (``repro watch`` with the operations plane,
    ``Study.watch`` with obs options) need a real registry and event
    channel with no natural ``with activate(...)`` scope to wrap them
    in.  This installs a fresh :class:`Telemetry` process-globally iff
    the no-op default is still active, and returns whatever context ends
    up current — so it composes with an explicit ``activate`` block
    instead of fighting it.
    """
    global _current
    if _current is NULL:
        _current = Telemetry()
    return _current


@contextmanager
def activate(telemetry: Telemetry):
    """Install ``telemetry`` as the process-wide context for the block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
