"""Fault-tolerant live-feed taps: external BGP feeds → the commit log.

``repro.taps`` adapts foreign control-plane formats (MRT-style framed
dumps, RIPE RIS-style JSON lines, exabgp-style line streams) read from
growing files into the streaming engine's commit log, under supervision
— a progress clock that marks silent taps stalled and then dead, source
rewind on truncation or rotation, bounded ingest queues, and
SHA-256-deduped malformed-record quarantine.  See DESIGN.md §11 for the
feed fault model.
"""

from repro.taps.adapters import (
    ADAPTERS,
    ExaBGPAdapter,
    MRTAdapter,
    RISLinesAdapter,
    TapAdapter,
    TapSpec,
    parse_tap_spec,
    write_feed,
)
from repro.taps.session import TapPumpReport, TapSession
from repro.taps.supervisor import (
    BoundedQueue,
    TapConfig,
    TapState,
    TapSupervisor,
)

__all__ = [
    "ADAPTERS",
    "BoundedQueue",
    "ExaBGPAdapter",
    "MRTAdapter",
    "RISLinesAdapter",
    "TapAdapter",
    "TapConfig",
    "TapPumpReport",
    "TapSession",
    "TapSpec",
    "TapState",
    "TapSupervisor",
    "parse_tap_spec",
    "write_feed",
]
