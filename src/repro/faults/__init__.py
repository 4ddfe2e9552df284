"""Deterministic fault injection for measurement corpora.

Models the degradations real route-server dumps and IPFIX exports arrive
with — loss, outages, duplication, reordering, clock faults, corruption,
truncation, stuck sessions — so the ingestion and analysis layers can be
hardened against them and regression-tested with reproducible sweeps.

Quickstart::

    from repro.faults import FaultSpec, inject_control_messages

    degraded, report = inject_control_messages(
        list(result.control),
        [FaultSpec("drop", 0.05), FaultSpec("jitter", 0.2)],
        seed=7,
    )
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.faults.spec": ("CONTROL_KINDS", "DATA_KINDS", "FaultApplication",
                          "FaultKind", "FaultReport", "FaultSpec"),
    "repro.faults.inject": ("degrade_corpus_dir", "inject_control_messages",
                            "inject_packets"),
    "repro.faults.files": ("files",),
    "repro.faults.io": ("io",),
})

__all__ = [
    "CONTROL_KINDS",
    "DATA_KINDS",
    "FaultApplication",
    "FaultKind",
    "FaultReport",
    "FaultSpec",
    "degrade_corpus_dir",
    "inject_control_messages",
    "inject_packets",
    "files",
    "io",
]
