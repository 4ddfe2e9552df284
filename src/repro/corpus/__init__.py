"""Measurement corpora: the control-plane BGP message log and the
numpy-backed data-plane store of sampled packets, with persistence,
per-record error policies, and manifest-based integrity validation.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.corpus.control": ("ControlPlaneCorpus",),
    "repro.corpus.data": ("DataPlaneCorpus",),
    "repro.corpus.ingest": ("IngestProblem", "IngestReport"),
    "repro.corpus.manifest": ("CONTROL_FILE", "DATA_FILE", "MANIFEST_FILE",
                              "META_FILE", "ValidationIssue",
                              "ValidationReport", "validate_corpus",
                              "write_manifest"),
})

__all__ = [
    "ControlPlaneCorpus",
    "DataPlaneCorpus",
    "IngestProblem",
    "IngestReport",
    "CONTROL_FILE",
    "DATA_FILE",
    "MANIFEST_FILE",
    "META_FILE",
    "ValidationIssue",
    "ValidationReport",
    "validate_corpus",
    "write_manifest",
]
