"""Self-healing state plane: integrity scrubbing and journaled repair.

The doctor package closes the loop the crash-safe runtime opened: the
journals, manifests, and checkpoints written elsewhere in the tree give
every durable artifact at least one redundant witness, and the doctor is
the subsystem that *uses* that redundancy — a scrub pass
(:func:`scrub_corpus`) walks every artifact kind and emits a typed
:class:`DamageReport`, and a repair pass (:func:`repair_corpus`) heals
what the report names, idempotently and under its own fsynced journal.

Quickstart::

    from repro.doctor import scrub_corpus, repair_corpus

    report = scrub_corpus("corpus/")          # deep scrub, no mutation
    if not report.clean:
        outcome = repair_corpus("corpus/", report)
        assert scrub_corpus("corpus/").clean

The CLI front-end is ``repro doctor [--repair]``; the facade equivalent
is :meth:`repro.api.Study.doctor`.  ``repro watch`` runs the quick
variant of the scrub periodically in the background and surfaces damage
through the obs plane (``doctor.damage`` events, degraded readiness).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.doctor.report": ("SEVERITIES", "Damage", "DamageReport",
                            "RepairAction", "RepairReport"),
    "repro.doctor.scrub": ("ANALYSIS_JOURNAL_FILE", "DOCTOR_JOURNAL_FILE",
                           "DOCTOR_QUARANTINE_DIR", "scrub_corpus"),
    "repro.doctor.repair": ("repair_corpus",),
})

__all__ = [
    "ANALYSIS_JOURNAL_FILE",
    "DOCTOR_JOURNAL_FILE",
    "DOCTOR_QUARANTINE_DIR",
    "SEVERITIES",
    "Damage",
    "DamageReport",
    "RepairAction",
    "RepairReport",
    "repair_corpus",
    "scrub_corpus",
]
