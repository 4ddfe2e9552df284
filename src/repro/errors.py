"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single except clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IPv4/MAC address or prefix could not be parsed or is invalid."""


class BGPError(ReproError):
    """A BGP message, route, or route-server operation is invalid."""


class PolicyError(BGPError):
    """A BGP policy was mis-specified or could not be evaluated."""


class FabricError(ReproError):
    """The switching fabric was asked to do something inconsistent."""


class ScenarioError(ReproError):
    """A scenario configuration is invalid or inconsistent."""


class CorpusError(ReproError):
    """A corpus is missing data required by an analysis step."""


class MissingCorpusFileError(CorpusError):
    """A directory lacks one of the three corpus files: not a corpus."""


class IngestError(CorpusError):
    """A corpus file could not be read or contained malformed records.

    Raised by the loaders under the ``strict`` error policy; under
    ``skip``/``collect`` the offending records are dropped (and optionally
    quarantined) and summarised in an :class:`repro.corpus.ingest.IngestReport`
    instead.
    """


class FaultInjectionError(ReproError):
    """A fault-injection spec is invalid or not applicable to its target."""


class AnalysisError(ReproError):
    """An analysis step received inputs it cannot process."""


class TelemetryError(ReproError):
    """A telemetry artifact (trace file, metrics dump) is unreadable."""


class CheckpointError(ReproError):
    """A checkpoint journal is unusable or does not match the run.

    Raised when ``--resume`` finds a journal written by a different
    configuration/seed, or when the journal itself is corrupt beyond the
    tolerated torn trailing line.
    """


class SupervisorError(ReproError):
    """The supervised analysis runner was misconfigured or cannot run."""


class StreamError(ReproError):
    """The streaming engine cannot watch, resume, or advance a corpus.

    Raised when the corpus directory lacks the committed day segments the
    engine tails (generate with ``--keep-segments``), when a stream
    checkpoint no longer matches the corpus journal (the corpus was
    regenerated underneath the watcher), or when ``advance`` is asked to
    extend a corpus whose provenance metadata is missing.
    """


class StreamCheckpointError(StreamError):
    """The stream checkpoint file itself is corrupt or torn.

    Distinct from the other :class:`StreamError` cases because it has a
    dedicated recovery path: the checkpoint is derived state, so ``repro
    watch --reset-stream`` can discard it and re-consume the commit log
    from day 0.  The CLI maps this to its own exit code so operators can
    automate that recovery.
    """

    #: the operator-facing recovery command
    recovery = "repro watch --reset-stream"


class ObsError(ReproError):
    """The operations plane has no state to report.

    Raised for ``repro status`` against a corpus that has never run a
    watch session (no ``.obs/`` state to report from).
    """


class ObsSnapshotError(ObsError):
    """The on-disk obs snapshot is corrupt, torn, or unversioned.

    Snapshots are written atomically, so corruption means something
    external happened to the file; ``repro status`` reports it as a
    typed error (exit 3) instead of guessing at session health.  The
    snapshot is derived state — the next watch tick rewrites it whole.
    """


class DoctorError(ReproError):
    """The integrity doctor cannot scrub or repair a corpus directory.

    Raised when the target is not a corpus-shaped directory at all, or
    when a repair precondition fails (e.g. a synthetic corpus whose
    generation parameters are unreadable, leaving nothing to rebuild
    from).  Individual damaged artifacts never raise — they become
    entries in the :class:`repro.doctor.DamageReport`.
    """


class TapError(ReproError):
    """A live-feed tap cannot be configured, read, or decoded.

    Raised for unparseable ``--tap`` specs, unknown adapter formats, bad
    supervision settings, and (under the ``strict`` error policy) the
    first malformed feed record.
    Transient source failures — a vanished file, a stalled feed — are
    *not* raised; the :class:`repro.taps.supervisor.TapSupervisor`
    absorbs those into its progress clock (stalled, then dead).
    """
