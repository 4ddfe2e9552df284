"""Fault taxonomy and injection specs.

Real route-server dumps and IPFIX exports do not arrive pristine: collectors
restart (outages, truncated files), exporters resend (duplicates), UDP
transport reorders, clocks jitter and drift, disks corrupt records, and BGP
sessions die without withdrawing their routes.  Each of those failure modes
is one :class:`FaultKind`; a :class:`FaultSpec` names a kind, an intensity
in ``(0, 1]``, and optional kind-specific parameters.  Injection is fully
deterministic given ``(spec, seed)`` so robustness sweeps are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Mapping, Tuple

from repro.errors import FaultInjectionError


class FaultKind(str, Enum):
    """One class of corpus degradation observed in operational feeds."""

    #: independent random record loss (lossy collector / sampling gaps)
    DROP = "drop"
    #: one contiguous time window lost entirely (collector restart)
    OUTAGE = "outage"
    #: records delivered more than once (exporter retransmission)
    DUPLICATE = "duplicate"
    #: records delivered out of time order (UDP transport, multi-threaded dump)
    REORDER = "reorder"
    #: per-record timestamp noise (NTP scatter across collectors)
    JITTER = "jitter"
    #: monotonic clock drift growing over the trace (unsynced collector clock)
    CLOCK_DRIFT = "clock_drift"
    #: field-level corruption producing non-finite timestamps (disk/transfer rot)
    CORRUPT = "corrupt"
    #: trailing fraction of the feed missing (truncated dump file)
    TRUNCATE = "truncate"
    #: a peer's withdrawals never reach the collector (dead session → zombies)
    STUCK_SESSION = "stuck_session"


#: kinds meaningful for the control-plane message log
CONTROL_KINDS = frozenset(FaultKind)
#: kinds meaningful for the data-plane packet store (no BGP sessions there)
DATA_KINDS = frozenset(FaultKind) - {FaultKind.STUCK_SESSION}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: ``kind`` at ``intensity``, tuned by ``params``.

    ``intensity`` is the affected fraction — of records for record-level
    kinds, of the time span for :attr:`FaultKind.OUTAGE`, of peers for
    :attr:`FaultKind.STUCK_SESSION`, and the relative magnitude for the
    clock faults.
    """

    kind: FaultKind
    intensity: float = 0.1
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            try:
                object.__setattr__(self, "kind", FaultKind(self.kind))
            except ValueError:
                raise FaultInjectionError(
                    f"unknown fault kind: {self.kind!r}"
                ) from None
        if not (0.0 < self.intensity <= 1.0):
            raise FaultInjectionError(
                f"fault intensity must be in (0, 1]: {self.intensity}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``kind[:intensity]``, e.g. ``drop:0.2``."""
        name, _, level = text.partition(":")
        try:
            intensity = float(level) if level else 0.1
        except ValueError:
            raise FaultInjectionError(
                f"bad fault intensity in {text!r}"
            ) from None
        return cls(kind=name.strip(), intensity=intensity)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.intensity:g}"


@dataclass(frozen=True)
class FaultApplication:
    """What one spec actually did: how many records/peers/bytes it touched."""

    spec: FaultSpec
    affected: int
    detail: str = ""

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.spec}: {self.affected} affected{extra}"


@dataclass
class FaultReport:
    """The full, ordered log of applied faults for one injection run."""

    seed: int
    target: str
    applications: List[FaultApplication] = field(default_factory=list)

    @property
    def total_affected(self) -> int:
        return sum(a.affected for a in self.applications)

    def format(self) -> str:
        lines = [f"fault injection on {self.target} (seed={self.seed}):"]
        for app in self.applications:
            lines.append(f"  {app}")
        if not self.applications:
            lines.append("  (no faults applied)")
        return "\n".join(lines)


def spec_rng_seed(base_seed: int, index: int, spec: FaultSpec) -> Tuple[int, int, int]:
    """Seed material making each (run, position, kind) stream independent."""
    kind_ordinal = list(FaultKind).index(spec.kind)
    return (base_seed & 0x7FFFFFFF, index, kind_ordinal)
