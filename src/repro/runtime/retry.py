"""Retry policy: bounded attempts, exponential backoff, deterministic jitter.

The supervisor retries an analysis only when the failure looks
*transient*: the child was killed (OOM, stray signal), hit its wall-clock
timeout, or died raising an OS-level error.  Typed
:class:`~repro.errors.ReproError` failures — :class:`IngestError`,
:class:`FaultInjectionError`, :class:`AnalysisError`, … — are
deterministic properties of the data and are never retried; neither are
other Python exceptions, which are bugs.

Jitter is drawn from a :class:`random.Random` the analysis runner seeds
per analysis (``f"{seed}:{name}"``), so a given ``(policy, seed)``
produces the exact same backoff schedule every time — the determinism
contract the rest of the package keeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Union

from repro.errors import ReproError, SupervisorError

#: exception types whose failures are worth retrying (transient by nature)
RETRYABLE_TYPES = (OSError, MemoryError, TimeoutError, ConnectionError)

#: failure *events* (as opposed to exceptions) that are always retryable
RETRYABLE_EVENTS = frozenset({"timeout", "killed"})


def is_retryable_exception(exc: BaseException) -> bool:
    """Whether a raised exception warrants a retry.

    Typed library errors are deterministic data problems — retrying
    cannot help — so :class:`ReproError` always wins over the transient
    types even where an error multiply inherits (e.g. a hypothetical
    ``ReproError``/``OSError`` hybrid).
    """
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, RETRYABLE_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and multiplicative jitter.

    ``max_retries`` counts *re*-executions: an analysis runs at most
    ``max_retries + 1`` times.  The delay before retry ``n`` (0-based) is
    ``min(backoff_max, backoff_base * backoff_factor**n)`` scaled by a
    uniform jitter factor in ``[1, 1 + jitter]``.
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SupervisorError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise SupervisorError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise SupervisorError("backoff_factor must be >= 1")
        if self.jitter < 0:
            raise SupervisorError("jitter must be >= 0")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before re-running after failed attempt ``attempt``."""
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** attempt)
        return base * (1.0 + self.jitter * rng.random())

    def schedule(self, seed: Union[int, str]) -> List[float]:
        """The full deterministic backoff schedule for an RNG seed."""
        rng = random.Random(seed)
        return [self.delay(attempt, rng)
                for attempt in range(self.max_retries)]

