"""Fig. 3: RTBH signaling load over time.

Two per-minute series out of the control corpus: the number of
*simultaneously active* blackhole prefixes, and the number of RTBH-related
BGP messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.control import ControlPlaneCorpus
from repro.errors import AnalysisError

MINUTE = 60.0


@dataclass(frozen=True)
class RTBHLoadSeries:
    """Per-minute load series and their headline statistics."""

    minute_starts: np.ndarray
    active_prefixes: np.ndarray
    messages_per_minute: np.ndarray

    @property
    def mean_active(self) -> float:
        return float(self.active_prefixes.mean())

    @property
    def peak_active(self) -> int:
        return int(self.active_prefixes.max())

    @property
    def peak_messages(self) -> int:
        return int(self.messages_per_minute.max())

    @property
    def mean_messages(self) -> float:
        return float(self.messages_per_minute.mean())


def rtbh_load_series(control: ControlPlaneCorpus,
                     t0: float | None = None,
                     t1: float | None = None) -> RTBHLoadSeries:
    """Build the Fig. 3 series over ``[t0, t1)`` (corpus span by default)."""
    if len(control) == 0:
        raise AnalysisError("empty control corpus")
    t0 = control.start_time if t0 is None else t0
    t1 = control.end_time if t1 is None else t1
    fold = control.rtbh_fold
    return load_series_from_state(fold.merged_windows(), fold.rtbh_times,
                                  t0, t1)


def load_series_from_state(merged, message_times, t0: float,
                           t1: float) -> RTBHLoadSeries:
    """Fig. 3 from the RTBH automaton's state — no corpus scan.

    ``merged`` is the per-prefix any-announcer union of
    :meth:`~repro.corpus.control.ControlReducer.merged_windows` (only the
    leading ``(start, end)`` of each entry is read); ``message_times``
    the timestamps of the RTBH-related updates.
    """
    if t1 <= t0:
        raise AnalysisError("t1 must be after t0")
    edges = np.arange(t0, t1 + MINUTE, MINUTE)
    n_bins = len(edges) - 1

    messages = np.zeros(n_bins, dtype=np.int64)
    # active count via +1/-1 deltas at window edges; the union already
    # counts each prefix once however many peers announce it
    deltas = np.zeros(n_bins + 1, dtype=np.int64)
    for windows in merged.values():
        for start, end, *_ in windows:
            lo = int(np.clip((start - t0) // MINUTE, 0, n_bins))
            hi = int(np.clip((end - t0) // MINUTE, 0, n_bins))
            deltas[lo] += 1
            deltas[hi] -= 1
    active = np.cumsum(deltas[:-1])

    counts, _ = np.histogram(np.asarray(message_times, dtype=np.float64),
                             bins=edges)
    messages += counts
    return RTBHLoadSeries(
        minute_starts=edges[:-1],
        active_prefixes=active,
        messages_per_minute=messages,
    )
