"""Fault injectors for the data-plane packet store.

Mirrors :mod:`repro.faults.control` over the numpy ``PACKET_DTYPE`` record
array: ``(packets, rng, spec) -> (packets', affected, detail)``.  All
injectors return a fresh array; the input is never mutated.
``STUCK_SESSION`` has no data-plane meaning and raises
:class:`~repro.errors.FaultInjectionError`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.spec import DATA_KINDS, FaultKind, FaultSpec

#: default 1-sigma timestamp jitter at intensity 1.0, seconds
JITTER_SCALE = 5.0
#: default total clock drift accumulated over the trace at intensity 1.0, seconds
DRIFT_SCALE = 30.0

_Result = Tuple[np.ndarray, int, str]


def _finite_span(times: np.ndarray) -> Tuple[float, float]:
    finite = times[np.isfinite(times)]
    if len(finite) == 0:
        return 0.0, 0.0
    return float(finite.min()), float(finite.max())


def inject_drop(packets: np.ndarray, rng: np.random.Generator,
                spec: FaultSpec) -> _Result:
    keep = rng.random(len(packets)) >= spec.intensity
    return packets.compress(keep), int((~keep).sum()), "records dropped"


def inject_outage(packets: np.ndarray, rng: np.random.Generator,
                  spec: FaultSpec) -> _Result:
    t0, t1 = _finite_span(packets["time"])
    width = spec.intensity * (t1 - t0)
    start = t0 + rng.random() * max(0.0, (t1 - t0) - width)
    end = start + width
    keep = ~((packets["time"] >= start) & (packets["time"] < end))
    return packets.compress(keep), int((~keep).sum()), (
        f"outage window [{start:.0f}, {end:.0f})")


def inject_duplicate(packets: np.ndarray, rng: np.random.Generator,
                     spec: FaultSpec) -> _Result:
    dup = rng.random(len(packets)) < spec.intensity
    out = np.concatenate([packets, packets.compress(dup)])
    return out, int(dup.sum()), "records duplicated"


def inject_reorder(packets: np.ndarray, rng: np.random.Generator,
                   spec: FaultSpec) -> _Result:
    """Swap a fraction of records with a nearby position (export reordering)."""
    window = int(spec.params.get("window", 32))
    out = packets.copy()
    picked = np.flatnonzero(rng.random(len(out)) < spec.intensity)
    for i in picked:
        j = int(np.clip(i + rng.integers(-window, window + 1), 0, len(out) - 1))
        out[[i, j]] = out[[j, i]]
    return out, len(picked), f"records displaced (window={window})"


def inject_jitter(packets: np.ndarray, rng: np.random.Generator,
                  spec: FaultSpec) -> _Result:
    sigma = spec.intensity * float(spec.params.get("scale", JITTER_SCALE))
    out = packets.copy()
    out["time"] = out["time"] + rng.normal(0.0, sigma, size=len(out))
    return out, len(out), f"timestamps jittered (sigma={sigma:.2f}s)"


def inject_clock_drift(packets: np.ndarray, rng: np.random.Generator,
                       spec: FaultSpec) -> _Result:
    total = spec.intensity * float(spec.params.get("scale", DRIFT_SCALE))
    t0, t1 = _finite_span(packets["time"])
    span = max(t1 - t0, 1.0)
    out = packets.copy()
    out["time"] = out["time"] + total * (out["time"] - t0) / span
    return out, len(out), f"clock drift (total={total:.2f}s)"


def inject_corrupt(packets: np.ndarray, rng: np.random.Generator,
                   spec: FaultSpec) -> _Result:
    """Rot a fraction of timestamps: NaN, ±inf, or impossible negatives."""
    bad = rng.random(len(packets)) < spec.intensity
    out = packets.copy()
    garbage = np.array([np.nan, np.inf, -np.inf, -1.0e12])
    out["time"][bad] = garbage[rng.integers(len(garbage), size=int(bad.sum()))]
    return out, int(bad.sum()), "timestamps corrupted"


def inject_truncate(packets: np.ndarray, rng: np.random.Generator,
                    spec: FaultSpec) -> _Result:
    keep = len(packets) - int(round(spec.intensity * len(packets)))
    return packets[:keep].copy(), len(packets) - keep, "tail records truncated"


_INJECTORS = {
    FaultKind.DROP: inject_drop,
    FaultKind.OUTAGE: inject_outage,
    FaultKind.DUPLICATE: inject_duplicate,
    FaultKind.REORDER: inject_reorder,
    FaultKind.JITTER: inject_jitter,
    FaultKind.CLOCK_DRIFT: inject_clock_drift,
    FaultKind.CORRUPT: inject_corrupt,
    FaultKind.TRUNCATE: inject_truncate,
}


def apply_data_fault(packets: np.ndarray, rng: np.random.Generator,
                     spec: FaultSpec) -> _Result:
    """Dispatch one spec against a data-plane packet array."""
    if spec.kind not in DATA_KINDS or spec.kind not in _INJECTORS:
        raise FaultInjectionError(
            f"fault kind {spec.kind.value!r} is not applicable to the "
            "data plane"
        )
    return _INJECTORS[spec.kind](packets, rng, spec)
