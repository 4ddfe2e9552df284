"""On-disk fault injectors: the faults that only exist at the file layer.

Record-level injectors (:mod:`repro.faults.control` / ``.data``) perturb
in-memory sequences; these perturb the *bytes* a collector actually hands
the pipeline — truncated dumps, garbled lines, flipped bytes inside a
compressed archive.  They are what `repro validate` and the lenient loaders
are hardened against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: printable garbage written over garbled JSONL lines
_GARBAGE_LINES = (
    "{\"time\": \"not-a-number\", \"peer_asn\": 0}",
    "{truncated json",
    "\x00\x01\x02 binary splatter \x7f",
    "",
    "{\"time\": 1.0, \"peer_asn\": -5, \"action\": \"announce\", "
    "\"prefix\": \"999.1.2.0/24\", \"next_hop\": null, \"as_path\": [], "
    "\"communities\": []}",
)


def truncate_file(path: str | Path, fraction: float,
                  rng: np.random.Generator | None = None) -> int:
    """Cut the trailing ``fraction`` of a file's bytes (mid-record cuts
    included — exactly what a dying collector leaves behind). Returns the
    number of bytes removed."""
    path = Path(path)
    size = path.stat().st_size
    keep = int(size * (1.0 - fraction))
    with open(path, "rb+") as fh:
        fh.truncate(keep)
    return size - keep


def garble_jsonl(path: str | Path, fraction: float,
                 rng: np.random.Generator) -> int:
    """Overwrite a fraction of lines with malformed payloads. Returns the
    number of lines garbled."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    if not lines:
        return 0
    bad = np.flatnonzero(rng.random(len(lines)) < fraction)
    for i in bad:
        lines[i] = _GARBAGE_LINES[int(rng.integers(len(_GARBAGE_LINES)))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(bad)


def flip_bytes(path: str | Path, count: int,
               rng: np.random.Generator) -> int:
    """XOR ``count`` random bytes in place — bit rot for binary archives.
    Returns the number of bytes flipped."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        return 0
    positions = rng.integers(0, len(blob), size=count)
    for pos in positions:
        blob[int(pos)] ^= 0xFF
    path.write_bytes(bytes(blob))
    return len(positions)
