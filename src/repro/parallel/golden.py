"""Golden equivalence: canonical fingerprints of analysis values.

Parallel execution is only worth shipping if its output is provably the
same as the serial reference path.  Analysis values are rich python
objects (dataclasses of numpy arrays, dicts keyed by enums, nested
result types), so "the same" needs a canonical byte encoding:
:func:`value_fingerprint` walks a value and feeds a type-tagged,
order-stabilised serialization into SHA-256.  Two values fingerprint
identically iff their public state is identical — floats are encoded via
``float.hex`` (exact, no repr rounding), arrays via dtype + shape + raw
bytes, and unordered containers are sorted by the fingerprint of their
elements so iteration order cannot leak in.

The golden-equivalence suite computes fingerprints on the inline path
and compares them with the fingerprints the runner's forked workers
computed in their child processes *before* the values crossed a pickle
pipe; the committed fixtures in ``tests/parallel/golden/`` then pin the
digests across PRs so silent drift in any analysis is caught.

Private attributes (``_``-prefixed) are deliberately excluded: lazy
memoisation caches may or may not be populated depending on which code
path ran, and that must not change a value's identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from typing import Any

import numpy as np

#: bump when the encoding changes incompatibly (invalidates fixtures)
FINGERPRINT_VERSION = 1


def value_fingerprint(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    digest = hashlib.sha256()
    digest.update(f"v{FINGERPRINT_VERSION}:".encode())
    _feed(digest, value, seen=set())
    return digest.hexdigest()


def _sub_digest(value: Any, seen: set) -> bytes:
    digest = hashlib.sha256()
    _feed(digest, value, seen)
    return digest.digest()


def _feed(h, value: Any, seen: set) -> None:
    """Feed one value into ``h`` with type tags so e.g. 1 != 1.0 != "1"."""
    if value is None:
        h.update(b"N;")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        h.update(b"b1;" if value else b"b0;")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i" + str(int(value)).encode() + b";")
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + float(value).hex().encode() + b";")
    elif isinstance(value, str):
        h.update(b"s" + value.encode("utf-8", "surrogatepass") + b";")
    elif isinstance(value, bytes):
        h.update(b"y" + value + b";")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(b"a" + arr.dtype.str.encode() + str(arr.shape).encode())
        if arr.dtype == object:
            for item in arr.ravel().tolist():
                _feed(h, item, seen)
        else:
            h.update(arr.tobytes())
        h.update(b";")
    elif isinstance(value, Enum):
        h.update(b"e" + type(value).__name__.encode())
        _feed(h, value.value, seen)
    else:
        _feed_composite(h, value, seen)


def _feed_composite(h, value: Any, seen: set) -> None:
    """Containers and objects: recurse, guarding against cycles."""
    marker = id(value)
    if marker in seen:
        h.update(b"C;")  # cycle: identity already on the path
        return
    seen.add(marker)
    try:
        if isinstance(value, (list, tuple)):
            h.update(b"l" if isinstance(value, list) else b"t")
            for item in value:
                _feed(h, item, seen)
            h.update(b";")
        elif isinstance(value, dict):
            h.update(b"m")
            entries = sorted(
                (_sub_digest(k, seen), k, v) for k, v in value.items())
            for _, key, val in entries:
                _feed(h, key, seen)
                _feed(h, val, seen)
            h.update(b";")
        elif isinstance(value, (set, frozenset)):
            h.update(b"S")
            for part in sorted(_sub_digest(item, seen) for item in value):
                h.update(part)
            h.update(b";")
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            h.update(b"d" + type(value).__name__.encode())
            for field in dataclasses.fields(value):
                h.update(field.name.encode() + b"=")
                _feed(h, getattr(value, field.name), seen)
            h.update(b";")
        elif hasattr(value, "__dict__"):
            # arbitrary result objects: public state only — private
            # attributes are memo caches whose presence is path-dependent
            h.update(b"o" + type(value).__name__.encode())
            for name in sorted(vars(value)):
                if name.startswith("_"):
                    continue
                h.update(name.encode() + b"=")
                _feed(h, getattr(value, name), seen)
            h.update(b";")
        else:
            # last resort: repr (stable for the value types the study uses,
            # e.g. IPv4Prefix); tagged so it can never collide with the
            # structured encodings above
            h.update(b"r" + repr(value).encode() + b";")
    finally:
        seen.discard(marker)
