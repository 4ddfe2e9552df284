"""The ``platform.json`` sidecar of a corpus directory: reader and writer.

The sidecar carries everything the analysis pipeline needs beyond the two
corpora: the member ASNs, the route-server ASN, and the PeeringDB
registry for the org-type joins — plus the generation provenance
(``scale`` / ``duration_days`` / ``seed``) that ``repro advance`` uses to
extend a corpus deterministically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

from repro.corpus.manifest import META_FILE
from repro.errors import IngestError, ReproError
from repro.ixp.peeringdb import OrgType, PeeringDB, PeeringDBRecord
from repro.runtime.atomic import atomic_writer


def load_platform(corpus_dir: str | Path) -> Tuple[List[int], int, PeeringDB]:
    """``(peer_asns, route_server_asn, peeringdb)`` from ``platform.json``;
    :class:`~repro.errors.IngestError` when the sidecar is unusable."""
    meta = read_platform_meta(corpus_dir)
    db = PeeringDB()
    try:
        for entry in meta["peeringdb"]:
            db.register(PeeringDBRecord(
                asn=int(entry["asn"]), name=entry["name"],
                org_type=OrgType(entry["org_type"]), scope=entry["scope"],
            ))
        return list(meta["peer_asns"]), int(meta["route_server_asn"]), db
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise IngestError(f"{Path(corpus_dir) / META_FILE}: incomplete "
                          f"platform sidecar: {exc!r}") from exc


def write_platform_meta(corpus_dir: str | Path, meta: dict) -> None:
    """Atomically (re)write ``platform.json`` from ``meta``."""
    with atomic_writer(Path(corpus_dir) / META_FILE) as fh:
        fh.write(json.dumps(meta, indent=2))


def read_platform_meta(corpus_dir: str | Path) -> dict:
    """The raw ``platform.json`` dict; :class:`~repro.errors.IngestError`
    (a :class:`~repro.errors.CorpusError`) when it is unreadable."""
    path = Path(corpus_dir) / META_FILE
    try:
        meta = json.loads(path.read_text())
    except OSError as exc:
        raise IngestError(f"{path}: cannot read platform sidecar: {exc}"
                          ) from exc
    except ValueError as exc:
        raise IngestError(f"{path}: malformed platform sidecar: {exc}"
                          ) from exc
    if not isinstance(meta, dict):
        raise IngestError(f"{path}: platform sidecar is not an object")
    return meta
