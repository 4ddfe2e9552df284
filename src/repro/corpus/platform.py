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
from repro.errors import CorpusError
from repro.ixp.peeringdb import OrgType, PeeringDB, PeeringDBRecord
from repro.runtime.atomic import atomic_writer


def load_platform(corpus_dir: str | Path) -> Tuple[List[int], int, PeeringDB]:
    """``(peer_asns, route_server_asn, peeringdb)`` from ``platform.json``.

    Raises the underlying ``OSError``/``ValueError``/``KeyError`` on a
    missing or malformed sidecar — callers that need a typed error use
    :func:`read_platform_meta` first.
    """
    meta = json.loads((Path(corpus_dir) / META_FILE).read_text())
    db = PeeringDB()
    for entry in meta["peeringdb"]:
        db.register(PeeringDBRecord(
            asn=int(entry["asn"]), name=entry["name"],
            org_type=OrgType(entry["org_type"]), scope=entry["scope"],
        ))
    return list(meta["peer_asns"]), int(meta["route_server_asn"]), db


def write_platform_meta(corpus_dir: str | Path, meta: dict) -> None:
    """Atomically (re)write ``platform.json`` from ``meta``."""
    with atomic_writer(Path(corpus_dir) / META_FILE) as fh:
        fh.write(json.dumps(meta, indent=2))


def read_platform_meta(corpus_dir: str | Path) -> dict:
    """The raw ``platform.json`` dict, with typed errors."""
    path = Path(corpus_dir) / META_FILE
    try:
        meta = json.loads(path.read_text())
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read platform sidecar: {exc}"
                          ) from exc
    except ValueError as exc:
        raise CorpusError(f"{path}: malformed platform sidecar: {exc}"
                          ) from exc
    if not isinstance(meta, dict):
        raise CorpusError(f"{path}: platform sidecar is not an object")
    return meta
