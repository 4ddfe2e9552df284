"""The control-plane corpus: every BGP UPDATE seen at the route server
during the measurement period, in time order.

Withdrawals carry no communities on the wire, so "RTBH-related" withdrawals
are identified the way the paper must: a withdrawal is blackhole-related
when the same peer currently has a blackhole announcement standing for the
prefix. :meth:`ControlPlaneCorpus.rtbh_updates` performs that stateful
classification once and caches it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.community import Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.corpus.ingest import IngestReport, check_policy
from repro.errors import CorpusError, IngestError, ReproError
from repro.net.ip import IPv4Address, IPv4Prefix
from repro import telemetry

#: marker returned alongside updates by :meth:`rtbh_updates`
RTBH_RELATED = "rtbh"


class ControlPlaneCorpus:
    """An ordered store of BGP updates with RTBH-aware helpers.

    Construction validates timestamps: real feeds arrive with corrupt
    records, and a single NaN would silently poison every sort-based
    analysis.  Under ``on_error="strict"`` (default) a non-finite
    timestamp raises :class:`CorpusError`; under ``"skip"``/``"collect"``
    the record is dropped and accounted in :attr:`ingest_report`.
    """

    def __init__(self, messages: Sequence[BGPUpdate], *,
                 on_error: str = "strict",
                 ingest_report: Optional[IngestReport] = None):
        check_policy(on_error)
        report = ingest_report
        if report is None:
            report = IngestReport(source="<memory>", policy=on_error)
            report.total = len(messages)
        clean: List[BGPUpdate] = []
        for index, msg in enumerate(messages):
            if not math.isfinite(msg.time):
                if on_error == "strict":
                    raise CorpusError(
                        f"control-plane record {index} has non-finite "
                        f"timestamp {msg.time!r}")
                report.record_problem(f"record {index}",
                                      f"non-finite timestamp {msg.time!r}",
                                      payload=str(msg))
                continue
            clean.append(msg)
        self._messages: List[BGPUpdate] = sorted(clean, key=lambda m: m.time)
        report.loaded = len(self._messages)
        #: accounting of what construction/loading kept and dropped
        self.ingest_report: IngestReport = report
        self._rtbh_flags: Optional[List[bool]] = None

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[BGPUpdate]:
        return iter(self._messages)

    def __getitem__(self, index: int) -> BGPUpdate:
        return self._messages[index]

    @property
    def start_time(self) -> float:
        if not self._messages:
            raise CorpusError("empty control-plane corpus")
        return self._messages[0].time

    @property
    def end_time(self) -> float:
        if not self._messages:
            raise CorpusError("empty control-plane corpus")
        return self._messages[-1].time

    # -- RTBH classification ---------------------------------------------------

    def _classify(self) -> List[bool]:
        if self._rtbh_flags is not None:
            return self._rtbh_flags
        flags: List[bool] = []
        active: Set[Tuple[int, IPv4Prefix]] = set()
        for msg in self._messages:
            key = (msg.peer_asn, msg.prefix)
            if msg.action is UpdateAction.ANNOUNCE:
                if msg.is_blackhole:
                    active.add(key)
                    flags.append(True)
                else:
                    # replaces any standing blackhole from this peer
                    was_blackhole = key in active
                    active.discard(key)
                    flags.append(was_blackhole)
            else:
                flags.append(key in active)
                active.discard(key)
        self._rtbh_flags = flags
        return flags

    def rtbh_updates(self) -> List[BGPUpdate]:
        """Only the blackhole-related updates (announce + paired withdraw)."""
        flags = self._classify()
        return [m for m, f in zip(self._messages, flags) if f]

    def rtbh_message_count(self) -> int:
        return sum(self._classify())

    def rtbh_prefixes(self) -> Set[IPv4Prefix]:
        """Every prefix that was ever blackholed via the route server."""
        return {m.prefix for m in self.rtbh_updates()}

    def rtbh_windows_by_prefix(self) -> Dict[IPv4Prefix, List[Tuple[float, float, int]]]:
        """Per prefix: (announce_time, withdraw_time, announcer ASN) windows.

        A window left open at the end of the corpus closes at
        :attr:`end_time` — the paper treats still-active blackholes (e.g.
        zombies) the same way.
        """
        open_at: Dict[Tuple[int, IPv4Prefix], float] = {}
        out: Dict[IPv4Prefix, List[Tuple[float, float, int]]] = {}
        for msg in self.rtbh_updates():
            key = (msg.peer_asn, msg.prefix)
            if msg.action is UpdateAction.ANNOUNCE:
                open_at.setdefault(key, msg.time)
            else:
                start = open_at.pop(key, None)
                if start is not None:
                    out.setdefault(msg.prefix, []).append((start, msg.time, msg.peer_asn))
        end = self.end_time if self._messages else 0.0
        for (peer, prefix), start in open_at.items():
            out.setdefault(prefix, []).append((start, end, peer))
        for windows in out.values():
            windows.sort()
        return out

    # -- persistence -----------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        """One JSON object per line; communities as ``asn:value`` strings."""
        write_updates_jsonl(self._messages, path)

    @classmethod
    def load_jsonl(cls, path: str | Path, *, on_error: str = "strict",
                   quarantine_path: str | Path | None = None,
                   ) -> "ControlPlaneCorpus":
        """Stream a JSONL dump into a corpus under an error policy.

        ``strict`` raises :class:`~repro.errors.IngestError` at the first
        malformed line; ``skip``/``collect`` drop malformed lines and
        account for them in the returned corpus's :attr:`ingest_report`
        (``collect`` additionally quarantines the raw payloads, writing
        them to ``quarantine_path`` when given).
        """
        check_policy(on_error)
        telem = telemetry.current()
        report = IngestReport(source=str(path), policy=on_error,
                              quarantine_path=(None if quarantine_path is None
                                               else str(quarantine_path)))
        # records already quarantined by an earlier pass are recognised by
        # checksum and neither re-quarantined nor double-counted
        existing_quarantine: List[str] = []
        if quarantine_path is not None and Path(quarantine_path).exists():
            existing_quarantine = [
                line for line in Path(quarantine_path).read_text(
                    encoding="utf-8", errors="replace").splitlines() if line]
            report.seed_quarantine_digests(existing_quarantine)
        messages: List[BGPUpdate] = []
        with telem.span("ingest.control", source=str(path),
                        policy=on_error) as sp:
            for line_no, item in read_updates_jsonl(path, on_error=on_error):
                report.total += 1
                if isinstance(item, BGPUpdate):
                    messages.append(item)
                else:
                    report.record_problem(f"{Path(path).name}:{line_no}",
                                          item[0], payload=item[1])
            if quarantine_path is not None and (existing_quarantine
                                                or report.quarantined):
                from repro.runtime.atomic import atomic_writer

                with atomic_writer(quarantine_path) as fh:
                    for payload in existing_quarantine + report.quarantined:
                        fh.write(payload + "\n")
            corpus = cls(messages, on_error=on_error, ingest_report=report)
            sp.attrs["records"] = report.total
        telem.counter("ingest.records", plane="control",
                      outcome="ok").inc(report.loaded)
        telem.counter("ingest.records", plane="control",
                      outcome="skipped").inc(report.skipped)
        telem.counter("ingest.records", plane="control",
                      outcome="quarantined").inc(len(report.quarantined))
        return corpus


# -- record (de)serialization ----------------------------------------------------


def update_to_json(msg: BGPUpdate) -> dict:
    """The canonical JSONL representation of one UPDATE."""
    return {
        "time": msg.time,
        "peer_asn": msg.peer_asn,
        "action": msg.action.value,
        "prefix": str(msg.prefix),
        "next_hop": None if msg.next_hop is None else str(msg.next_hop),
        "as_path": list(msg.as_path),
        "communities": sorted(str(c) for c in msg.communities),
    }


def update_from_json(raw: dict,
                     memo: Optional[Dict[tuple, object]] = None) -> BGPUpdate:
    """Parse one JSONL record; raises ``KeyError``/``ValueError``/
    :class:`~repro.errors.ReproError` on malformed input.

    ``memo`` is a cache shared by the records of one read: it maps a
    field's raw JSON value to the immutable value parsed from it, so an
    action, prefix, next hop, AS path or community set that repeats
    across lines is parsed once and shared.  A value whose parse raises is
    never cached, so every malformed line fails exactly as it would
    without the cache.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"record is not an object: {type(raw).__name__}")
    if memo is None:
        memo = {}
    return BGPUpdate(
        time=float(raw["time"]),
        peer_asn=int(raw["peer_asn"]),
        action=_parsed(memo, "action", raw["action"], UpdateAction),
        prefix=_parsed(memo, "prefix", raw["prefix"], IPv4Prefix),
        next_hop=(None if raw["next_hop"] is None
                  else _parsed(memo, "next_hop", raw["next_hop"],
                               IPv4Address)),
        as_path=_parsed(memo, "as_path", raw["as_path"], _parse_as_path),
        communities=_parsed(memo, "communities", raw["communities"],
                            _parse_communities),
    )


def _parse_as_path(raw) -> Tuple[int, ...]:
    return tuple(int(asn) for asn in raw)


def _parse_communities(raw) -> FrozenSet[Community]:
    return frozenset(Community.parse(c) for c in raw)


_MISS = object()


def _parsed(memo: Dict[tuple, object], field: str, raw, parse):
    """``parse(raw)``, shared through ``memo`` when ``raw`` is a string
    or a list.

    Keys compare by value, so two raw values may share a key only if
    they parse alike: strings equal only identical strings, the action,
    address and prefix parsers reject lists, the community parser
    rejects non-strings, and ``int()`` agrees on numbers that compare
    equal.  Every other type is parsed uncached.
    """
    kind = type(raw)
    if kind is str:
        key = (field, raw)
    elif kind is list:
        key = (field, tuple(raw))
    else:
        return parse(raw)
    try:
        value = memo.get(key, _MISS)
    except TypeError:  # an unhashable element: parse uncached
        return parse(raw)
    if value is _MISS:
        value = memo[key] = parse(raw)
    return value


def write_updates_jsonl(messages: Sequence[BGPUpdate],
                        path: str | Path) -> None:
    """Write messages in the given order (fault injection relies on the
    order being preserved, so no sorting happens here)."""
    with open(path, "w", encoding="utf-8") as fh:
        for msg in messages:
            fh.write(json.dumps(update_to_json(msg)) + "\n")


def read_updates_jsonl(
    path: str | Path, *, on_error: str = "strict",
) -> Iterator[Tuple[int, "BGPUpdate | Tuple[str, str]"]]:
    """Stream ``(line_no, update)`` pairs from a JSONL dump.

    Under lenient policies a malformed line yields ``(line_no, (reason,
    raw_line))`` instead of raising, letting callers do their own
    accounting without buffering the file.
    """
    check_policy(on_error)
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise IngestError(f"{path}: cannot open: {exc}") from exc
    memo: Dict[tuple, object] = {}
    with fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, update_from_json(json.loads(line), memo)
            except (KeyError, ValueError, TypeError, ReproError) as exc:
                if on_error == "strict":
                    raise IngestError(
                        f"{path}:{line_no}: bad record: {exc}") from exc
                yield line_no, (f"bad record: {exc}", line)
