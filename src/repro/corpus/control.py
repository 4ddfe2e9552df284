"""The control-plane corpus: every BGP UPDATE seen at the route server
during the measurement period, in time order, and the one RTBH automaton
that reads it.

Withdrawals carry no communities on the wire, so "RTBH-related" withdrawals
are identified the way the paper must: a withdrawal is blackhole-related
when the same peer currently has a blackhole announcement standing for the
prefix.  :class:`ControlReducer` makes that decision one UPDATE at a time
and turns it into (peer, prefix) blackhole windows.
:attr:`ControlPlaneCorpus.rtbh_fold` runs it once over the whole corpus
and every RTBH accessor reads that fold.  The streaming engine feeds its
own reducer day by day and puts it in the same slot of the corpus it
reports on, so nothing is folded twice; the reducer is never persisted,
a resumed watcher re-feeds the segments it re-reads anyway.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
)

from repro.bgp.community import Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.corpus.ingest import IngestReport, check_policy
from repro.errors import (
    AnalysisError,
    CorpusError,
    IngestError,
    ReproError,
)
from repro.net.ip import IPv4Address, IPv4Prefix
from repro import telemetry

if TYPE_CHECKING:
    from repro.core.events import RTBHEvent
    from repro.core.load import RTBHLoadSeries

AnnotatedWindows = Dict[IPv4Prefix, List[Tuple[float, float, frozenset, int]]]


def opens_blackhole(msg: BGPUpdate) -> bool:
    """The automaton's one transition rule.

    An announcement carrying BLACKHOLE opens (or keeps open) its
    (peer, prefix) window.  Any other message that finds the window open
    closes it: a withdrawal, or a plain announcement that replaces the
    blackhole with a normal route.  Readers of :meth:`ControlPlaneCorpus
    .rtbh_updates` use this same test to tell openers from closers.
    """
    return msg.is_announce and msg.is_blackhole


def merge_annotated_windows(
    raw: Dict[IPv4Prefix, List[Tuple[float, float, int]]],
    origin_of: Dict[Tuple[IPv4Prefix, int], int],
) -> AnnotatedWindows:
    """Per prefix: announcement windows merged *across announcers* (overlaps
    coalesced), annotated with (start, end, announcer set, origin).

    ``raw`` maps each prefix to its ``(start, end, announcer)`` windows
    (the shape of :meth:`ControlReducer.windows_snapshot`); ``origin_of``
    maps ``(prefix, announcer)`` to the first origin ASN seen.  This is
    the one any-announcer union: the §5.1 Δ-merge, Fig. 10, Fig. 3 and
    Fig. 2 all read it through :meth:`ControlReducer.merged_windows`.
    """
    out: AnnotatedWindows = {}
    for prefix, windows in raw.items():
        annotated = [
            (s, e, frozenset({peer}), origin_of.get((prefix, peer), peer))
            for s, e, peer in windows
        ]
        annotated.sort()
        merged: List[Tuple[float, float, frozenset, int]] = []
        for s, e, peers, origin in annotated:
            if merged and s <= merged[-1][1]:
                ps, pe, ppeers, porigin = merged[-1]
                merged[-1] = (ps, max(pe, e), ppeers | peers, porigin)
            else:
                merged.append((s, e, peers, origin))
        out[prefix] = merged
    return out


class ControlReducer:
    """The RTBH automaton as a fold over time-ordered UPDATEs.

    Batch and streaming share it: :attr:`ControlPlaneCorpus.rtbh_fold` is
    this reducer fed every message of a corpus once, and the streaming
    engine feeds it each newly committed day.
    """

    def __init__(self) -> None:
        #: (peer, prefix) pairs with a standing blackhole announcement
        self.active: set = set()
        #: (peer, prefix) -> announce time of the currently-open window
        self.open_at: Dict[Tuple[int, IPv4Prefix], float] = {}
        #: prefix -> closed (start, end, announcer) windows
        self.windows: Dict[IPv4Prefix, List[Tuple[float, float, int]]] = {}
        #: (prefix, announcer) -> first origin ASN announced
        self.origin_of: Dict[Tuple[IPv4Prefix, int], int] = {}
        #: the RTBH-related updates, in feed order
        self.rtbh_messages: List[BGPUpdate] = []
        self.message_count = 0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._merged: Optional[AnnotatedWindows] = None

    def feed(self, msg: BGPUpdate) -> bool:
        """Apply one UPDATE (messages must arrive in time order); returns
        whether it is RTBH-related."""
        self.message_count += 1
        if self.start_time is None:
            self.start_time = msg.time
        self.end_time = msg.time
        self._merged = None
        key = (msg.peer_asn, msg.prefix)
        if opens_blackhole(msg):
            self.active.add(key)
            self.origin_of.setdefault((msg.prefix, msg.peer_asn),
                                      msg.origin_asn)
            self.open_at.setdefault(key, msg.time)
        elif key in self.active:
            self.active.discard(key)
            start = self.open_at.pop(key, None)
            if start is not None:
                self.windows.setdefault(msg.prefix, []).append(
                    (start, msg.time, msg.peer_asn))
        else:
            return False
        self.rtbh_messages.append(msg)
        return True

    @property
    def rtbh_times(self) -> List[float]:
        """Timestamps of the RTBH-related updates (Fig. 3 message series)."""
        return [msg.time for msg in self.rtbh_messages]

    # -- snapshots -----------------------------------------------------------

    def windows_snapshot(self) -> Dict[IPv4Prefix,
                                       List[Tuple[float, float, int]]]:
        """Per prefix: the sorted (start, end, announcer) windows of the
        messages fed so far.

        Still-open windows close artificially at the current end time, so
        a snapshot at any frontier equals the fold of that corpus prefix.
        """
        out = {prefix: list(ws) for prefix, ws in self.windows.items()}
        end = self.end_time if self.message_count else 0.0
        for (peer, prefix), start in self.open_at.items():
            out.setdefault(prefix, []).append((start, end, peer))
        for ws in out.values():
            ws.sort()
        return out

    def merged_windows(self) -> AnnotatedWindows:
        """:func:`merge_annotated_windows` of the snapshot, cached until
        the next :meth:`feed`.  It does not depend on Δ; treat it as
        read-only."""
        if self._merged is None:
            self._merged = merge_annotated_windows(self.windows_snapshot(),
                                                   self.origin_of)
        return self._merged

    def events(self, delta: Optional[float] = None) -> List[RTBHEvent]:
        """The Δ-merged events of the messages fed so far (§5.1)."""
        from repro.core.events import DEFAULT_DELTA, events_from_merged_windows

        return events_from_merged_windows(
            self.merged_windows(), DEFAULT_DELTA if delta is None else delta)

    def load_series(self) -> RTBHLoadSeries:
        """The Fig. 3 series of the messages fed so far."""
        from repro.core.load import load_series_from_state

        if self.message_count == 0:
            raise AnalysisError("empty control corpus")
        return load_series_from_state(self.merged_windows(), self.rtbh_times,
                                      self.start_time, self.end_time)


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

    @cached_property
    def rtbh_fold(self) -> ControlReducer:
        """The RTBH automaton run once over the corpus, cached.

        Every accessor below reads this one fold; treat it as read-only.
        A holder of the same fold (the streaming engine) sets the slot
        instead of letting the corpus fold its messages again.
        """
        fold = ControlReducer()
        for msg in self._messages:
            fold.feed(msg)
        return fold

    def rtbh_updates(self) -> List[BGPUpdate]:
        """Only the blackhole-related updates: blackhole announcements and
        the messages that close their windows."""
        return list(self.rtbh_fold.rtbh_messages)

    def rtbh_message_count(self) -> int:
        return len(self.rtbh_fold.rtbh_messages)

    def rtbh_prefixes(self) -> Set[IPv4Prefix]:
        """Every prefix that was ever blackholed via the route server."""
        return {m.prefix for m in self.rtbh_updates()}

    def rtbh_windows_by_prefix(self) -> Dict[IPv4Prefix, List[Tuple[float, float, int]]]:
        """Per prefix: (announce_time, withdraw_time, announcer ASN) windows.

        A window left open at the end of the corpus closes at
        :attr:`end_time` — the paper treats still-active blackholes (e.g.
        zombies) the same way.
        """
        return self.rtbh_fold.windows_snapshot()

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
