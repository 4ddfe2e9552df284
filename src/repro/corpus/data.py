"""The data-plane corpus: all sampled packets, numpy-backed and
time-sorted, with the vectorized selections the analyses need.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.ingest import IngestReport, check_policy
from repro.dataplane.packet import PACKET_DTYPE, packets_from_arrays
from repro.errors import CorpusError, IngestError
from repro import telemetry
from repro.net.ip import IPv4Prefix, in_prefix


@dataclass(frozen=True)
class WindowRows:
    """The rows of many window gathers, flat: gather ``i`` owns
    ``rows[offsets[i]:offsets[i + 1]]``, indices into ``packets``.
    Consumers read only the columns they need and reduce per gather."""

    packets: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def column(self, name: str) -> np.ndarray:
        """One packet field of every row, gather by gather."""
        return self.packets[name][self.rows]

    def records(self, i: int) -> np.ndarray:
        return self.packets.take(self.rows[self.offsets[i]:self.offsets[i + 1]])

    def select(self, keep) -> "WindowRows":
        """The gathers where the per-gather mask ``keep`` is set."""
        keep = np.asarray(keep, dtype=bool)
        return _grouped(self.packets, self.rows[np.repeat(keep, self.counts)],
                        self.counts[keep])

    def where(self, mask: np.ndarray) -> "WindowRows":
        """Every gather, keeping only the rows where ``mask`` is set."""
        return _grouped(self.packets, self.rows[mask], self.sums(mask))

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-gather sums of a per-row integer array, exact in 64 bits."""
        total = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, dtype=np.int64, out=total[1:])
        return total[self.offsets[1:]] - total[self.offsets[:-1]]

    def distinct(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct ``(gather, value)`` pairs of a per-row array of
        ``uint32``-range values, sorted by gather, then value."""
        keys = np.repeat(np.arange(len(self), dtype=np.uint64) << np.uint64(32),
                         self.counts)
        keys |= values
        keys = np.unique(keys)
        return ((keys >> np.uint64(32)).astype(np.intp),
                keys & np.uint64(0xFFFFFFFF))


def _grouped(packets: np.ndarray, rows: np.ndarray, counts) -> WindowRows:
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return WindowRows(packets, rows, offsets)


class DataPlaneCorpus:
    """Sampled packets of the whole measurement period.

    Construction validates the store the way a production ingester must:
    wrong dtype, non-1-D shape, or a non-positive sampling rate always
    raise :class:`CorpusError`; rows with non-finite or negative
    timestamps raise under ``on_error="strict"`` (default) and are
    dropped — with accounting in :attr:`ingest_report` — under
    ``"skip"``/``"collect"``.

    The corpus never aliases the caller's array: rows are gathered into
    time order (a stable sort, so equal timestamps keep their input
    order), or copied when they are already in order.  ``copy=False``
    hands the array over instead of copying it; the caller must not
    touch it afterwards.
    """

    def __init__(self, packets: np.ndarray, sampling_rate: int = 10_000, *,
                 on_error: str = "strict",
                 ingest_report: Optional[IngestReport] = None,
                 copy: bool = True):
        check_policy(on_error)
        if not isinstance(packets, np.ndarray) or packets.dtype != PACKET_DTYPE:
            raise CorpusError(
                f"expected PACKET_DTYPE array, got "
                f"{getattr(packets, 'dtype', type(packets).__name__)}")
        if packets.ndim != 1:
            raise CorpusError(
                f"packet store must be 1-D, got shape {packets.shape}")
        try:
            sampling_rate = int(sampling_rate)
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"bad sampling rate: {sampling_rate!r}") from exc
        if sampling_rate <= 0:
            raise CorpusError(f"sampling rate must be positive: {sampling_rate}")
        report = ingest_report
        if report is None:
            report = IngestReport(source="<memory>", policy=on_error)
            report.total = len(packets)
        bad = ~np.isfinite(packets["time"]) | (packets["time"] < 0.0)
        n_bad = int(bad.sum())
        if n_bad:
            if on_error == "strict":
                raise CorpusError(
                    f"{n_bad} packet record(s) with non-finite or negative "
                    "timestamps")
            for index in np.flatnonzero(bad)[:8]:
                report.record_problem(
                    f"row {int(index)}",
                    f"bad timestamp {packets['time'][index]!r}")
            report.skipped += n_bad - min(n_bad, 8)
            packets = packets.compress(~bad)
            copy = False  # the filtered array is already a fresh one
        times = packets["time"]
        if np.all(times[1:] >= times[:-1]):
            self._packets = packets.copy() if copy else packets
        else:
            self._packets = packets.take(np.argsort(times, kind="stable"))
        # contiguous copies of the two fields every window gather reads:
        # searchsorted over the strided ``time`` field of the packed
        # records copies it on every call
        self._time = np.ascontiguousarray(self._packets["time"])
        self._dst_ip = np.ascontiguousarray(self._packets["dst_ip"])
        report.loaded = len(self._packets)
        #: accounting of what construction/loading kept and dropped
        self.ingest_report: IngestReport = report
        self.sampling_rate = sampling_rate

    @property
    def packets(self) -> np.ndarray:
        """The underlying time-sorted record array (do not mutate)."""
        return self._packets

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def start_time(self) -> float:
        if len(self._packets) == 0:
            raise CorpusError("empty data-plane corpus")
        return float(self._packets["time"][0])

    @property
    def end_time(self) -> float:
        if len(self._packets) == 0:
            raise CorpusError("empty data-plane corpus")
        return float(self._packets["time"][-1])

    # -- selection ------------------------------------------------------------

    def mask_dst_in(self, prefix: IPv4Prefix) -> np.ndarray:
        """Boolean mask of packets destined into ``prefix``."""
        return in_prefix(self._dst_ip, prefix)

    def mask_src_in(self, prefix: IPv4Prefix) -> np.ndarray:
        return in_prefix(self._packets["src_ip"], prefix)

    def mask_time(self, t0: float, t1: float) -> np.ndarray:
        """Packets with ``t0 <= time < t1`` (fast: the array is sorted)."""
        lo, hi = np.searchsorted(self._time, (t0, t1), side="left")
        out = np.zeros(len(self._packets), dtype=bool)
        out[lo:hi] = True
        return out

    def window_packets(self, prefix: IPv4Prefix,
                       windows: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Packets destined into ``prefix`` during any of ``windows``.

        One prefix at a time, without the destination order: a batched
        ``searchsorted`` over the contiguous time column finds each
        ``[start, end)`` row range, a prefix mask over the contiguous
        destination column picks the rows inside it.  The result is
        window by window, in time order within each window — for the
        sorted, disjoint windows of an RTBH event exactly the packets in
        time order.  The streaming reducers gather through it, since a
        growing corpus never builds :attr:`dst_order`; the batch
        pipeline uses :meth:`window_rows`.
        """
        if not windows or len(self._packets) == 0:
            return self._packets[:0]
        bounds = np.asarray(windows, dtype=np.float64).reshape(-1, 2)
        lo = np.searchsorted(self._time, bounds[:, 0], side="left").tolist()
        hi = np.searchsorted(self._time, bounds[:, 1], side="left").tolist()
        parts = []
        for start, stop in zip(lo, hi):
            if stop > start:
                rows = np.flatnonzero(
                    in_prefix(self._dst_ip[start:stop], prefix))
                if rows.size:
                    parts.append(rows + start)
        if not parts:
            return self._packets[:0]
        return self._packets.take(parts[0] if len(parts) == 1
                                  else np.concatenate(parts))

    @cached_property
    def dst_order(self) -> np.ndarray:
        """Row indices in destination order, built on first use: the
        stable ``argsort`` of the destination column (one address's rows
        stay in time order), in the narrowest index dtype."""
        return np.argsort(self._dst_ip, kind="stable").astype(
            np.int32 if len(self._dst_ip) < 2**31 else np.int64)

    @cached_property
    def dst_sorted(self) -> np.ndarray:
        """The destination column in :attr:`dst_order`."""
        return self._dst_ip[self.dst_order]

    def window_rows(self, prefixes: Sequence[IPv4Prefix],
                    windows: Sequence[Sequence[Tuple[float, float]]],
                    ) -> WindowRows:
        """Many :meth:`window_packets` gathers at once, as row indices.

        Gather ``i`` holds exactly the records, in the same order, that
        ``window_packets(prefixes[i], windows[i])`` returns.  Each
        distinct prefix is one row range of :attr:`dst_order`, put back
        into time order once and binary-searched per window; only one
        prefix's range is held at a time.
        """
        by_prefix: Dict[IPv4Prefix, List[int]] = {}
        for i, prefix in enumerate(prefixes):
            by_prefix.setdefault(prefix, []).append(i)
        parts = [np.zeros(0, np.intp)] * len(prefixes)
        for prefix, gathers in by_prefix.items():
            rows, times = self._prefix_rows(prefix)
            for i in gathers:
                bounds = np.asarray(windows[i], dtype=np.float64).reshape(-1, 2)
                picked = [rows[a:b] for a, b in zip(
                    np.searchsorted(times, bounds[:, 0]).tolist(),
                    np.searchsorted(times, bounds[:, 1]).tolist()) if b > a]
                if picked:  # a copy, so the range itself can be freed
                    parts[i] = np.concatenate(picked)
        rows = np.concatenate(parts) if parts else np.zeros(0, np.intp)
        return _grouped(self._packets, rows, [len(p) for p in parts])

    def _prefix_rows(self, prefix: IPv4Prefix,
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows destined into ``prefix`` in time order, and their
        times."""
        first = prefix.network_int
        # exclusive upper bound; 2**32 (past uint32) for the top prefix
        end = first + (1 << (32 - prefix.length))
        lo = int(np.searchsorted(self.dst_sorted, np.uint32(first)))
        hi = (len(self.dst_sorted) if end > 0xFFFFFFFF
              else int(np.searchsorted(self.dst_sorted, np.uint32(end))))
        rows = self.dst_order[lo:hi]
        if prefix.length < 32:
            rows = np.sort(rows)  # row order is time order
        return rows, self._time[rows]

    def select(
        self,
        dst_prefix: Optional[IPv4Prefix] = None,
        src_prefix: Optional[IPv4Prefix] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        dropped: Optional[bool] = None,
    ) -> np.ndarray:
        """Packets matching all given criteria."""
        mask = np.ones(len(self._packets), dtype=bool)
        if t0 is not None or t1 is not None:
            mask &= self.mask_time(
                self.start_time if t0 is None else t0,
                (self.end_time + 1.0) if t1 is None else t1,
            )
        if dst_prefix is not None:
            mask &= self.mask_dst_in(dst_prefix)
        if src_prefix is not None:
            mask &= self.mask_src_in(src_prefix)
        if dropped is not None:
            mask &= self._packets["dropped"] == dropped
        return self._packets.compress(mask)

    # -- summaries ----------------------------------------------------------------

    def dropped_share(self) -> float:
        """Packet-level dropped share over the whole corpus."""
        if len(self._packets) == 0:
            raise CorpusError("empty data-plane corpus")
        return float(self._packets["dropped"].mean())

    def total_bytes(self) -> int:
        return int(self._packets["size"].astype(np.int64).sum())

    # -- persistence ----------------------------------------------------------------

    def save_npz(self, path: str | Path) -> None:
        write_packets_npz(self._packets, self.sampling_rate, path)

    @classmethod
    def load_npz(cls, path: str | Path, *,
                 on_error: str = "strict") -> "DataPlaneCorpus":
        """Load an ``.npz`` store under an error policy.

        Unreadable archives (missing file, flipped bytes, bad zip
        members) raise :class:`~repro.errors.IngestError` regardless of
        policy — there is nothing salvageable.  Row-level problems follow
        ``on_error`` as in :meth:`__init__`.  Archives holding parallel
        column arrays instead of a packed ``packets`` record array are
        assembled via :func:`packets_from_arrays`; mismatched column
        lengths become :class:`CorpusError` rather than numpy errors.
        """
        check_policy(on_error)
        telem = telemetry.current()
        with telem.span("ingest.data", source=str(path),
                        policy=on_error) as sp:
            packets, rate = read_packets_npz(path)
            report = IngestReport(source=str(path), policy=on_error)
            report.total = len(packets)
            corpus = cls(packets, sampling_rate=rate, on_error=on_error,
                         ingest_report=report, copy=False)
            sp.attrs["records"] = report.total
        telem.counter("ingest.records", plane="data",
                      outcome="ok").inc(report.loaded)
        telem.counter("ingest.records", plane="data",
                      outcome="skipped").inc(report.skipped)
        return corpus


# -- raw array I/O ----------------------------------------------------------------


def write_packets_npz(packets: np.ndarray, sampling_rate: int,
                      path: str | Path) -> None:
    """Write a packet array verbatim (fault injection uses this to persist
    deliberately-degraded stores that :class:`DataPlaneCorpus` would
    refuse to construct strictly)."""
    np.savez_compressed(path, packets=packets, sampling_rate=sampling_rate)


def read_packets_npz(path: str | Path) -> Tuple[np.ndarray, int]:
    """Read ``(packets, sampling_rate)`` from an ``.npz`` archive, wrapping
    every decode failure in a typed error."""
    try:
        with np.load(path) as archive:
            names = set(archive.files)
            if "packets" in names:
                packets = archive["packets"]
            else:
                columns = sorted(names & set(PACKET_DTYPE.names))
                if not columns:
                    raise IngestError(
                        f"{path}: no 'packets' array and no recognizable "
                        f"packet columns (found {sorted(names)})")
                try:
                    packets = packets_from_arrays(
                        {name: archive[name] for name in columns})
                except ValueError as exc:
                    raise CorpusError(f"{path}: {exc}") from exc
            if "sampling_rate" in names:
                rate = int(archive["sampling_rate"])
            else:
                raise IngestError(f"{path}: missing array 'sampling_rate'")
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError,
            KeyError) as exc:
        raise IngestError(f"{path}: unreadable archive: {exc}") from exc
    return packets, rate
