"""``finalize`` streams the day segments into ``data.npz``.

``data.npz`` must decode to the concatenated segments, pass zipfile's
CRC test, carry each segment's compressed rows verbatim and come out the
same on a second finalize; segments written by ``np.savez_compressed``
are re-encoded into the same arrays.  Finalize must hold about one
segment at a time whatever the day count, and a segment that is damaged
or disagrees with its journaled record count must publish nothing.
"""

import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.corpus.manifest import DATA_FILE
from repro.dataplane.packet import PACKET_DTYPE
from repro.errors import CheckpointError
from repro.runtime import npz
from repro.runtime.atomic import TMP_PREFIX
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    finalize,
    segment_entry,
    write_segment,
)
from repro.telemetry import Telemetry

RATE = 10_000


def _day(day: int, rows: int) -> np.ndarray:
    rng = np.random.default_rng(day)
    packets = np.zeros(rows, dtype=PACKET_DTYPE)
    packets["time"] = np.sort(day * 86_400.0 + rng.random(rows) * 86_400.0)
    for name in ("src_ip", "dst_ip", "ingress_asn", "origin_asn"):
        packets[name] = rng.integers(0, 2**32, rows, dtype=np.uint32)
    packets["size"] = rng.integers(40, 1501, rows)
    packets["protocol"] = rng.choice([1, 6, 17], rows)
    packets["dropped"] = rng.random(rows) < 0.3
    return packets


def _commit_log(out, day_rows, legacy=()):
    """Commit one control and one data segment per entry of ``day_rows``
    and return the journal and the data days.  The data segments of the
    days in ``legacy`` are written by ``np.savez_compressed``."""
    seg_dir = out / SEGMENT_DIR
    seg_dir.mkdir(parents=True)
    journal = CheckpointJournal(out / JOURNAL_FILE)
    journal.start({"command": "generate", "seed": 1})
    days = []
    for day, rows in enumerate(day_rows):
        days.append(_day(day, rows))
        journal.commit(_segment_key("control", day),
                       **write_segment(seg_dir, "control", day, []))
        if day in legacy:
            np.savez_compressed(seg_dir / f"data-{day:03d}.npz",
                                packets=days[-1])
            entry = segment_entry(seg_dir, "data", day)
        else:
            entry = write_segment(seg_dir, "data", day, days[-1])
        journal.commit(_segment_key("data", day), **entry)
    return journal, days


def _finalize(out, journal, days) -> dict:
    """Finalize ``days`` days; return the attributes of its span."""
    with Telemetry().span("finalize") as span:
        counts = finalize(out, journal, days, sampling_rate=RATE, span=span)
    assert span.attrs["rows"] == counts["data_packets"]
    return span.attrs


def _rows_piece(packets) -> bytes:
    return npz.deflate_piece(packets.view(np.uint8))


def _assert_data_file(out, journal, days):
    """The published ``data.npz`` holds the concatenation of ``days``,
    passes zipfile's test, carries every day's rows piece verbatim, and
    a second finalize rewrites the same bytes."""
    path = out / DATA_FILE
    expected = (np.concatenate(days) if days
                else np.zeros(0, dtype=PACKET_DTYPE))
    with np.load(path) as archive:
        assert archive["packets"].dtype == PACKET_DTYPE
        assert archive["packets"].tobytes() == expected.tobytes()
        assert int(archive["sampling_rate"]) == RATE
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None
    published = path.read_bytes()
    for packets in days:
        assert _rows_piece(packets) in published
    _finalize(out, journal, len(days))
    assert path.read_bytes() == published


@pytest.mark.parametrize("day_rows", [
    [],                      # no days: an empty array
    [500],                   # one day
    [300, 700, 20, 1000, 450, 90, 800],  # many days
    [400, 0, 650],           # a day without sampled packets
    [0],
], ids=["zero-days", "one-day", "many-days", "empty-day", "only-empty-day"])
def test_data_file_splices_the_segments(tmp_path, day_rows):
    journal, days = _commit_log(tmp_path, day_rows)
    attrs = _finalize(tmp_path, journal, len(day_rows))
    assert attrs == {"segments": 2 * len(day_rows), "rows": sum(day_rows),
                     "spliced": len(day_rows), "reencoded": 0}
    _assert_data_file(tmp_path, journal, days)


def test_finalize_of_a_prefix_ignores_later_days(tmp_path):
    journal, days = _commit_log(tmp_path, [200, 300, 400])
    _finalize(tmp_path, journal, 2)
    _assert_data_file(tmp_path, journal, days[:2])
    assert _rows_piece(days[2]) not in (tmp_path / DATA_FILE).read_bytes()


@pytest.mark.parametrize("legacy", [(0, 1, 2), (1,), (0, 2)],
                         ids=["all-savez", "savez-between", "savez-ends"])
def test_savez_segments_are_reencoded(tmp_path, legacy):
    """A commit log written partly by an older ``np.savez_compressed``
    segment writer finalizes to the same arrays."""
    journal, days = _commit_log(tmp_path, [300, 500, 0], legacy=legacy)
    attrs = _finalize(tmp_path, journal, 3)
    assert (attrs["spliced"], attrs["reencoded"]) == (3 - len(legacy),
                                                      len(legacy))
    _assert_data_file(tmp_path, journal, days)


def test_zip64_fields_beyond_the_limit(tmp_path, monkeypatch):
    """Sizes and offsets above the zip64 limit move into zip64 fields and
    end records that numpy and zipfile read back."""
    monkeypatch.setattr(npz, "ZIP64_LIMIT", 64)
    journal, days = _commit_log(tmp_path, [300, 200])
    _finalize(tmp_path, journal, 2)
    data = (tmp_path / DATA_FILE).read_bytes()
    assert b"PK\x06\x06" in data and b"PK\x06\x07" in data
    _assert_data_file(tmp_path, journal, days)


def _traced_peak(out, day_rows) -> int:
    journal, _ = _commit_log(out, day_rows)
    tracemalloc.start()
    try:
        finalize(out, journal, len(day_rows), sampling_rate=RATE)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finalize_memory_is_bounded_by_one_segment(tmp_path):
    """The traced peak stays under one bound fixed by the largest segment,
    for a short and a four times longer commit log alike; concatenating
    the twelve days would alone exceed it."""
    rows = 40_000
    segment_bytes = rows * PACKET_DTYPE.itemsize
    bound = 3 * segment_bytes + (2 << 20)
    assert 12 * segment_bytes > bound
    for days in (3, 12):
        peak = _traced_peak(tmp_path / f"days-{days}", [rows] * days)
        assert peak < bound, (days, peak, bound)


def _leftovers(out):
    return sorted(p.name for p in out.iterdir()
                  if p.name == DATA_FILE or p.name.startswith(TMP_PREFIX))


@pytest.mark.parametrize("delta", [1, -1])
def test_record_count_mismatch_publishes_nothing(tmp_path, delta):
    journal, days = _commit_log(tmp_path, [300, 400])
    entry = journal.committed(_segment_key("data", 1))
    journal.commit(_segment_key("data", 1), sha256=entry["sha256"],
                   bytes=entry["bytes"], records=entry["records"] + delta)
    with pytest.raises(CheckpointError, match="journal records"):
        finalize(tmp_path, journal, 2, sampling_rate=RATE)
    assert _leftovers(tmp_path) == []


def test_segment_of_the_wrong_dtype_publishes_nothing(tmp_path):
    journal, _ = _commit_log(tmp_path, [300, 400])
    path = tmp_path / SEGMENT_DIR / "data-001.npz"
    np.savez_compressed(path, packets=np.zeros(400, dtype=np.float64))
    with pytest.raises(CheckpointError, match="not packets"):
        finalize(tmp_path, journal, 2, sampling_rate=RATE)
    assert _leftovers(tmp_path) == []


def test_finalize_beyond_the_committed_days_is_refused(tmp_path):
    journal, _ = _commit_log(tmp_path, [300])
    with pytest.raises(CheckpointError, match="1 day"):
        finalize(tmp_path, journal, 2, sampling_rate=RATE)


@pytest.mark.parametrize("legacy", [(), (1,)], ids=["spliced", "savez"])
def test_damaged_segment_is_a_typed_error(tmp_path, legacy):
    """One flipped byte inside a data segment names the segment in a
    :class:`CheckpointError` and publishes nothing."""
    journal, _ = _commit_log(tmp_path, [300, 1000], legacy=legacy)
    path = tmp_path / SEGMENT_DIR / "data-001.npz"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="data-001.npz"):
        finalize(tmp_path, journal, 2, sampling_rate=RATE)
    assert _leftovers(tmp_path) == []
