"""``finalize`` streams the day segments into ``data.npz``.

The file must be byte-identical to ``np.savez_compressed`` over the
concatenated segments, finalize must hold about one segment at a time
whatever the day count, and a segment that disagrees with its journaled
record count must publish nothing.
"""

import io
import tracemalloc

import numpy as np
import pytest

from repro.corpus.manifest import DATA_FILE
from repro.dataplane.packet import PACKET_DTYPE
from repro.errors import CheckpointError
from repro.runtime.atomic import TMP_PREFIX
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import (
    JOURNAL_FILE,
    SEGMENT_DIR,
    _segment_key,
    finalize,
    write_segment,
)

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


def _commit_log(out, day_rows):
    """Commit one control and one data segment per entry of ``day_rows``
    and return the journal and the data days."""
    seg_dir = out / SEGMENT_DIR
    seg_dir.mkdir(parents=True)
    journal = CheckpointJournal(out / JOURNAL_FILE)
    journal.start({"command": "generate", "seed": 1})
    days = []
    for day, rows in enumerate(day_rows):
        days.append(_day(day, rows))
        journal.commit(_segment_key("control", day),
                       **write_segment(seg_dir, "control", day, []))
        journal.commit(_segment_key("data", day),
                       **write_segment(seg_dir, "data", day, days[-1]))
    return journal, days


def _savez_bytes(days) -> bytes:
    packets = (np.concatenate(days) if days
               else np.zeros(0, dtype=PACKET_DTYPE))
    buf = io.BytesIO()
    np.savez_compressed(buf, packets=packets, sampling_rate=RATE)
    return buf.getvalue()


@pytest.mark.parametrize("day_rows", [
    [],                      # no days: an empty array
    [500],                   # one day
    [300, 700, 20, 1000, 450, 90, 800],  # many days
    [400, 0, 650],           # a day without sampled packets
    [0],
], ids=["zero-days", "one-day", "many-days", "empty-day", "only-empty-day"])
def test_streamed_data_file_matches_savez_of_the_concatenation(tmp_path,
                                                               day_rows):
    journal, days = _commit_log(tmp_path, day_rows)
    counts = finalize(tmp_path, journal, len(day_rows), sampling_rate=RATE)
    assert (tmp_path / DATA_FILE).read_bytes() == _savez_bytes(days)
    assert counts["data_packets"] == sum(day_rows)


def test_finalize_of_a_prefix_ignores_later_days(tmp_path):
    journal, days = _commit_log(tmp_path, [200, 300, 400])
    finalize(tmp_path, journal, 2, sampling_rate=RATE)
    assert (tmp_path / DATA_FILE).read_bytes() == _savez_bytes(days[:2])


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
