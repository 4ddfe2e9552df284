"""The two ingest fast paths must be invisible in what they produce.

* Control plane: ``read_updates_jsonl`` parses each distinct prefix,
  next hop, AS path, community set and action once per read.  Records
  equal a memo-free ``update_from_json`` of every line, and a malformed
  value repeated on many lines fails on every one of them, exactly as
  without the memo.
* Data plane: ``DataPlaneCorpus`` copies time-sorted input instead of
  sorting it.  The result equals the stable-argsort gather, the
  caller's array is never aliased, and the bad-timestamp policy holds.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.control import (
    ControlPlaneCorpus,
    read_updates_jsonl,
    update_from_json,
    write_updates_jsonl,
)
from repro.corpus.data import DataPlaneCorpus, write_packets_npz
from repro.dataplane.packet import packets_from_arrays
from repro.errors import CorpusError, IngestError, ReproError

# -- control plane -----------------------------------------------------------


def record(time, *, prefix="203.0.113.0/24", next_hop="192.0.2.1",
           as_path=(100, 200), communities=("65535:666",),
           action="announce"):
    return json.dumps({"time": time, "peer_asn": 100, "action": action,
                       "prefix": prefix, "next_hop": next_hop,
                       "as_path": list(as_path),
                       "communities": list(communities)})


def oracle(lines):
    """What every line parses to without a memo: an update, or the
    ``bad record`` reason the reader reports."""
    out = []
    for line in lines:
        try:
            out.append(update_from_json(json.loads(line)))
        except (KeyError, ValueError, TypeError, ReproError) as exc:
            out.append(f"bad record: {exc}")
    return out


def test_memoised_records_equal_memo_free_parse(tmp_path, tiny_result):
    path = tmp_path / "control.jsonl"
    write_updates_jsonl(list(tiny_result.control), path)
    lines = path.read_text().splitlines()
    read = [item for _, item in read_updates_jsonl(path)]
    assert len(read) == len(lines) > 1000
    assert read == oracle(lines)
    assert [str(m) for m in read] == [str(m) for m in oracle(lines)]


def test_parsed_values_are_shared_within_one_read(tmp_path, tiny_result):
    path = tmp_path / "control.jsonl"
    write_updates_jsonl(list(tiny_result.control), path)
    read = [item for _, item in read_updates_jsonl(path)]
    for field in ("prefix", "as_path", "communities"):
        by_value = {}
        for msg in read:
            value = getattr(msg, field)
            assert by_value.setdefault(value, value) is value, field
        assert len(by_value) < len(read)
    # a second read parses afresh: the memo lives for one read only
    again = next(item for _, item in read_updates_jsonl(path))
    assert again.prefix == read[0].prefix
    assert again.prefix is not read[0].prefix


#: malformed values, each repeated on several lines between good ones
BAD_VALUES = [
    {"prefix": "10.0.0.1/8"},              # host bits set
    {"next_hop": "300.1.1.1"},             # octet out of range
    {"communities": ("65535:666", "65535:x")},
    {"as_path": (100, "x")},
    {"action": "refresh"},
]


def repeated_bad_lines():
    lines = [record(0.0)]
    for round_ in range(3):
        for index, bad in enumerate(BAD_VALUES):
            lines.append(record(1.0 + round_ * 10 + index, **bad))
            lines.append(record(2.0 + round_ * 10 + index))
    # equal-comparing raw values of different types: int 3221225985 is a
    # valid next hop, the float that equals it is not, and the AS path
    # [100.0] parses exactly as [100]
    lines.append(record(50.0, next_hop=3221225985))
    lines.append(record(51.0, next_hop=3221225985.0))
    lines.append(record(52.0, as_path=(100,)))
    lines.append(record(53.0, as_path=(100.0,)))
    return lines


@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_repeated_malformed_values_fail_on_every_line(tmp_path, policy):
    path = tmp_path / "control.jsonl"
    lines = repeated_bad_lines()
    path.write_text("\n".join(lines) + "\n")
    expected = oracle(lines)
    bad = [(n, reason) for n, reason in enumerate(expected, 1)
           if isinstance(reason, str)]
    assert len(bad) == 3 * len(BAD_VALUES) + 1
    corpus = ControlPlaneCorpus.load_jsonl(path, on_error=policy)
    report = corpus.ingest_report
    assert report.skipped == len(bad)
    assert [(p.location, p.reason) for p in report.problems] == [
        (f"control.jsonl:{n}", reason) for n, reason in bad]
    if policy == "collect":
        assert report.quarantined == [lines[n - 1] for n, _ in bad]
    assert sorted(corpus, key=lambda m: m.time) == sorted(
        (m for m in expected if not isinstance(m, str)),
        key=lambda m: m.time)


def test_repeated_malformed_value_raises_same_strict_error(tmp_path):
    path = tmp_path / "control.jsonl"
    lines = repeated_bad_lines()
    path.write_text("\n".join(lines) + "\n")
    first_bad, reason = next((n, r) for n, r in enumerate(oracle(lines), 1)
                             if isinstance(r, str))
    with pytest.raises(IngestError) as raised:
        ControlPlaneCorpus.load_jsonl(path)
    assert str(raised.value) == f"{path}:{first_bad}: {reason}"


def test_unhashable_raw_values_parse_uncached():
    memo = {}
    with pytest.raises(TypeError) as direct:
        update_from_json(json.loads(record(1.0, as_path=([1],))))
    with pytest.raises(TypeError) as memoised:
        update_from_json(json.loads(record(1.0, as_path=([1],))), memo)
    assert str(memoised.value) == str(direct.value)
    assert memo == {("action", "announce"): memo[("action", "announce")],
                    ("prefix", "203.0.113.0/24"):
                        memo[("prefix", "203.0.113.0/24")],
                    ("next_hop", "192.0.2.1"): memo[("next_hop",
                                                     "192.0.2.1")]}


# -- data plane --------------------------------------------------------------


def packets(times):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    return packets_from_arrays({
        "time": times,
        # a distinct payload per row, so any reordering shows
        "src_port": np.arange(n, dtype=np.uint16),
        "dst_ip": np.arange(n, dtype=np.uint32) * 7,
        "size": np.full(n, 64, dtype=np.uint16),
    })


def argsort_gather(array):
    """The reference order: a stable argsort gather."""
    return array[np.argsort(array["time"], kind="stable")]


def test_sorted_input_is_copied_not_aliased():
    array = packets([0.0, 1.0, 1.0, 2.5, 7.0])
    expected = argsort_gather(array)
    corpus = DataPlaneCorpus(array)
    assert np.array_equal(corpus.packets, expected)
    assert not np.shares_memory(corpus.packets, array)
    array["time"][:] = 99.0
    array["src_port"][:] = 0
    assert np.array_equal(corpus.packets, expected)


def test_ties_and_unsorted_input_keep_the_stable_order():
    array = packets([3.0, 1.0, 3.0, 1.0, 2.0, 3.0, 0.0])
    corpus = DataPlaneCorpus(array)
    assert np.array_equal(corpus.packets, argsort_gather(array))
    assert corpus.packets["src_port"].tolist() == [6, 1, 3, 4, 0, 2, 5]


@given(st.lists(st.integers(0, 6), max_size=40), st.booleans())
def test_any_order_matches_the_argsort_gather(ticks, presort):
    times = sorted(ticks) if presort else ticks
    array = packets([t / 2 for t in times])
    before = array.copy()
    corpus = DataPlaneCorpus(array)
    assert np.array_equal(corpus.packets, argsort_gather(array))
    assert np.array_equal(array, before)


def test_load_npz_matches_the_argsort_gather(tmp_path):
    for name, times in (("sorted", [0.0, 0.5, 0.5, 4.0]),
                        ("unsorted", [4.0, 0.5, 0.0, 0.5])):
        array = packets(times)
        path = tmp_path / f"{name}.npz"
        write_packets_npz(array, 10_000, path)
        corpus = DataPlaneCorpus.load_npz(path)
        assert np.array_equal(corpus.packets, argsort_gather(array)), name


def test_bad_timestamps_still_dropped_and_counted_under_skip():
    array = packets([0.0, np.nan, 1.0, -2.0, np.inf, 3.0])
    corpus = DataPlaneCorpus(array, on_error="skip")
    assert corpus.packets["src_port"].tolist() == [0, 2, 5]
    assert corpus.ingest_report.skipped == 3
    assert corpus.ingest_report.loaded == 3
    assert not np.shares_memory(corpus.packets, array)


def test_bad_timestamps_still_raise_under_strict():
    for times in ([0.0, np.nan, 1.0], [0.0, -1.0, 1.0]):
        with pytest.raises(CorpusError, match="non-finite or negative"):
            DataPlaneCorpus(packets(times))
