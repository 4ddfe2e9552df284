"""Sampled packet records.

The corpus stores packets as one numpy structured array (`PACKET_DTYPE`),
one record per sampled packet. The MAC→AS mapping the paper performs on raw IPFIX has already been
applied: records carry ``ingress_asn`` directly, and membership of the
destination MAC in the blackhole is the ``dropped`` flag.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: Structured dtype of the data-plane corpus. ``time`` is on the data-plane
#: clock; ``label`` is generator ground truth (FlowLabel).
PACKET_DTYPE = np.dtype(
    [
        ("time", "f8"),
        ("src_ip", "u4"),
        ("dst_ip", "u4"),
        ("protocol", "u1"),
        ("src_port", "u2"),
        ("dst_port", "u2"),
        ("size", "u2"),
        ("ingress_asn", "u4"),
        ("origin_asn", "u4"),
        ("dropped", "?"),
        ("label", "u1"),
    ]
)


def packets_from_arrays(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Assemble a `PACKET_DTYPE` array from parallel column arrays.

    Missing columns default to zero; extra keys raise to catch typos.
    """
    lengths = {len(v) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    unknown = set(columns) - set(PACKET_DTYPE.names)
    if unknown:
        raise ValueError(f"unknown packet columns: {sorted(unknown)}")
    n = lengths.pop() if lengths else 0
    out = np.zeros(n, dtype=PACKET_DTYPE)
    for name, values in columns.items():
        out[name] = values
    return out
