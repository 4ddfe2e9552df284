"""Sampled packet records.

The corpus stores packets as a numpy structured array (`PACKET_DTYPE`) for
bulk analysis; :class:`SampledPacket` is the ergonomic per-record view used
at API boundaries and in tests. The MAC→AS mapping the paper performs on raw
IPFIX has already been applied: records carry ``ingress_asn`` directly, and
membership of the destination MAC in the blackhole is the ``dropped`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SampledPacket:
    """One sampled packet, mirroring a `PACKET_DTYPE` row."""

    time: float
    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int
    size: int
    ingress_asn: int
    origin_asn: int
    dropped: bool
    label: int = 0

    @classmethod
    def from_row(cls, row: np.void) -> "SampledPacket":
        return cls(
            time=float(row["time"]),
            src_ip=int(row["src_ip"]),
            dst_ip=int(row["dst_ip"]),
            protocol=int(row["protocol"]),
            src_port=int(row["src_port"]),
            dst_port=int(row["dst_port"]),
            size=int(row["size"]),
            ingress_asn=int(row["ingress_asn"]),
            origin_asn=int(row["origin_asn"]),
            dropped=bool(row["dropped"]),
            label=int(row["label"]),
        )

    def to_row(self) -> tuple:
        return (
            self.time, self.src_ip, self.dst_ip, self.protocol, self.src_port,
            self.dst_port, self.size, self.ingress_asn, self.origin_asn,
            self.dropped, self.label,
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
