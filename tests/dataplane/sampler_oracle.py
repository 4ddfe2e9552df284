"""The IPFIX sampler as it was before it emitted time-sorted rows, kept
as an oracle.

:func:`unsorted_sample` draws and fills every column at full length in
flow order; :func:`oracle_sample` then applies the stable time sort the
data-plane corpus used to apply on construction. The sorted sampler must
equal it bit for bit and leave the generator in the same state.
"""

from typing import Sequence

import numpy as np

from repro.dataplane.packet import PACKET_DTYPE

_MIN_PACKET = 40
_MAX_PACKET = 1500


def unsorted_sample(rng: np.random.Generator, flows: Sequence, rate: int,
                    size_spread: float) -> np.ndarray:
    """Sample ``flows`` into rows in flow order, then draw order."""
    if not flows:
        return np.zeros(0, dtype=PACKET_DTYPE)
    starts = np.fromiter((f.start for f in flows), dtype=np.float64, count=len(flows))
    durations = np.fromiter((f.duration for f in flows), dtype=np.float64, count=len(flows))
    pps = np.fromiter((f.pps for f in flows), dtype=np.float64, count=len(flows))
    counts = rng.poisson(pps * durations / rate)
    total = int(counts.sum())
    out = np.zeros(total, dtype=PACKET_DTYPE)
    if total == 0:
        return out

    idx = np.repeat(np.arange(len(flows)), counts)
    out["time"] = starts[idx] + rng.random(total) * durations[idx]

    def column(getter, dtype):
        vals = np.fromiter((getter(f) for f in flows), dtype=dtype, count=len(flows))
        return vals[idx]

    out["src_ip"] = column(lambda f: f.src_ip, np.uint32)
    out["dst_ip"] = column(lambda f: f.dst_ip, np.uint32)
    out["protocol"] = column(lambda f: f.protocol, np.uint8)
    out["src_port"] = column(lambda f: f.src_port, np.uint16)
    out["dst_port"] = column(lambda f: f.dst_port, np.uint16)
    out["ingress_asn"] = column(lambda f: f.ingress_asn, np.uint32)
    out["origin_asn"] = column(lambda f: f.origin_asn, np.uint32)
    out["label"] = column(lambda f: int(f.label), np.uint8)

    means = column(lambda f: f.mean_packet_size, np.float64)
    sizes = means * (1.0 + rng.standard_normal(total) * size_spread)
    out["size"] = np.clip(np.rint(sizes), _MIN_PACKET, _MAX_PACKET).astype(np.uint16)
    return out


def oracle_sample(rng: np.random.Generator, flows: Sequence, rate: int,
                  size_spread: float) -> np.ndarray:
    """:func:`unsorted_sample` in stable time order."""
    packets = unsorted_sample(rng, flows, rate, size_spread)
    return packets[np.argsort(packets["time"], kind="stable")]
