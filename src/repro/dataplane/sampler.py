"""Statistical 1:N IPFIX packet sampling.

The IXP samples 1 out of ``rate`` packets at every member-facing edge port
(§3.1 of the paper uses 1:10,000). For a flow emitting ``pps`` packets per
second over ``duration`` seconds, the number of *sampled* packets is
Poisson-distributed with mean ``pps * duration / rate`` and the sample
times are uniform over the interval — exactly the thinning property of a
Poisson/deterministic sampler over a stationary flow. The sampler therefore
draws the sampled stream directly, which is what makes 100-day corpora
tractable (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataplane.flow import FlowSpec
from repro.dataplane.packet import PACKET_DTYPE
from repro import telemetry

#: The paper's sampling rate: 1 packet out of 10,000.
SAMPLING_RATE_DEFAULT = 10_000

_MIN_PACKET = 40
_MAX_PACKET = 1500

#: rows gathered per step of :meth:`IPFIXSampler.sample`
BLOCK_ROWS = 1 << 16


class IPFIXSampler:
    """Draws sampled packet records from flow specifications.

    Packet sizes are normal around the flow's mean with a configurable
    relative spread, clipped to Ethernet bounds. All randomness comes from
    the generator handed in, keeping scenario runs reproducible.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate: int = SAMPLING_RATE_DEFAULT,
        size_spread: float = 0.08,
    ):
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1: {rate}")
        if not 0 <= size_spread < 1:
            raise ValueError(f"size_spread must be in [0, 1): {size_spread}")
        self._rng = rng
        self.rate = rate
        self.size_spread = size_spread

    def sample(self, flows: Sequence[FlowSpec]) -> np.ndarray:
        """Sample all flows into one time-sorted `PACKET_DTYPE` array.

        Rows are in stable time order: equal timestamps keep flow order,
        then draw order — exactly ``rows[np.argsort(rows["time"],
        kind="stable")]`` of the rows in flow order. The generator is
        drawn in that flow order (counts, offsets, sizes), so the sort
        never changes which values are drawn. Columns are gathered
        :data:`BLOCK_ROWS` rows at a time, so besides the result only the
        timestamps, the sort order and the sizes are held at full length.

        The ``dropped`` column is left False; marking drops against the
        blackhole acceptance timeline is the fabric's job.
        """
        telem = telemetry.current()
        telem.counter("sampler.flows_offered").inc(len(flows))
        if not flows:
            return np.zeros(0, dtype=PACKET_DTYPE)

        def column(getter, dtype):
            return np.fromiter((getter(f) for f in flows), dtype=dtype,
                               count=len(flows))

        starts = column(lambda f: f.start, np.float64)
        durations = column(lambda f: f.duration, np.float64)
        pps = column(lambda f: f.pps, np.float64)
        counts = self._rng.poisson(pps * durations / self.rate)
        total = int(counts.sum())
        telem.counter("sampler.packets_sampled").inc(total)
        out = np.zeros(total, dtype=PACKET_DTYPE)
        if total == 0:
            return out

        # row r (in flow order) belongs to flow searchsorted(ends, r, "right")
        ends = np.cumsum(counts)
        times = self._rng.random(total)
        means = column(lambda f: f.mean_packet_size, np.float64)
        sizes = np.empty(total, dtype=np.uint16)
        for lo in range(0, total, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, total)
            flow = np.searchsorted(ends, np.arange(lo, hi), side="right")
            times[lo:hi] *= durations[flow]
            times[lo:hi] += starts[flow]
            spread = self._rng.standard_normal(hi - lo) * self.size_spread
            sizes[lo:hi] = np.clip(np.rint(means[flow] * (1.0 + spread)),
                                   _MIN_PACKET, _MAX_PACKET)

        order = np.argsort(times, kind="stable")
        fields = {
            "src_ip": column(lambda f: f.src_ip, np.uint32),
            "dst_ip": column(lambda f: f.dst_ip, np.uint32),
            "protocol": column(lambda f: f.protocol, np.uint8),
            "src_port": column(lambda f: f.src_port, np.uint16),
            "dst_port": column(lambda f: f.dst_port, np.uint16),
            "ingress_asn": column(lambda f: f.ingress_asn, np.uint32),
            "origin_asn": column(lambda f: f.origin_asn, np.uint32),
            "label": column(lambda f: int(f.label), np.uint8),
        }
        for lo in range(0, total, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, total)
            rows = order[lo:hi]
            block = out[lo:hi]
            block["time"] = times[rows]
            block["size"] = sizes[rows]
            flow = np.searchsorted(ends, rows, side="right")
            for name, values in fields.items():
                block[name] = values[flow]
        return out
