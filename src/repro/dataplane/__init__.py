"""Data-plane substrate: flow specifications, 1:N IPFIX packet sampling,
the IXP switching fabric with its blackhole MAC, and the per-member
blackhole-acceptance timeline used to mark sampled packets as dropped.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.dataplane.flow": ("FlowLabel", "FlowSpec"),
    "repro.dataplane.packet": ("PACKET_DTYPE", "packets_from_arrays"),
    "repro.dataplane.sampler": ("IPFIXSampler", "SAMPLING_RATE_DEFAULT"),
    "repro.dataplane.timeline": ("AcceptanceTimeline", "IntervalSet"),
    "repro.dataplane.fabric": ("BLACKHOLE_MAC", "SwitchingFabric"),
})

__all__ = [
    "FlowSpec",
    "FlowLabel",
    "PACKET_DTYPE",
    "packets_from_arrays",
    "IPFIXSampler",
    "SAMPLING_RATE_DEFAULT",
    "AcceptanceTimeline",
    "IntervalSet",
    "SwitchingFabric",
    "BLACKHOLE_MAC",
]
