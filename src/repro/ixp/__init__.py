"""IXP assembly: the member registry, a synthetic PeeringDB, the
blackholing service, and the :class:`~repro.ixp.platform.IXP` facade that
wires route server, switching fabric and acceptance timeline together.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.ixp.peeringdb": ("OrgType", "PeeringDB", "PeeringDBRecord"),
    "repro.ixp.member": ("IXPMember",),
    "repro.ixp.blackholing": ("BlackholingService",),
    "repro.ixp.flowspec": ("FlowSpecRule", "FlowSpecService"),
    "repro.ixp.platform": ("IXP",),
})

__all__ = [
    "OrgType",
    "PeeringDB",
    "PeeringDBRecord",
    "IXPMember",
    "BlackholingService",
    "FlowSpecService",
    "FlowSpecRule",
    "IXP",
]
