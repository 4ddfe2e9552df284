"""Named registry of every analysis in the study.

The pipeline's figures and tables are addressed by *name* — the same
names ``run_all`` reports, the CLI prints, and the checkpoint journal
keys on.  Each :class:`AnalysisSpec` records where the analysis lives in
the paper and whether it reads only shared intermediates the streaming
engine maintains in reducers (see :mod:`repro.streaming`).

Run one by name via :meth:`AnalysisPipeline.run`::

    pipeline.run("fig10_merge_sweep")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis: its name, paper anchor, and execution properties."""

    name: str
    #: where the result appears in the paper
    section: str
    #: one-line description of what it measures
    title: str
    #: True when it reads only intermediates ``repro.streaming``
    #: maintains in reducers, so a watcher never rescans the corpus for it
    incremental: bool


ANALYSES: Tuple[AnalysisSpec, ...] = (
    AnalysisSpec("fig2_time_offset", "§3.1 / Fig. 2",
                 "control/data clock offset MLE", False),
    AnalysisSpec("fig3_load", "§3.2 / Fig. 3",
                 "RTBH signaling load per minute", True),
    AnalysisSpec("fig4_targeted_visibility", "§4.1 / Fig. 4",
                 "visibility of targeted prefixes", False),
    AnalysisSpec("fig5_drop_by_length", "§4.2 / Fig. 5",
                 "drop rates by prefix length", True),
    AnalysisSpec("fig6_drop_cdfs", "§4.2 / Fig. 6",
                 "per-event drop-share ECDFs", True),
    AnalysisSpec("fig7_top_sources", "§4.2 / Fig. 7",
                 "top handover ASes' reactions", False),
    AnalysisSpec("fig8_org_types", "§4.2 / Fig. 8",
                 "PeeringDB org types of top sources", False),
    AnalysisSpec("fig10_merge_sweep", "§5.1 / Fig. 10",
                 "event merge-threshold sweep", False),
    AnalysisSpec("table2_pre_classes", "§5.2 / Table 2",
                 "pre-RTBH anomaly classification", True),
    AnalysisSpec("sec54_protocol_mix", "§5.4",
                 "protocol mix of anomalous events", False),
    AnalysisSpec("table3_amplification", "§5.4 / Table 3",
                 "amplification protocol shares", False),
    AnalysisSpec("fig14_filterable", "§6.1 / Fig. 14",
                 "share of filterable attack traffic", False),
    AnalysisSpec("fig15_participation", "§6.2 / Fig. 15",
                 "AS participation in filtering", False),
    AnalysisSpec("table4_host_types", "§7.2 / Table 4",
                 "org types of blackholed hosts", False),
    AnalysisSpec("fig18_collateral", "§7.3 / Fig. 18",
                 "collateral damage of /24 blackholes", False),
    AnalysisSpec("fig19_use_cases", "§8 / Fig. 19",
                 "use-case classification of events", True),
)

ANALYSES_BY_NAME: Dict[str, AnalysisSpec] = {s.name: s for s in ANALYSES}


def get_analysis(name: str) -> AnalysisSpec:
    """The spec for ``name``; :class:`AnalysisError` for unknown names."""
    try:
        return ANALYSES_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(ANALYSES_BY_NAME))
        raise AnalysisError(
            f"unknown analysis {name!r}; known analyses: {known}") from None


def incremental_names() -> Tuple[str, ...]:
    """Names whose intermediates the streaming engine keeps in reducers."""
    return tuple(s.name for s in ANALYSES if s.incremental)
