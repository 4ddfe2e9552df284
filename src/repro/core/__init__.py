"""The paper's analysis pipeline.

Every figure and table of the evaluation maps to one module here (see
DESIGN.md §4 for the index). All analyses consume only the two corpora —
control-plane BGP messages and sampled data-plane packets — never the
scenario ground truth, so the pipeline would run unchanged on real IXP
data of the same shape.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.events": ("RTBHEvent", "extract_events",
                          "merge_threshold_sweep"),
    "repro.core.offset": ("time_offset_analysis",),
    "repro.core.load": ("rtbh_load_series",),
    "repro.core.visibility": ("targeted_visibility",),
    "repro.core.droprate": ("drop_rate_by_prefix_length",
                            "drop_rate_cdf_by_length",
                            "top_source_reactions", "top_source_org_types"),
    "repro.core.pre_rtbh": ("PreRTBHClassification",
                            "classify_pre_rtbh_events", "slot_features"),
    "repro.core.protocols": ("event_protocol_mix",
                             "amplification_protocol_table"),
    "repro.core.filtering": ("filterable_share_cdf", "as_participation"),
    "repro.core.hosts": ("HostClass", "classify_hosts"),
    "repro.core.collateral": ("collateral_damage",),
    "repro.core.classify": ("UseCase", "classify_events"),
    "repro.core.crossval": ("CrossValidation", "cross_validate"),
    "repro.core.pipeline": ("AnalysisPipeline",),
})

__all__ = [
    "RTBHEvent",
    "extract_events",
    "merge_threshold_sweep",
    "time_offset_analysis",
    "rtbh_load_series",
    "targeted_visibility",
    "drop_rate_by_prefix_length",
    "drop_rate_cdf_by_length",
    "top_source_reactions",
    "top_source_org_types",
    "PreRTBHClassification",
    "classify_pre_rtbh_events",
    "slot_features",
    "event_protocol_mix",
    "amplification_protocol_table",
    "filterable_share_cdf",
    "as_participation",
    "HostClass",
    "classify_hosts",
    "collateral_damage",
    "UseCase",
    "classify_events",
    "CrossValidation",
    "cross_validate",
    "AnalysisPipeline",
]
