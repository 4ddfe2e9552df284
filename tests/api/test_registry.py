"""The named analysis registry: the one way to address an analysis."""

import pytest

from repro import ANALYSES, get_analysis
from repro.core.pipeline import ANALYSIS_NAMES, AnalysisPipeline
from repro.errors import AnalysisError


def test_registry_covers_the_full_study():
    assert len(ANALYSES) == 16
    assert ANALYSIS_NAMES == tuple(spec.name for spec in ANALYSES)


def test_every_spec_is_complete():
    for spec in ANALYSES:
        assert spec.section, spec.name
        assert spec.title, spec.name


def test_incremental_flags():
    incremental = {spec.name for spec in ANALYSES if spec.incremental}
    assert incremental == {"fig3_load", "fig5_drop_by_length",
                           "fig6_drop_cdfs", "table2_pre_classes",
                           "fig19_use_cases"}


def test_get_analysis_unknown_name():
    with pytest.raises(AnalysisError, match="unknown analysis"):
        get_analysis("fig99_nonsense")


def test_run_rejects_unknown_name(tiny_pipeline):
    with pytest.raises(AnalysisError):
        tiny_pipeline.run("fig99_nonsense")


def test_run_delegates_to_the_analysis(tiny_pipeline):
    via_run = tiny_pipeline.run("fig3_load")
    direct = tiny_pipeline.analysis_fn("fig3_load")()
    assert via_run.peak_active == direct.peak_active
    assert via_run.mean_active == direct.mean_active


def test_no_per_figure_accessors_remain():
    # analyses are addressed by registry name only; the old per-figure
    # methods are gone, not merely deprecated
    for name in ANALYSIS_NAMES:
        assert not hasattr(AnalysisPipeline, name), name
