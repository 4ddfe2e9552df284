"""Shared fixtures: one tiny scenario built once per session, plus its
analysis pipeline. Small enough (< 2 s) to keep the suite fast while still
exercising every analysis end to end."""

import pytest
from hypothesis import settings

from repro import AnalysisPipeline
from repro.scenario import ScenarioConfig, run_scenario

# Opt-in (``pytest --hypothesis-profile ci``): the property and oracle
# tests that leave ``max_examples`` to the profile run ten times as many
# examples, without a deadline. The default profile is Hypothesis's own.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def stream_corpus(tmp_path_factory):
    """A small generated corpus directory with kept day segments.

    Shared by the facade and streaming suites; treat it as read-only —
    tests that mutate (advance, kill/resume checkpoints) must copy it
    first.
    """
    from repro import GenerateOptions, Study

    corpus = tmp_path_factory.mktemp("stream") / "corpus"
    Study.generate(corpus, options=GenerateOptions(
        scale=0.01, duration_days=3.0, seed=11, keep_segments=True))
    return corpus


@pytest.fixture(scope="session")
def tiny_config():
    return ScenarioConfig.paper(scale=0.01, duration_days=14.0, seed=11)


@pytest.fixture(scope="session")
def tiny_result(tiny_config):
    return run_scenario(tiny_config)


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_result):
    return AnalysisPipeline(
        tiny_result.control,
        tiny_result.data,
        peer_asns=tiny_result.ixp.member_asns,
        peeringdb=tiny_result.ixp.peeringdb,
        host_min_days=8,  # the tiny scenario only spans 14 days
    )
