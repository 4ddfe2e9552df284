"""repro — a full reproduction of *"Down the Black Hole: Dismantling
Operational Practices of BGP Blackholing at IXPs"* (IMC 2019).

The package has three layers:

1. **Substrates** (:mod:`repro.net`, :mod:`repro.bgp`,
   :mod:`repro.dataplane`, :mod:`repro.ixp`, :mod:`repro.traffic`,
   :mod:`repro.mitigation`) — a synthetic IXP with route server, member
   policies, blackholing service, switching fabric and IPFIX sampling.
2. **Scenario** (:mod:`repro.scenario`, :mod:`repro.corpus`) — generates
   the paper-shaped measurement corpora (control-plane BGP log +
   data-plane sampled packets).
3. **Analysis** (:mod:`repro.core`, :mod:`repro.stats`) — the paper's
   measurement pipeline, reproducing every figure and table.

Most callers only need the facade (see :mod:`repro.api`)::

    from repro import Study, GenerateOptions

    study = Study.generate("corpus/", options=GenerateOptions(
        scale=0.02, duration_days=5))
    report = study.analyze()
    print(report.format())

The layers underneath stay importable for fine-grained work::

    from repro import ScenarioConfig, run_scenario, AnalysisPipeline

    result = run_scenario(ScenarioConfig.paper(scale=0.02, duration_days=30))
    pipeline = AnalysisPipeline(result.control, result.data,
                                peer_asns=result.ixp.member_asns,
                                peeringdb=result.ixp.peeringdb)
    print(pipeline.run("table2_pre_classes"))
"""

import importlib
import sys
from typing import Dict, Iterable

__version__ = "1.2.0"


def _lazy_exports(module_name: str, exports: Dict[str, Iterable[str]]):
    """The PEP 562 ``(__getattr__, __dir__)`` pair of a module whose
    re-exports load on first use.

    ``exports`` maps a defining module to the public names re-exported
    from it.  A name is imported on its first attribute access and then
    cached in the module namespace, so ``import repro.corpus`` costs
    nothing until a name is used.  A name listed under the module
    ``f"{module_name}.{name}"`` is that submodule itself.
    """
    sources = {name: source for source, names in exports.items()
               for name in names}

    def __getattr__(name: str):
        try:
            source = sources[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no "
                                 f"attribute {name!r}") from None
        module = importlib.import_module(source)
        value = (module if source == f"{module_name}.{name}"
                 else getattr(module, name))
        setattr(sys.modules[module_name], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[module_name])) | set(sources))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.api": ("AnalyzeOptions", "GenerateOptions", "StreamOptions",
                  "Study"),
    "repro.core.pipeline": ("AnalysisPipeline",),
    "repro.core.registry": ("ANALYSES", "AnalysisSpec", "get_analysis"),
    "repro.core.study": ("AnalysisStatus", "StudyReport"),
    "repro.corpus.control": ("ControlPlaneCorpus",),
    "repro.corpus.data": ("DataPlaneCorpus",),
    "repro.corpus.ingest": ("ErrorPolicy",),
    "repro.corpus.manifest": ("validate_corpus", "write_manifest"),
    "repro.scenario.config": ("ScenarioConfig",),
    "repro.scenario.runner": ("ScenarioResult", "run_scenario"),
})

__all__ = [
    "ANALYSES",
    "AnalysisPipeline",
    "AnalysisSpec",
    "AnalysisStatus",
    "AnalyzeOptions",
    "ControlPlaneCorpus",
    "DataPlaneCorpus",
    "ErrorPolicy",
    "GenerateOptions",
    "ScenarioConfig",
    "ScenarioResult",
    "StreamOptions",
    "Study",
    "StudyReport",
    "get_analysis",
    "run_scenario",
    "validate_corpus",
    "write_manifest",
    "__version__",
]
