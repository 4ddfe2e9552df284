"""Stream-vs-analyze watermark equivalence with the result cache off: a
fresh, uncached stream must fingerprint every analysis exactly as a
batch ``analyze`` of the same corpus."""

import shutil

from repro.api import AnalyzeOptions, Study, StreamOptions


def _digests(report):
    return {o.name: o.value_digest for o in report.outcomes}


class TestFacade:
    def test_stream_matches_analyze(self, stream_corpus, tmp_path):
        # stream() checkpoints reducer state into the corpus — work on a
        # private copy so the shared fixture stays pristine
        target = tmp_path / "corpus"
        shutil.copytree(stream_corpus, target)
        study = Study.open(target)
        stream = study.stream(options=StreamOptions(
            host_min_days=1, cache=False, fresh=True))
        batch = study.analyze(options=AnalyzeOptions(host_min_days=1))
        assert _digests(batch)  # non-empty: every analysis ran
        assert stream.fingerprints() == _digests(batch)
