"""repro.streaming — incremental analysis over an append-only corpus.

The streaming engine (``repro watch``) tails the committed day segments
of a generated corpus, advances the RTBH automaton and the data-plane
reducers, and reports results whose value fingerprints equal a
from-scratch batch run over the same corpus prefix.  ``repro advance``
extends a corpus by more days through the same commit log.  See
DESIGN.md §10.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.corpus.control": ("ControlReducer",),
    "repro.streaming.advance": ("AdvanceReport", "advance_corpus"),
    "repro.streaming.engine": ("StreamEngine",),
    "repro.streaming.reducers": ("PreRTBHReducer", "TrafficReducer"),
    "repro.streaming.report": ("StreamReport",),
    "repro.streaming.state": ("STREAM_CHECKPOINT_FILE", "StreamState",
                              "load_state", "reset_stream", "save_state"),
})

__all__ = [
    "AdvanceReport",
    "ControlReducer",
    "PreRTBHReducer",
    "STREAM_CHECKPOINT_FILE",
    "StreamEngine",
    "StreamReport",
    "StreamState",
    "TrafficReducer",
    "advance_corpus",
    "load_state",
    "reset_stream",
    "save_state",
]
